"""Command line front-end.

Subcommands map one-to-one onto the library surface:

    entropy    spectral entropy of one truncated distance multiset
    null       Poisson reference statistics (estimate or stabilization scan)
    cramer     spectral entropy of a random pseudoprime configuration
    stability  H as a function of the truncation radius
    deviation  H minus the matched Poisson null, in standard errors
    ensemble   H distribution over random base-point samples

Every run writes a result file (JSON by default) carrying a manifest with
the full parameter set, the seed, the tool version, and a timestamp.  CSV
output gets the manifest as a ``<out>.manifest.json`` sidecar.  Exit codes:
0 success, 1 pipeline error (the error class name goes to stderr), 2 bad
arguments.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from datetime import datetime, timezone
from pathlib import Path
from typing import Sequence

import numpy as np

from . import __version__
from .binning import MAX_BINS
from .cramer import RESCALE_MODES, CramerConfig, cramer_entropy
from .distances import read_values, truncated_distances
from .entropy import full_pipeline
from .errors import InvalidArgumentError, SpecentError
from .experiments import (
    QUANTILE_LEVELS,
    deviation_profile,
    ensemble_distribution,
    matched_null_config,
    stability_profile,
)
from .nullmodel import (
    PoissonConfig,
    baseline_from_estimate,
    check_bin_stabilization,
    estimate_null_entropy,
    write_baseline,
)
from .primes import PrimeTable, first_n_primes, primes_in_window, sieve_up_to

SCHEMA_PREFIX = "specent/v1"

# Arguments that steer execution or file placement but do not affect the
# computed result; kept out of manifest["parameters"] so runs that differ
# only in --threads or output path produce comparable payloads.
_EXECUTION_KEYS = {"func", "subcommand", "format", "out", "threads", "baseline_out"}


def _int_arg(text: str) -> int:
    """Integer parser that also accepts scientific notation like 1e7."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid integer: {text!r}")
    if not math.isfinite(value) or value != int(value):
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    return int(value)


def _grid_arg(text: str) -> tuple:
    try:
        values = tuple(float(part) for part in text.split(",") if part.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid radius grid: {text!r}")
    if not values:
        raise argparse.ArgumentTypeError("radius grid is empty")
    return values


def _range_arg(text: str) -> tuple:
    parts = text.split(":")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"expected lo:hi, got {text!r}")
    return (_int_arg(parts[0]), _int_arg(parts[1]))


def _add_output_args(sub) -> None:
    sub.add_argument("--format", choices=("json", "csv"), default="json",
                     help="result file format (default json)")
    sub.add_argument("--out", default=None,
                     help="result path (default <subcommand>_result.<ext>)")


def _add_threads_arg(sub) -> None:
    sub.add_argument("--threads", type=_int_arg, default=None,
                     help="accepted for compatibility; has no effect (every loop runs serially)")


def _add_prime_source_args(sub, with_points_file: bool = False) -> None:
    group = sub.add_mutually_exclusive_group()
    group.add_argument("--n-primes", type=_int_arg, default=None,
                       help="use the first K primes")
    group.add_argument("--prime-limit", type=_int_arg, default=None,
                       help="use all primes up to L")
    if with_points_file:
        group.add_argument("--points-file", default=None,
                           help="plain-text point coordinates, one per line")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="specent",
        description="Spectral entropy of log-binned distance distributions.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    subparsers = parser.add_subparsers(dest="subcommand", required=True)

    sub = subparsers.add_parser("entropy", help="entropy of one truncated multiset")
    sub.add_argument("--p", type=float, required=True, help="base point")
    sub.add_argument("--R", type=float, required=True, help="truncation radius")
    sub.add_argument("--M", type=_int_arg, required=True, help="number of log bins")
    sub.add_argument("--squared-weights", action="store_true",
                     help="weight by squared spectral magnitudes")
    _add_prime_source_args(sub, with_points_file=True)
    _add_threads_arg(sub)
    _add_output_args(sub)
    sub.set_defaults(func=cmd_entropy)

    sub = subparsers.add_parser("null", help="Poisson null estimate or stabilization scan")
    sub.add_argument("--lambda", dest="intensity", type=float, default=1.0,
                     help="Poisson intensity (default 1.0)")
    sub.add_argument("--R", type=float, default=None, help="truncation radius")
    sub.add_argument("--M", type=_int_arg, default=50, help="number of log bins (default 50)")
    sub.add_argument("--reps", type=_int_arg, default=None, help="number of replicates")
    sub.add_argument("--seed", type=_int_arg, required=True, help="RNG seed")
    sub.add_argument("--check-stabilization", action="store_true",
                     help="scan raw distance statistics over --R-grid instead of estimating H")
    sub.add_argument("--R-grid", type=_grid_arg, default=None,
                     help="comma-separated radii, e.g. 1e3,1e4,1e5")
    sub.add_argument("--baseline-out", default=None,
                     help="also write the estimate as a reusable baseline file")
    _add_threads_arg(sub)
    _add_output_args(sub)
    sub.set_defaults(func=cmd_null)

    sub = subparsers.add_parser("cramer", help="entropy of a random pseudoprime set")
    sub.add_argument("--N", type=_int_arg, required=True, help="upper bound of the ground set")
    sub.add_argument("--R", type=float, required=True, help="truncation radius")
    sub.add_argument("--M", type=_int_arg, required=True, help="number of log bins")
    sub.add_argument("--seed", type=_int_arg, required=True, help="RNG seed")
    sub.add_argument("--base", type=float, default=None,
                     help="requested base coordinate (default N/2); snapped to the nearest member")
    sub.add_argument("--rescale", action=argparse.BooleanOptionalAction, default=True,
                     help="divide distances by the local mean gap (default on)")
    sub.add_argument("--rescale-mode", choices=RESCALE_MODES, default="base-point",
                     help="normalization convention when rescaling")
    _add_threads_arg(sub)
    _add_output_args(sub)
    sub.set_defaults(func=cmd_cramer)

    sub = subparsers.add_parser("stability", help="H versus truncation radius")
    sub.add_argument("--p", type=float, required=True, help="base point")
    sub.add_argument("--M", type=_int_arg, required=True, help="number of log bins")
    sub.add_argument("--R-grid", type=_grid_arg, required=True,
                     help="comma-separated radii, e.g. 1e3,1e4,1e5,1e6")
    _add_prime_source_args(sub)
    _add_threads_arg(sub)
    _add_output_args(sub)
    sub.set_defaults(func=cmd_stability)

    sub = subparsers.add_parser("deviation", help="H minus the matched Poisson null")
    sub.add_argument("--p", type=float, required=True, help="base point")
    sub.add_argument("--R", type=float, required=True, help="truncation radius")
    sub.add_argument("--M", type=_int_arg, required=True, help="number of log bins")
    sub.add_argument("--reps", type=_int_arg, required=True, help="null replicates")
    sub.add_argument("--seed", type=_int_arg, required=True, help="RNG seed for the null")
    sub.add_argument("--lambda", dest="intensity", type=float, default=None,
                     help="null intensity (default 1/log p)")
    _add_prime_source_args(sub)
    _add_threads_arg(sub)
    _add_output_args(sub)
    sub.set_defaults(func=cmd_deviation)

    sub = subparsers.add_parser("ensemble", help="H distribution over base-point samples")
    sub.add_argument("--m", type=_int_arg, required=True, help="base points per sample")
    sub.add_argument("--samples", type=_int_arg, required=True, help="number of samples")
    sub.add_argument("--range", type=_range_arg, required=True, metavar="LO:HI",
                     help="prime range to sample base points from")
    sub.add_argument("--R", type=float, required=True, help="truncation radius")
    sub.add_argument("--M", type=_int_arg, required=True, help="number of log bins")
    sub.add_argument("--seed", type=_int_arg, required=True, help="sampling seed")
    sub.add_argument("--center", action="store_true",
                     help="subtract the packaged Poisson baseline mean from every sample")
    sub.add_argument("--hist-bins", type=_int_arg, default=20,
                     help="histogram resolution (default 20)")
    _add_prime_source_args(sub)
    _add_threads_arg(sub)
    _add_output_args(sub)
    sub.set_defaults(func=cmd_ensemble)

    return parser


def _check_finite(name: str, *values: float, positive: bool = False) -> None:
    """Reject a non-finite (or, with ``positive``, a non-positive) flag value."""
    for value in values:
        if not math.isfinite(value) or (positive and value <= 0):
            kind = "positive and finite" if positive else "finite"
            raise InvalidArgumentError(f"--{name} must be {kind}, got {value}")


def _prime_table(args, lo: float, hi: float) -> PrimeTable:
    """The prime source for a command that reads primes in ``[lo, hi]``.

    ``--n-primes`` and ``--prime-limit`` select a table from 0 up; without
    them only the window itself is sieved.
    """
    if getattr(args, "n_primes", None) is not None:
        return first_n_primes(args.n_primes)
    if getattr(args, "prime_limit", None) is not None:
        return sieve_up_to(args.prime_limit)
    return primes_in_window(math.floor(lo), math.ceil(hi))


def _table_provenance(table: PrimeTable) -> dict:
    return {"prime_lo": int(table.lo), "prime_limit": int(table.limit),
            "prime_count": len(table)}


def _manifest(args, outputs: Sequence[str]) -> dict:
    params = {k: v for k, v in vars(args).items() if k not in _EXECUTION_KEYS}
    return {
        "subcommand": args.subcommand,
        "parameters": params,
        "seed": params.get("seed"),
        "tool_version": __version__,
        "timestamp": datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ"),
        "outputs": list(outputs),
    }


def _write_json_file(path: str, payload: dict) -> None:
    parent = Path(path).parent
    if parent and not parent.exists():
        parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


def _emit(args, kind: str, result: dict, csv_header: Sequence[str],
          csv_rows: Sequence[Sequence]) -> str:
    """Write the result file (plus manifest sidecar for CSV); returns the path."""
    ext = "json" if args.format == "json" else "csv"
    out = args.out or f"{args.subcommand}_result.{ext}"
    if args.format == "json":
        payload = {
            "schema": f"{SCHEMA_PREFIX}/{kind}",
            "manifest": _manifest(args, [out]),
            "result": result,
        }
        _write_json_file(out, payload)
    else:
        import csv as _csv

        sidecar = out + ".manifest.json"
        parent = Path(out).parent
        if parent and not parent.exists():
            parent.mkdir(parents=True, exist_ok=True)
        with open(out, "w", encoding="utf-8", newline="") as handle:
            writer = _csv.writer(handle)
            writer.writerow(csv_header)
            for row in csv_rows:
                writer.writerow([_cell(value) for value in row])
        _write_json_file(sidecar, {
            "schema": f"{SCHEMA_PREFIX}/run_manifest",
            "manifest": _manifest(args, [out, sidecar]),
        })
    print(f"wrote {out}")
    return out


def _cell(value):
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, (int, np.integer)):
        return int(value)
    return value


def cmd_entropy(args) -> int:
    _check_finite("p", args.p)
    _check_finite("R", args.R, positive=True)
    prov: dict = {"base_point": args.p}
    if getattr(args, "points_file", None) is not None:
        pts = np.sort(read_values(args.points_file))
        prov["model"] = "points-file"
        prov["source"] = {"path": args.points_file, "count": int(pts.size)}
        dm = truncated_distances(args.p, pts, args.R)
    else:
        table = _prime_table(args, args.p - args.R, args.p + args.R)
        prov["model"] = "primes"
        prov["source"] = _table_provenance(table)
        dm = truncated_distances(args.p, table, args.R)
    report = full_pipeline(dm, args.M, squared=args.squared_weights, provenance=prov)
    rows = [(k + 1, w, report.H) for k, w in enumerate(report.weights)]
    _emit(args, "entropy_report", report.to_dict(), ("k", "weight", "H"), rows)
    print(f"H = {report.H:.12g}")
    return 0


def cmd_null(args) -> int:
    if args.check_stabilization:
        if args.R_grid is None:
            raise InvalidArgumentError("--check-stabilization requires --R-grid")
        config = PoissonConfig(intensity=args.intensity, radius=max(args.R_grid),
                               seed=args.seed)
        reps = args.reps if args.reps is not None else 20
        report = check_bin_stabilization(config, args.R_grid, reps)
        header = ("R", "mean_abs_log_dmax_gap", "mean_log_dmin", "mean_dmin", "stderr_dmin")
        rows = list(zip(report.radii, report.mean_abs_log_dmax_gap,
                        report.mean_log_dmin, report.mean_dmin, report.stderr_dmin))
        _emit(args, "stabilization_report", report.to_dict(), header, rows)
        for i, radius in enumerate(report.radii):
            print(f"R = {radius:g}: mean |d log d_max| = {report.mean_abs_log_dmax_gap[i]:.6g}, "
                  f"mean d_min = {report.mean_dmin[i]:.6g}")
        return 0

    if args.R is None:
        raise InvalidArgumentError("--R is required unless --check-stabilization is given")
    if args.reps is None:
        raise InvalidArgumentError("--reps is required unless --check-stabilization is given")
    config = PoissonConfig(intensity=args.intensity, radius=args.R, seed=args.seed)
    estimate = estimate_null_entropy(args.M, config, args.reps)
    outputs_extra = []
    if args.baseline_out is not None:
        write_baseline(baseline_from_estimate(estimate), args.baseline_out)
        outputs_extra.append(args.baseline_out)
        print(f"wrote {args.baseline_out}")
    rows = [(i + 1, h) for i, h in enumerate(estimate.per_replicate_H)]
    _emit(args, "null_estimate", estimate.to_dict(), ("replicate", "H"), rows)
    if estimate.degenerate_count:
        print(f"excluded {estimate.degenerate_count} degenerate replicate(s)")
    print(f"H_null = {estimate.mean_H:.12g} +/- {estimate.std_error:.12g} "
          f"({estimate.replicates} replicates)")
    return 0


def cmd_cramer(args) -> int:
    config = CramerConfig(N=args.N, seed=args.seed, rescale=args.rescale,
                          rescale_mode=args.rescale_mode)
    base = args.base if args.base is not None else args.N / 2
    report = cramer_entropy(config, base, args.R, args.M)
    rows = [(k + 1, w, report.H) for k, w in enumerate(report.weights)]
    _emit(args, "entropy_report", report.to_dict(), ("k", "weight", "H"), rows)
    print(f"H = {report.H:.12g}")
    return 0


def cmd_stability(args) -> int:
    _check_finite("p", args.p)
    _check_finite("R-grid", *args.R_grid, positive=True)
    reach = max(args.R_grid)
    table = _prime_table(args, args.p - reach, args.p + reach)
    profile = stability_profile(args.p, args.M, args.R_grid, table)
    rows = list(zip(profile.radii, profile.H_values, profile.envelope))
    _emit(args, "stability_profile", profile.to_dict(), ("R", "H", "tail_envelope"), rows)
    for radius, h, env in rows:
        print(f"R = {radius:g}: H = {h:.12g} (tail envelope {env:.3e})")
    return 0


def cmd_deviation(args) -> int:
    _check_finite("p", args.p)
    _check_finite("R", args.R, positive=True)
    table = _prime_table(args, args.p - args.R, args.p + args.R)
    if args.intensity is not None:
        null_config = PoissonConfig(intensity=args.intensity, radius=args.R, seed=args.seed)
    else:
        null_config = matched_null_config(args.p, args.R, args.seed)
    profile = deviation_profile(args.p, args.M, args.R, table, null_config, args.reps)
    header = ("p", "M", "R", "H", "null_mean", "null_stderr", "delta", "z_score")
    row = (profile.base_point, profile.M, profile.radius, profile.H_prime,
           profile.null_mean, profile.null_stderr, profile.delta, profile.z_score)
    _emit(args, "deviation_profile", profile.to_dict(), header, [row])
    print(f"delta = {profile.delta:.12g} (H = {profile.H_prime:.12g}, "
          f"null = {profile.null_mean:.12g} +/- {profile.null_stderr:.12g}, "
          f"z = {profile.z_score:.6g})")
    return 0


def cmd_ensemble(args) -> int:
    lo, hi = args.range
    _check_finite("R", args.R, positive=True)
    table = _prime_table(args, lo - args.R, hi + args.R)
    dist = ensemble_distribution(args.m, args.samples, (lo, hi), args.R, args.M,
                                 args.seed, table, center=args.center,
                                 hist_bins=args.hist_bins)
    rows = [(i + 1, h) for i, h in enumerate(dist.samples)]
    _emit(args, "ensemble_distribution", dist.to_dict(), ("sample", "H"), rows)
    median = dist.quantiles[QUANTILE_LEVELS.index(0.5)]
    print(f"median H = {median:.12g}, IQR = {dist.iqr:.12g} ({len(dist.samples)} samples)")
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "M", None) is not None and not 2 <= args.M <= MAX_BINS:
        parser.error(f"--M must be at least 2 and at most {MAX_BINS}")
    if getattr(args, "reps", None) is not None and args.reps < 2:
        parser.error("--reps must be at least 2")
    if getattr(args, "threads", None) is not None and args.threads < 1:
        parser.error("--threads must be at least 1")
    try:
        return args.func(args)
    except InvalidArgumentError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except SpecentError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
