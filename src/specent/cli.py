"""Command line front-end.

Subcommands map one-to-one onto the library surface:

    entropy        spectral entropy of one truncated distance multiset
    null           Poisson null entropy estimate
    stabilization  Poisson distance extrema over a radius grid
    cramer         spectral entropy of a random pseudoprime configuration
    stability      H as a function of the truncation radius
    deviation      H minus the matched Poisson null, in standard errors
    ensemble       H distribution over random base-point samples

Every run writes a result file (JSON by default) carrying a manifest with
the full parameter set, the seed, the tool version, and a timestamp.  CSV
output gets the manifest as a ``<out>.manifest.json`` sidecar.  Exit codes:
0 success, 1 pipeline error (the error class name goes to stderr), 2 bad
arguments.
"""

from __future__ import annotations

import argparse
import csv
import functools
import sys
from datetime import datetime, timezone
from typing import Sequence

import numpy as np

from . import __version__
from ._json import open_output, plain, write_json
from .binning import _check_bins
from .cramer import CramerConfig, cramer_entropy
from .distances import _check_radii, _check_window, read_values, truncated_distances
from .entropy import EntropyReport, full_pipeline
from .errors import InvalidArgumentError, SpecentError
from .experiments import (
    QUANTILE_LEVELS,
    _check_ensemble_args,
    deviation_profile,
    ensemble_distribution,
    matched_null_config,
    stability_profile,
)
from .nullmodel import (
    PoissonConfig,
    _check_replicates,
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
    """Integer parser: digit strings exactly, and notation like 1e7 when it
    names an integer of magnitude at most 2**53; nothing is rounded."""
    try:
        return int(text)
    except ValueError:
        pass
    # Imported here: a process whose integer flags are all digits never
    # loads the module (about 0.3 MB and a few ms of start-up).
    from decimal import Decimal, InvalidOperation

    try:
        value = Decimal(text)
    except InvalidOperation:
        raise argparse.ArgumentTypeError(f"invalid integer: {text!r}") from None
    if not (value.is_finite() and value == value.to_integral_value()):
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    if value.copy_abs() > 2**53:
        raise argparse.ArgumentTypeError(f"{text!r} exceeds 2**53; write it in digits")
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


def _add_prime_source_args(sub, with_points_file: bool = False) -> None:
    group = sub.add_mutually_exclusive_group()
    group.add_argument("--n-primes", type=_int_arg, default=None,
                       help="use the first K primes")
    group.add_argument("--prime-limit", type=_int_arg, default=None,
                       help="use all primes up to L")
    if with_points_file:
        group.add_argument("--points-file", default=None,
                           help="plain-text point coordinates, one per line")


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as one stderr line (no usage text), exit 2."""

    def error(self, message):
        self.exit(2, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    # Flags match by full name only, so no foreign --R is read as --R-grid.
    parser = _Parser(
        prog="specent",
        description="Spectral entropy of log-binned distance distributions.",
        allow_abbrev=False,
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--threads", type=_int_arg, default=None,
                        help="accepted for compatibility; has no effect (every loop runs serially)")
    shared.add_argument("--format", choices=("json", "csv"), default="json",
                        help="result file format (default json)")
    shared.add_argument("--out", default=None,
                        help="result path (default <subcommand>_result.<ext>)")
    poisson = argparse.ArgumentParser(add_help=False)
    poisson.add_argument("--lambda", dest="intensity", type=float, default=1.0,
                         help="Poisson intensity (default 1.0)")
    poisson.add_argument("--seed", type=_int_arg, required=True, help="RNG seed")
    subparsers = parser.add_subparsers(dest="subcommand", required=True)

    def command(name: str, handler, summary: str, *parents):
        sub = subparsers.add_parser(name, parents=[shared, *parents], help=summary,
                                    allow_abbrev=False)
        sub.set_defaults(func=handler)
        return sub

    sub = command("entropy", cmd_entropy, "entropy of one truncated multiset")
    sub.add_argument("--p", type=float, required=True, help="base point")
    sub.add_argument("--R", type=float, required=True, help="truncation radius")
    sub.add_argument("--M", type=_int_arg, required=True, help="number of log bins")
    _add_prime_source_args(sub, with_points_file=True)

    sub = command("null", cmd_null, "Poisson null entropy estimate", poisson)
    sub.add_argument("--R", type=float, required=True, help="truncation radius")
    sub.add_argument("--M", type=_int_arg, default=50, help="number of log bins (default 50)")
    sub.add_argument("--reps", type=_int_arg, required=True, help="number of replicates")
    sub.add_argument("--baseline-out", default=None,
                     help="also write the estimate as a reusable baseline file")

    sub = command("stabilization", cmd_stabilization, "Poisson distance extrema over radii",
                  poisson)
    sub.add_argument("--R-grid", type=_grid_arg, required=True,
                     help="comma-separated radii, e.g. 1e3,1e4,1e5")
    sub.add_argument("--reps", type=_int_arg, default=20,
                     help="replicates per radius (default 20)")

    sub = command("cramer", cmd_cramer, "entropy of a random pseudoprime set")
    sub.add_argument("--N", type=_int_arg, required=True, help="upper bound of the ground set")
    sub.add_argument("--R", type=float, required=True, help="truncation radius")
    sub.add_argument("--M", type=_int_arg, required=True, help="number of log bins")
    sub.add_argument("--seed", type=_int_arg, required=True, help="RNG seed")
    sub.add_argument("--base", type=float, default=None,
                     help="requested base coordinate (default N/2); snapped to the nearest member")

    sub = command("stability", cmd_stability, "H versus truncation radius")
    sub.add_argument("--p", type=float, required=True, help="base point")
    sub.add_argument("--M", type=_int_arg, required=True, help="number of log bins")
    sub.add_argument("--R-grid", type=_grid_arg, required=True,
                     help="comma-separated radii, e.g. 1e3,1e4,1e5,1e6")
    _add_prime_source_args(sub)

    sub = command("deviation", cmd_deviation, "H minus the matched Poisson null")
    sub.add_argument("--p", type=float, required=True, help="base point")
    sub.add_argument("--R", type=float, required=True, help="truncation radius")
    sub.add_argument("--M", type=_int_arg, required=True, help="number of log bins")
    sub.add_argument("--reps", type=_int_arg, required=True, help="null replicates")
    sub.add_argument("--seed", type=_int_arg, required=True, help="RNG seed for the null")
    sub.add_argument("--lambda", dest="intensity", type=float, default=None,
                     help="null intensity (default 1/log p)")
    _add_prime_source_args(sub)

    sub = command("ensemble", cmd_ensemble, "H distribution over base-point samples")
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

    return parser


def _prime_table(args, lo: float, hi: float) -> PrimeTable:
    """The prime source for a command that reads primes in ``[lo, hi]``.

    ``--n-primes`` and ``--prime-limit`` select a table from 0 up; without
    them only the window itself is sieved.  Callers check their flags first.
    """
    if args.n_primes is not None:
        return first_n_primes(args.n_primes)
    if args.prime_limit is not None:
        return sieve_up_to(args.prime_limit)
    return primes_in_window(lo, hi)


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


def _emit(args, kind: str, result: dict, csv_header: Sequence[str],
          csv_rows: Sequence[Sequence]) -> None:
    """Write the result file, plus the manifest sidecar for CSV."""
    out = args.out or f"{args.subcommand}_result.{args.format}"
    if args.format == "json":
        payload = {
            "schema": f"{SCHEMA_PREFIX}/{kind}",
            "manifest": _manifest(args, [out]),
            "result": result,
        }
        write_json(out, payload)
    else:
        sidecar = out + ".manifest.json"
        with open_output(out, newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(csv_header)
            writer.writerows(plain(csv_rows))
        write_json(sidecar, {
            "schema": f"{SCHEMA_PREFIX}/run_manifest",
            "manifest": _manifest(args, [out, sidecar]),
        })
    print(f"wrote {out}")


def _emit_report(args, report: EntropyReport) -> int:
    """Write a single entropy report and print its ``H``."""
    rows = [(k + 1, w, report.H) for k, w in enumerate(report.weights)]
    _emit(args, "entropy_report", report.to_dict(), ("k", "weight", "H"), rows)
    print(f"H = {report.H:.12g}")
    return 0


def cmd_entropy(args) -> int:
    M = _check_bins(args.M)
    _check_window(args.p, args.R)
    prov: dict = {"base_point": args.p}
    if args.points_file is not None:
        pts = np.sort(read_values(args.points_file))
        prov["model"] = "points-file"
        prov["source"] = {"path": args.points_file, "count": int(pts.size)}
        dm = truncated_distances(args.p, pts, args.R)
    else:
        table = _prime_table(args, args.p - args.R, args.p + args.R)
        prov["model"] = "primes"
        prov["source"] = {"prime_lo": int(table.lo), "prime_limit": int(table.limit),
                          "prime_count": len(table)}
        dm = truncated_distances(args.p, table, args.R)
    return _emit_report(args, full_pipeline(dm, M, provenance=prov))


def cmd_null(args) -> int:
    config = PoissonConfig(intensity=args.intensity, radius=args.R, seed=args.seed)
    estimate = estimate_null_entropy(args.M, config, args.reps)
    rows = [(i + 1, h) for i, h in enumerate(estimate.per_replicate_H)]
    _emit(args, "null_estimate", estimate.to_dict(), ("replicate", "H"), rows)
    # The baseline goes last, so a run that fails leaves none for readers to load.
    if args.baseline_out is not None:
        write_baseline(baseline_from_estimate(estimate), args.baseline_out)
        print(f"wrote {args.baseline_out}")
    if estimate.degenerate_count:
        print(f"excluded {estimate.degenerate_count} degenerate replicate(s)")
    print(f"H_null = {estimate.mean_H:.12g} +/- {estimate.std_error:.12g} "
          f"({estimate.replicates} replicates)")
    return 0


def cmd_stabilization(args) -> int:
    config = PoissonConfig(intensity=args.intensity, radius=max(args.R_grid), seed=args.seed)
    report = check_bin_stabilization(config, args.R_grid, args.reps)
    header = ("R", "mean_abs_log_dmax_gap", "mean_log_dmin", "mean_dmin", "stderr_dmin")
    rows = list(zip(report.radii, report.mean_abs_log_dmax_gap,
                    report.mean_log_dmin, report.mean_dmin, report.stderr_dmin))
    _emit(args, "stabilization_report", report.to_dict(), header, rows)
    for radius, gap, _, d_min, _ in rows:
        print(f"R = {radius:g}: mean |d log d_max| = {gap:.6g}, mean d_min = {d_min:.6g}")
    return 0


def cmd_cramer(args) -> int:
    M = _check_bins(args.M)
    base = args.base if args.base is not None else args.N / 2
    return _emit_report(args, cramer_entropy(CramerConfig(N=args.N, seed=args.seed),
                                             base, args.R, M))


def cmd_stability(args) -> int:
    M = _check_bins(args.M)
    radii = _check_radii(args.p, args.R_grid)
    table = _prime_table(args, args.p - radii[-1], args.p + radii[-1])
    profile = stability_profile(args.p, M, radii, table)
    rows = list(zip(profile.radii, profile.H_values, profile.envelope))
    _emit(args, "stability_profile", profile.to_dict(), ("R", "H", "tail_envelope"), rows)
    for radius, h, env in rows:
        print(f"R = {radius:g}: H = {h:.12g} (tail envelope {env:.3e})")
    return 0


def cmd_deviation(args) -> int:
    M = _check_bins(args.M)
    _check_window(args.p, args.R)
    _check_replicates(args.reps)
    if args.intensity is not None:
        null_config = PoissonConfig(intensity=args.intensity, radius=args.R, seed=args.seed)
    else:
        null_config = matched_null_config(args.p, args.R, args.seed)
    table = _prime_table(args, args.p - args.R, args.p + args.R)
    profile = deviation_profile(args.p, M, args.R, table, null_config, args.reps)
    header = ("p", "M", "R", "H", "null_mean", "null_stderr", "delta", "z_score")
    row = (profile.base_point, profile.M, profile.radius, profile.H_prime,
           profile.null_mean, profile.null_stderr, profile.delta, profile.z_score)
    _emit(args, "deviation_profile", profile.to_dict(), header, [row])
    z = "undefined" if profile.z_score is None else f"{profile.z_score:.6g}"
    print(f"delta = {profile.delta:.12g} (H = {profile.H_prime:.12g}, "
          f"null = {profile.null_mean:.12g} +/- {profile.null_stderr:.12g}, z = {z})")
    return 0


def cmd_ensemble(args) -> int:
    M, lo, hi, baseline = _check_ensemble_args(args.m, args.samples, args.range, args.R,
                                               args.M, args.hist_bins, args.center)
    table = _prime_table(args, lo - args.R, hi + args.R)
    dist = ensemble_distribution(args.m, args.samples, (lo, hi), args.R, M,
                                 args.seed, table, center=args.center, baseline=baseline,
                                 hist_bins=args.hist_bins)
    rows = [(i + 1, h) for i, h in enumerate(dist.samples)]
    _emit(args, "ensemble_distribution", dist.to_dict(), ("sample", "H"), rows)
    median = dist.quantiles[QUANTILE_LEVELS.index(0.5)]
    print(f"median H = {median:.12g}, IQR = {dist.iqr:.12g} ({len(dist.samples)} samples)")
    return 0


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parsing leaves it unchanged."""
    return build_parser()


def main(argv: Sequence[str] | None = None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    if args.threads is not None and args.threads < 1:
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
