"""Homogeneous Poisson null model for log-distance entropy.

Conditioned on a point at 0, the distances are a rate-``lambda`` Poisson
process on ``(0, R]``: in units of ``1/lambda``, a unit-rate one on
``(0, L]`` with ``L = lambda R``.  Splitting it (restriction and
independence of a Poisson process; Kingman, *Poisson Processes*, 1993) puts
the nearest point at ``E1`` and the farthest at ``L - E2``, for independent
standard exponentials ``E1`` and ``E2``.  ``E1 > L`` leaves no point and
``E1 >= L - E2`` one; otherwise log bin ``j`` of the ``M`` between the two
holds ``Poisson(width_j)`` more points, independently, plus the nearest in
the first bin and the farthest in the last.  So ``lambda`` and ``R`` matter
only through ``L``.

Replicate ``i`` is row ``i mod B`` of block ``i // B``, ``B = max(1,
_STREAM_BLOCK // M)``, which ``generator(seed, i // B)`` draws: all ``B``
rows of exponentials, then the counts row by row.  Stabilization cells are
the rows of blocks of ``_STREAM_BLOCK // 2`` extrema.
"""

from __future__ import annotations

import json
import math
import os
import sys
from dataclasses import dataclass, replace
from importlib import resources
from pathlib import Path
from typing import Sequence

import numpy as np

from ._json import as_json, write_json
from .binning import _check_bins
from .distances import _check_radii
from .entropy import EntropyReport, _count_entropy, entropy_from_counts
from .errors import (
    ConfigurationError,
    DegenerateRangeError,
    EmptyDistancesError,
    InvalidArgumentError,
)
from .rng import generator

BASELINE_ENV_VAR = "SPECENT_NULL_BASELINE"
_BASELINE_RESOURCE = "null_baseline_M50.json"
# The fields of null_baseline.schema.json besides format_version: integers
# with their least value, and numbers, which must be positive.
_BASELINE_INTEGERS = {"M": 2, "replicates": 2, "seed": None}
_BASELINE_NUMBERS = ("mean", "stderr", "lambda", "R")

# Values in one block of a null stream: rows x M counts, or rows x 2 extrema
# for the stabilization scan.  Changing it changes every null stream.
_STREAM_BLOCK = 2**15

# Fraction of degenerate replicates tolerated before an estimate aborts.
_DEGENERATE_TOLERANCE = 0.01

# Largest supported expected point count ``intensity * radius``; numpy's
# Poisson sampler rejects means above about 9.2e18.
MAX_LAMBDA_R = 1e18

# Largest number of replicates (or ensemble samples) one call draws, checked
# before anything is allocated for them.
MAX_REPLICATES = 10**7


@dataclass(frozen=True)
class PoissonConfig:
    """Intensity (points per unit length), truncation radius, and RNG seed."""

    intensity: float
    radius: float
    seed: int

    def __post_init__(self):
        for name in ("intensity", "radius"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise InvalidArgumentError(f"{name} must be positive and finite, got {value}")
        if self.intensity * self.radius > MAX_LAMBDA_R:
            raise InvalidArgumentError(
                f"intensity*radius must be at most {MAX_LAMBDA_R:g}, "
                f"got {self.intensity * self.radius:g}"
            )


@dataclass(frozen=True)
class NullEstimate:
    """Monte Carlo estimate of the null-model entropy at resolution ``M``."""

    M: int
    mean_H: float
    std_error: float
    replicates: int
    per_replicate_H: np.ndarray
    intensity: float
    radius: float
    seed: int
    degenerate_count: int = 0

    def to_dict(self) -> dict:
        return as_json(self, rename={"intensity": "lambda", "radius": "R"})


@dataclass(frozen=True)
class StabilizationReport:
    """Bin-extrema statistics across a grid of truncation radii."""

    intensity: float
    seed: int
    replicates: int
    radii: np.ndarray
    mean_abs_log_dmax_gap: np.ndarray
    mean_log_dmin: np.ndarray
    mean_dmin: np.ndarray
    stderr_dmin: np.ndarray

    def to_dict(self) -> dict:
        return as_json(self, rename={"intensity": "lambda"})


def _block_extrema(seed: int, block: int, rows: int, stop: int, scale: float = 1.0):
    """``generator(seed, block)`` after it draws a block of ``rows`` extrema
    rows, and the ``E1 / scale`` and ``E2 / scale`` columns of its first
    ``stop``.  A nearest point drawn at exactly 0 (about 2**-53 a row) is
    read as the least normal double, which keeps every log finite."""
    rng = generator(seed, block)
    e1, e2 = (rng.standard_exponential((rows, 2))[:stop] / scale).T
    return rng, np.maximum(e1, sys.float_info.min), e2


def _null_block(config: PoissonConfig, M: int, block: int, stop: int):
    """Rows ``< stop`` of null block ``block``: the counts of those with two
    points or more, which rows those are, and which have none.  Every step
    after the block's exponentials is row by row, so ``stop`` changes no
    row it keeps."""
    L = config.intensity * config.radius
    rng, e1, e2 = _block_extrema(config.seed, block, max(1, _STREAM_BLOCK // M), stop)
    far = L - e2
    kept = e1 < far
    lo = np.log(e1[kept])
    step = (np.log(far[kept]) - lo) / M
    widths = np.exp(lo[:, None] + step[:, None] * np.arange(M)) * np.expm1(step)[:, None]
    counts = rng.poisson(widths)
    counts[:, 0] += 1
    counts[:, -1] += 1
    return counts, kept, e1 > L


def null_entropy_once(config: PoissonConfig, M: int, replicate: int = 0) -> EntropyReport:
    """Entropy of one replicate, from its bin counts drawn exactly; raises
    EmptyDistancesError or DegenerateRangeError for a degenerate one."""
    M = _check_bins(M)
    block, row = divmod(replicate, max(1, _STREAM_BLOCK // M))
    counts, kept, empty = _null_block(config, M, block, row + 1)
    if empty[row]:
        raise EmptyDistancesError(f"empty realization at R={config.radius}")
    if not kept[row]:
        raise DegenerateRangeError("1 point(s) with equal log distances")
    w, H = _count_entropy(counts[-1])
    provenance = {"radius": float(config.radius), "count": int(counts[-1].sum()),
                  "model": "poisson", "lambda": float(config.intensity),
                  "R": float(config.radius), "seed": int(config.seed),
                  "replicate": int(replicate)}
    return EntropyReport(H=float(H), weights=w, M=int(w.size), provenance=provenance)


def _check_replicates(replicates: int) -> None:
    if replicates < 2:
        raise InvalidArgumentError(f"need at least 2 replicates, got {replicates}")
    if replicates > MAX_REPLICATES:
        raise InvalidArgumentError(f"replicates must be at most {MAX_REPLICATES}, got {replicates}")


def estimate_null_entropy(M: int, config: PoissonConfig, replicates: int) -> NullEstimate:
    """Mean and standard error of the null entropy over seeded replicates.

    Degenerate realizations (empty, or with a single distinct value) are
    never resampled -- resampling would bias the estimator.  They are
    excluded and counted; more than 1% of them aborts with a configuration
    error, the sign that ``intensity * radius`` is too small.
    """
    _check_replicates(replicates)
    M = _check_bins(M)
    rows = max(1, _STREAM_BLOCK // M)
    blocks = (_null_block(config, M, b, min(rows, replicates - start))[0]
              for b, start in enumerate(range(0, replicates, rows)))
    values = np.concatenate([entropy_from_counts(c) if c.size else np.empty(0) for c in blocks])
    degenerate = replicates - values.size
    if degenerate > _DEGENERATE_TOLERANCE * replicates or values.size < 2:
        raise ConfigurationError(f"{degenerate} of {replicates} replicates degenerate; intensity"
                                 f"*radius = {config.intensity * config.radius} is too small")
    return NullEstimate(
        M=int(M),
        mean_H=float(np.mean(values)),
        std_error=float(np.std(values, ddof=1) / math.sqrt(values.size)),
        replicates=int(values.size),
        per_replicate_H=values,
        intensity=float(config.intensity),
        radius=float(config.radius),
        seed=int(config.seed),
        degenerate_count=int(degenerate),
    )


def check_bin_stabilization(config: PoissonConfig, radii: Sequence[float],
                            replicates: int) -> StabilizationReport:
    """Sample extrema behavior across a non-decreasing radius grid.

    Per radius, reports the sample mean of ``|log d_max - log R|`` (expected
    to shrink as R grows) and the location of ``d_min`` (expected to stay
    put near ``1/intensity``).  Replicate ``j`` at grid index ``i`` is cell
    ``i * replicates + j`` of the stabilization blocks, keeping every cell
    independent and reproducible.  An empty cell raises ConfigurationError.
    """
    _check_replicates(replicates)
    if len(radii) * replicates > MAX_REPLICATES:
        raise InvalidArgumentError(f"radii x replicates must be at most {MAX_REPLICATES}, "
                                   f"got {len(radii)} x {replicates}")
    for r in radii:  # each radius checked as a config
        replace(config, radius=float(r))
    radii = _check_radii(0.0, radii)  # the process is conditioned on a point at 0
    cells, rows = radii.size * replicates, _STREAM_BLOCK // 2
    d_min, back = np.concatenate([
        np.stack(_block_extrema(config.seed, block, rows, cells - start, config.intensity)[1:])
        for block, start in enumerate(range(0, cells, rows))
    ], axis=1).reshape(2, radii.size, replicates)
    empty = np.flatnonzero(d_min > radii[:, None])
    if empty.size:
        raise ConfigurationError(f"empty realization at R={radii[empty[0] // replicates]}; "
                                 "intensity*radius too small")
    # A single point is the farthest as well as the nearest.
    log_dmin, log_dmax = np.log(d_min), np.log(np.maximum(radii[:, None] - back, d_min))
    return StabilizationReport(
        intensity=float(config.intensity),
        seed=int(config.seed),
        replicates=int(replicates),
        radii=radii,
        mean_abs_log_dmax_gap=np.abs(log_dmax - np.log(radii)[:, None]).mean(axis=1),
        mean_log_dmin=log_dmin.mean(axis=1),
        mean_dmin=d_min.mean(axis=1),
        stderr_dmin=d_min.std(axis=1, ddof=1) / math.sqrt(replicates),
    )


@dataclass(frozen=True)
class NullBaseline:
    """Shipped reference value of the large-R null entropy at resolution M."""

    M: int
    mean: float
    stderr: float
    intensity: float
    radius: float
    replicates: int
    seed: int

    def to_dict(self) -> dict:
        return as_json(self, rename={"intensity": "lambda", "radius": "R"}, format_version=1)


def baseline_from_estimate(estimate: NullEstimate) -> NullBaseline:
    return NullBaseline(
        M=estimate.M,
        mean=estimate.mean_H,
        stderr=estimate.std_error,
        intensity=estimate.intensity,
        radius=estimate.radius,
        replicates=estimate.replicates,
        seed=estimate.seed,
    )


def write_baseline(baseline: NullBaseline, path: str | Path) -> None:
    write_json(path, baseline.to_dict())


def load_null_baseline(path: str | Path | None = None) -> NullBaseline:
    """Load the null baseline table.

    Resolution order: explicit ``path`` argument, the ``SPECENT_NULL_BASELINE``
    environment variable, then the versioned file shipped with the package.
    A file that cannot be read, is not JSON, lacks a field, has a field the
    schema does not list or breaks the schema's rule for one raises
    InvalidArgumentError naming it.
    """
    if path is None:
        path = os.environ.get(BASELINE_ENV_VAR)
    source = (resources.files("specent.data").joinpath(_BASELINE_RESOURCE)
              if path is None else Path(path))
    try:
        payload = json.loads(source.read_text("utf-8"))
        fields = {key: payload[key]
                  for key in ("format_version", *_BASELINE_INTEGERS, *_BASELINE_NUMBERS)}
        unknown = sorted(set(payload) - set(fields))
    except KeyError as exc:
        raise InvalidArgumentError(f"null baseline {source} has no {exc} field") from None
    except (OSError, ValueError, TypeError) as exc:
        raise InvalidArgumentError(f"cannot read null baseline {source}: {exc}") from None
    if unknown:
        raise InvalidArgumentError(f"null baseline {source} has an unknown field {unknown[0]!r}")
    fields = {key: _schema_value(source, key, value) for key, value in fields.items()}
    return NullBaseline(M=fields["M"], mean=fields["mean"], stderr=fields["stderr"],
                        intensity=fields["lambda"], radius=fields["R"],
                        replicates=fields["replicates"], seed=fields["seed"])


def _schema_value(source, key: str, value):
    """A baseline file's field ``key`` as an int or float, if the schema allows it.

    JSON reads ``1e400`` as inf and ``true`` as a bool, and an integral
    float such as ``50.0`` is a schema integer; a bool is never a number.
    """
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if key == "format_version":
        if type(value) is int and value == 1:
            return value
        rule = "1"
    elif key in _BASELINE_INTEGERS:
        least = _BASELINE_INTEGERS[key]
        if type(value) is int and (least is None or value >= least):
            return value
        rule = "an integer" if least is None else f"an integer of at least {least}"
    else:
        # An int past float's range compares exactly and fails the cap.
        if type(value) in (int, float) and 0 < value <= sys.float_info.max:
            return float(value)
        rule = "a finite positive number"
    raise InvalidArgumentError(f"null baseline {source} field {key} must be {rule}, got {value!r}")
