"""Homogeneous Poisson null model for log-distance entropy.

With the process conditioned on a point at 0, the distances are
``n ~ Poisson(lambda R)`` i.i.d. uniform points on ``(0, R]``.  The entropy
reads only their ``M`` log-bin counts, which are drawn exactly in O(M):
``d_max = R U^(1/n)``; ``d_min = d_max (1 - V^(1/(n-1)))``, the least of
the other points; and the ``n - 2`` points left are uniform between them,
so with ``s = log(d_max / d_min)`` their counts are multinomial with bin
``j`` weighted by ``exp(s j / M)``.  So ``lambda`` and ``R`` matter only
through ``lambda R``.  Replicate ``i`` of base seed ``s`` draws from the
Philox sub-stream ``spawn_key=(i,)`` of ``s`` (see :mod:`specent.rng`).
The replicate loops reach those sub-streams by re-keying one shared
generator per index, which must not be held across items.
A single replicate's counts and the count rows of an estimate go through
the same count kernel of :mod:`specent.entropy`.
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
from .entropy import EntropyReport, _count_entropy, _entropy_of_rows
from .errors import (
    ConfigurationError,
    DegenerateRangeError,
    EmptyDistancesError,
    InvalidArgumentError,
)
from .parallel import ordered_map
from .rng import _substreams, generator

BASELINE_ENV_VAR = "SPECENT_NULL_BASELINE"
_BASELINE_RESOURCE = "null_baseline_M50.json"
# The rules of schemas/v1/null_baseline.schema.json on the fields a baseline
# file is read for: each integer field with its least value (None: any), and
# the number fields, which must be finite and positive.
_BASELINE_INTEGERS = {"M": 2, "replicates": 2, "seed": None}
_BASELINE_NUMBERS = ("mean", "stderr", "lambda", "R")

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


def _extrema(config: PoissonConfig, replicate: int, rng=None):
    """Draw replicate ``replicate``'s point count and extrema.

    ``rng`` is the replicate's sub-stream generator at its start, built
    from ``config.seed`` when not given.  Returns that generator
    (positioned after the draws), the count ``n``, ``log d_max`` and
    ``log(d_max / d_min)``; a single point gives a zero log ratio.
    """
    if rng is None:
        rng = generator(config.seed, replicate)
    n = int(rng.poisson(config.intensity * config.radius))
    if n == 0:
        raise EmptyDistancesError(f"empty realization at R={config.radius}")
    log_max = math.log(config.radius) + math.log1p(-rng.random()) / n
    if n == 1:
        return rng, n, log_max, 0.0
    # log(1 - V^(1/(n-1))) through expm1, which stays exact when n is huge;
    # V = 0 puts d_min at d_max.
    v = rng.random()
    t = math.log(v) / (n - 1) if v > 0 else -math.inf
    return rng, n, log_max, -math.log(-math.expm1(t))


def null_entropy_once(config: PoissonConfig, M: int, replicate: int = 0) -> EntropyReport:
    """Entropy of one replicate, from its bin counts drawn exactly."""
    counts, n = _replicate_counts(config, _check_bins(M), replicate)
    w, H = _count_entropy(counts)
    provenance = {"radius": float(config.radius), "count": n, "model": "poisson",
                  "lambda": float(config.intensity), "R": float(config.radius),
                  "seed": int(config.seed), "replicate": int(replicate)}
    return EntropyReport(H=float(H), weights=w, M=int(w.size), provenance=provenance)


def _replicate_counts(config: PoissonConfig, M: int, replicate: int, rng=None):
    """Replicate ``replicate``'s ``(counts, n)`` over ``M`` bins, drawn from
    ``rng`` as in :func:`_extrema`; raises EmptyDistancesError or
    DegenerateRangeError for a degenerate one."""
    rng, n, _, log_ratio = _extrema(config, replicate, rng)
    if log_ratio == 0.0:
        raise DegenerateRangeError(f"{n} point(s) with equal log distances")
    weights = np.exp(log_ratio * (np.arange(1, M + 1) - M) / M)
    counts = rng.multinomial(n - 2, weights / weights.sum())
    counts[0] += 1
    counts[-1] += 1
    return counts, n


def _check_replicates(replicates: int) -> None:
    if replicates < 2:
        raise InvalidArgumentError(f"need at least 2 replicates, got {replicates}")
    if replicates > MAX_REPLICATES:
        raise InvalidArgumentError(
            f"replicates must be at most {MAX_REPLICATES}, got {replicates}"
        )


def estimate_null_entropy(
    M: int,
    config: PoissonConfig,
    replicates: int,
) -> NullEstimate:
    """Mean and standard error of the null entropy over seeded replicates.

    Degenerate realizations (empty, or with a single distinct value) are
    never resampled -- resampling would bias the estimator.  They are
    excluded and counted; more than 1% of them aborts with a configuration
    error, the sign that ``intensity * radius`` is too small.
    """
    _check_replicates(replicates)
    M = _check_bins(M)
    at = _substreams(config.seed)

    def row(i: int) -> np.ndarray | None:
        try:
            return _replicate_counts(config, M, i, at(i))[0]
        except (EmptyDistancesError, DegenerateRangeError):
            return None

    values = _entropy_of_rows(row, replicates, M)
    degenerate = replicates - values.size
    if degenerate > _DEGENERATE_TOLERANCE * replicates or values.size < 2:
        raise ConfigurationError(
            f"{degenerate} of {replicates} replicates degenerate; "
            f"intensity*radius = {config.intensity * config.radius} is too small"
        )
    mean = float(np.mean(values))
    std_error = float(np.std(values, ddof=1) / math.sqrt(values.size))
    return NullEstimate(
        M=int(M),
        mean_H=mean,
        std_error=std_error,
        replicates=int(values.size),
        per_replicate_H=values,
        intensity=float(config.intensity),
        radius=float(config.radius),
        seed=int(config.seed),
        degenerate_count=int(degenerate),
    )


def check_bin_stabilization(
    config: PoissonConfig,
    radii: Sequence[float],
    replicates: int,
) -> StabilizationReport:
    """Sample extrema behavior across a non-decreasing radius grid.

    Per radius, reports the sample mean of ``|log d_max - log R|`` (expected
    to shrink as R grows) and the location of ``d_min`` (expected to stay
    put near ``1/intensity``).  Replicate ``j`` at grid index ``i`` uses the
    flattened sub-stream index ``i * replicates + j``, keeping every cell
    independent and reproducible.
    """
    _check_replicates(replicates)
    if len(radii) * replicates > MAX_REPLICATES:
        raise InvalidArgumentError(
            f"radii x replicates must be at most {MAX_REPLICATES}, "
            f"got {len(radii)} x {replicates}"
        )
    configs = [replace(config, radius=float(r)) for r in radii]  # each radius checked once
    radii = _check_radii(0.0, radii)  # the process is conditioned on a point at 0
    at = _substreams(config.seed)

    def extrema(k: int) -> tuple[float, float]:
        try:
            _, _, log_max, log_ratio = _extrema(configs[k // replicates], k, at(k))
        except EmptyDistancesError as exc:
            raise ConfigurationError(f"{exc}; intensity*radius too small") from None
        return log_max - log_ratio, log_max

    cells = range(radii.size * replicates)
    logs = np.asarray(ordered_map(extrema, cells)).reshape(radii.size, replicates, 2)
    log_dmin, log_dmax = logs[..., 0], logs[..., 1]
    d_min = np.exp(log_dmin)
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
    A file that cannot be read, is not JSON, lacks a field or breaks the
    schema's rule for one raises InvalidArgumentError naming it.
    """
    if path is None:
        path = os.environ.get(BASELINE_ENV_VAR)
    source = (resources.files("specent.data").joinpath(_BASELINE_RESOURCE)
              if path is None else Path(path))
    try:
        payload = json.loads(source.read_text("utf-8"))
        fields = {key: payload[key] for key in (*_BASELINE_INTEGERS, *_BASELINE_NUMBERS)}
    except KeyError as exc:
        raise InvalidArgumentError(f"null baseline {source} has no {exc} field") from None
    except (OSError, ValueError, TypeError) as exc:
        raise InvalidArgumentError(f"cannot read null baseline {source}: {exc}") from None
    fields = {key: _schema_value(source, key, value) for key, value in fields.items()}
    return NullBaseline(M=fields["M"], mean=fields["mean"], stderr=fields["stderr"],
                        intensity=fields["lambda"], radius=fields["R"],
                        replicates=fields["replicates"], seed=fields["seed"])


def _schema_value(source, key: str, value):
    """A baseline file's field ``key`` as an int or float, if the schema allows it.

    JSON reads ``1e400`` as inf and ``true`` as a bool, and an integral
    float such as ``50.0`` is a schema integer; a bool is never a number.
    """
    if key in _BASELINE_INTEGERS:
        least = _BASELINE_INTEGERS[key]
        if isinstance(value, float) and value.is_integer():
            value = int(value)
        if type(value) is int and (least is None or value >= least):
            return value
        rule = "an integer" if least is None else f"an integer of at least {least}"
    else:
        # An int past float's range compares exactly and fails the cap.
        if type(value) in (int, float) and 0 < value <= sys.float_info.max:
            return float(value)
        rule = "a finite positive number"
    raise InvalidArgumentError(f"null baseline {source} field {key} must be {rule}, got {value!r}")
