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
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, replace
from importlib import resources
from pathlib import Path
from typing import Sequence

import numpy as np

from .binning import _check_bins, _from_counts
from .entropy import EntropyReport, _binned_entropy
from .errors import (
    ConfigurationError,
    DegenerateRangeError,
    EmptyDistancesError,
    InvalidArgumentError,
)
from .parallel import ordered_map
from .rng import generator

BASELINE_ENV_VAR = "SPECENT_NULL_BASELINE"
_BASELINE_RESOURCE = "null_baseline_M50.json"

# Fraction of degenerate replicates tolerated before an estimate aborts.
_DEGENERATE_TOLERANCE = 0.01

# Largest supported expected point count ``intensity * radius``; numpy's
# Poisson sampler rejects means above about 9.2e18.
MAX_LAMBDA_R = 1e18


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
        return {
            "M": int(self.M),
            "mean_H": float(self.mean_H),
            "std_error": float(self.std_error),
            "replicates": int(self.replicates),
            "per_replicate_H": self.per_replicate_H.tolist(),
            "lambda": float(self.intensity),
            "R": float(self.radius),
            "seed": int(self.seed),
            "degenerate_count": int(self.degenerate_count),
        }


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
        return {
            "lambda": float(self.intensity),
            "seed": int(self.seed),
            "replicates": int(self.replicates),
            "radii": self.radii.tolist(),
            "mean_abs_log_dmax_gap": self.mean_abs_log_dmax_gap.tolist(),
            "mean_log_dmin": self.mean_log_dmin.tolist(),
            "mean_dmin": self.mean_dmin.tolist(),
            "stderr_dmin": self.stderr_dmin.tolist(),
        }


def _extrema(config: PoissonConfig, replicate: int):
    """Draw replicate ``replicate``'s point count and extrema.

    Returns the replicate's generator (positioned after the draws), the
    count ``n``, ``log d_max`` and ``log(d_max / d_min)``; a single point
    gives a zero log ratio.
    """
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
    M = _check_bins(M)
    rng, n, log_max, log_ratio = _extrema(config, replicate)
    if log_ratio == 0.0:
        raise DegenerateRangeError(f"{n} point(s) with equal log distances")
    weights = np.exp(log_ratio * (np.arange(1, M + 1) - M) / M)
    counts = rng.multinomial(n - 2, weights / weights.sum())
    counts[0] += 1
    counts[-1] += 1
    provenance = {"radius": float(config.radius), "count": n, "model": "poisson",
                  "lambda": float(config.intensity), "R": float(config.radius),
                  "seed": int(config.seed), "replicate": int(replicate)}
    binning = _from_counts(counts, log_max - log_ratio, log_max)
    return _binned_entropy(binning, provenance=provenance)


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
    if replicates < 2:
        raise InvalidArgumentError(f"need at least 2 replicates, got {replicates}")

    def one(i: int) -> float | None:
        try:
            return null_entropy_once(config, M, replicate=i).H
        except (EmptyDistancesError, DegenerateRangeError):
            return None

    results = ordered_map(one, range(replicates))
    values = np.asarray([h for h in results if h is not None], dtype=np.float64)
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
    """Sample extrema behavior across an increasing radius grid.

    Per radius, reports the sample mean of ``|log d_max - log R|`` (expected
    to shrink as R grows) and the location of ``d_min`` (expected to stay
    put near ``1/intensity``).  Replicate ``j`` at grid index ``i`` uses the
    flattened sub-stream index ``i * replicates + j``, keeping every cell
    independent and reproducible.
    """
    radii = np.asarray(sorted(float(r) for r in radii), dtype=np.float64)
    if radii.size < 1:
        raise InvalidArgumentError("need at least one radius")
    if replicates < 2:
        raise InvalidArgumentError(f"need at least 2 replicates, got {replicates}")

    def extrema(task: tuple[int, int]) -> tuple[float, float]:
        i, j = task
        cfg = replace(config, radius=float(radii[i]))
        try:
            _, _, log_max, log_ratio = _extrema(cfg, i * replicates + j)
        except EmptyDistancesError as exc:
            raise ConfigurationError(f"{exc}; intensity*radius too small") from None
        return log_max - log_ratio, log_max

    tasks = [(i, j) for i in range(radii.size) for j in range(replicates)]
    logs = np.asarray(ordered_map(extrema, tasks)).reshape(radii.size, replicates, 2)
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
        return {
            "format_version": 1,
            "M": int(self.M),
            "mean": float(self.mean),
            "stderr": float(self.stderr),
            "lambda": float(self.intensity),
            "R": float(self.radius),
            "replicates": int(self.replicates),
            "seed": int(self.seed),
        }


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
    with Path(path).open("w", encoding="utf-8") as handle:
        json.dump(baseline.to_dict(), handle, indent=2, sort_keys=True)
        handle.write("\n")


def load_null_baseline(path: str | Path | None = None) -> NullBaseline:
    """Load the null baseline table.

    Resolution order: explicit ``path`` argument, the ``SPECENT_NULL_BASELINE``
    environment variable, then the versioned file shipped with the package.
    """
    if path is None:
        path = os.environ.get(BASELINE_ENV_VAR)
    if path is None:
        payload = json.loads(
            resources.files("specent.data").joinpath(_BASELINE_RESOURCE).read_text("utf-8")
        )
    else:
        payload = json.loads(Path(path).read_text("utf-8"))
    return NullBaseline(
        M=int(payload["M"]),
        mean=float(payload["mean"]),
        stderr=float(payload["stderr"]),
        intensity=float(payload["lambda"]),
        radius=float(payload["R"]),
        replicates=int(payload["replicates"]),
        seed=int(payload["seed"]),
    )
