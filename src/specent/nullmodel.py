"""Homogeneous Poisson null model for log-distance entropy.

A realization is the cumulative sum of i.i.d. exponential gaps starting at
the conditioned point 0, truncated at radius ``R``; since 0 belongs to the
process, distances to the origin are exactly the points themselves.

Replicate ``i`` of a run with base seed ``s`` draws from the Philox
sub-stream ``spawn_key=(i,)`` of ``s`` (see :mod:`specent.rng`), so
estimates are reproducible and independent of thread count.
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

from .distances import DistanceMultiset
from .entropy import EntropyReport, full_pipeline
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


def simulate_poisson_distances(config: PoissonConfig, replicate: int = 0) -> DistanceMultiset:
    """One realization of the truncated Poisson log-distance configuration.

    Gaps are drawn in chunks sized from the expected count; the chunking
    policy is a pure function of the configuration, so the realization is
    bit-reproducible from ``(seed, replicate)``.
    """
    rng = generator(config.seed, replicate)
    lam = config.intensity
    R = config.radius
    expected = lam * R
    chunk = int(expected + 10.0 * math.sqrt(expected)) + 16
    follow_up = max(16, chunk // 4)
    total = 0.0
    parts = []
    while True:
        gaps = rng.exponential(scale=1.0 / lam, size=chunk)
        cum = total + np.cumsum(gaps)
        parts.append(cum)
        total = float(cum[-1])
        if total > R:
            break
        chunk = follow_up
    points = np.concatenate(parts) if len(parts) > 1 else parts[0]
    points = points[points <= R]
    return DistanceMultiset(values=points, radius=float(R), base_points=(0.0,))


def null_entropy_once(config: PoissonConfig, M: int, replicate: int = 0) -> EntropyReport:
    """Full pipeline applied to a single simulated realization."""
    dm = simulate_poisson_distances(config, replicate)
    provenance = {
        "model": "poisson",
        "lambda": float(config.intensity),
        "R": float(config.radius),
        "seed": int(config.seed),
        "replicate": int(replicate),
    }
    return full_pipeline(dm, M, provenance=provenance)


def estimate_null_entropy(
    M: int,
    config: PoissonConfig,
    replicates: int,
    workers: int | None = None,
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

    results = ordered_map(one, range(replicates), workers)
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
    workers: int | None = None,
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
        v = simulate_poisson_distances(cfg, replicate=i * replicates + j).values
        if v.size == 0:
            raise ConfigurationError(
                f"empty realization at R={radii[i]}; intensity*radius too small"
            )
        return float(v[0]), float(v[-1])

    tasks = [(i, j) for i in range(radii.size) for j in range(replicates)]
    results = ordered_map(extrema, tasks, workers)

    gap_means = np.empty(radii.size)
    log_dmin_means = np.empty(radii.size)
    dmin_means = np.empty(radii.size)
    dmin_stderr = np.empty(radii.size)
    for i, R in enumerate(radii):
        block = results[i * replicates : (i + 1) * replicates]
        d_min = np.asarray([b[0] for b in block])
        d_max = np.asarray([b[1] for b in block])
        gap_means[i] = float(np.mean(np.abs(np.log(d_max) - math.log(R))))
        log_dmin_means[i] = float(np.mean(np.log(d_min)))
        dmin_means[i] = float(np.mean(d_min))
        dmin_stderr[i] = float(np.std(d_min, ddof=1) / math.sqrt(d_min.size))
    return StabilizationReport(
        intensity=float(config.intensity),
        seed=int(config.seed),
        replicates=int(replicates),
        radii=radii,
        mean_abs_log_dmax_gap=gap_means,
        mean_log_dmin=log_dmin_means,
        mean_dmin=dmin_means,
        stderr_dmin=dmin_stderr,
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
