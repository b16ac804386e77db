"""Numerical probes: entropy stability in R, deviation from the Poisson
baseline, and ensemble entropy distributions over random prime multisets.

These are finite-sample characterizations only; none of them claims a
limit.  Outputs carry enough provenance to re-run them exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .binning import MAX_BINS
from .distances import aggregate_distances, truncated_distances
from .entropy import full_pipeline
from .errors import InvalidArgumentError
from .nullmodel import (
    NullBaseline,
    NullEstimate,
    PoissonConfig,
    estimate_null_entropy,
    load_null_baseline,
)
from .parallel import ordered_map
from .primes import PrimeTable
from .rng import generator

QUANTILE_LEVELS = (0.05, 0.25, 0.50, 0.75, 0.95)


@dataclass(frozen=True)
class StabilityProfile:
    """Entropy along an increasing radius grid, with tail envelopes.

    ``envelope[i]`` is the largest pairwise entropy difference among grid
    points with radius at least ``radii[i]``; it is non-increasing in ``i``
    by construction.
    """

    base_point: float
    M: int
    radii: np.ndarray
    H_values: np.ndarray
    envelope: np.ndarray

    def to_dict(self) -> dict:
        return {
            "base_point": float(self.base_point),
            "M": int(self.M),
            "radii": self.radii.tolist(),
            "H_values": self.H_values.tolist(),
            "envelope": self.envelope.tolist(),
        }


@dataclass(frozen=True)
class DeviationProfile:
    """Finite-R snapshot of the entropy gap to a matched Poisson null."""

    base_point: float
    M: int
    radius: float
    H_prime: float
    null_mean: float
    null_stderr: float
    delta: float
    z_score: float
    null_intensity: float
    null_seed: int
    null_replicates: int

    def to_dict(self) -> dict:
        return {
            "base_point": float(self.base_point),
            "M": int(self.M),
            "R": float(self.radius),
            "H_prime": float(self.H_prime),
            "null_mean": float(self.null_mean),
            "null_stderr": float(self.null_stderr),
            "delta": float(self.delta),
            "z_score": float(self.z_score),
            "null_lambda": float(self.null_intensity),
            "null_seed": int(self.null_seed),
            "null_replicates": int(self.null_replicates),
        }


@dataclass(frozen=True)
class EnsembleDistribution:
    """Entropy distribution over random m-subsets of primes in a range."""

    m: int
    samples: np.ndarray
    hist_edges: np.ndarray
    hist_counts: np.ndarray
    quantiles: np.ndarray
    centered: bool
    prime_range: tuple[float, float]
    radius: float
    M: int
    seed: int
    baseline_mean: float | None = None
    centering: str = "global"

    @property
    def iqr(self) -> float:
        return float(self.quantiles[3] - self.quantiles[1])

    def to_dict(self) -> dict:
        return {
            "m": int(self.m),
            "samples": self.samples.tolist(),
            "hist_edges": self.hist_edges.tolist(),
            "hist_counts": self.hist_counts.tolist(),
            "quantile_levels": list(QUANTILE_LEVELS),
            "quantiles": self.quantiles.tolist(),
            "centered": bool(self.centered),
            "centering": self.centering,
            "baseline_mean": None if self.baseline_mean is None else float(self.baseline_mean),
            "prime_range": [float(self.prime_range[0]), float(self.prime_range[1])],
            "R": float(self.radius),
            "M": int(self.M),
            "seed": int(self.seed),
        }


def stability_profile(
    p: float,
    M: int,
    radii: Sequence[float],
    table: PrimeTable,
) -> StabilityProfile:
    """Entropy of the configuration around ``p`` at every radius in the grid."""
    radii = np.asarray([float(r) for r in radii], dtype=np.float64)
    if radii.size < 1:
        raise InvalidArgumentError("need at least one radius")
    if np.any(np.diff(radii) < 0):
        raise InvalidArgumentError("radius grid must be non-decreasing")

    def entropy_at(r: float) -> float:
        return full_pipeline(truncated_distances(p, table, r), M).H

    H = np.asarray(ordered_map(entropy_at, radii), dtype=np.float64)
    # Tail envelope: max pairwise |H_i - H_j| over {radii >= radii[i]} equals
    # the suffix range of H.
    suffix_max = np.maximum.accumulate(H[::-1])[::-1]
    suffix_min = np.minimum.accumulate(H[::-1])[::-1]
    envelope = suffix_max - suffix_min
    return StabilityProfile(
        base_point=float(p), M=int(M), radii=radii, H_values=H, envelope=envelope
    )


def deviation_profile(
    p: float,
    M: int,
    R: float,
    table: PrimeTable,
    null_config: PoissonConfig,
    replicates: int,
) -> DeviationProfile:
    """Entropy gap between the configuration around ``p`` and a Poisson null.

    The null should run at the same ``R`` and ``M`` with intensity matched
    to the local density ``1 / log p`` so point counts are comparable;
    :func:`matched_null_config` builds exactly that.
    """
    H_prime = full_pipeline(truncated_distances(p, table, R), M).H
    estimate: NullEstimate = estimate_null_entropy(M, null_config, replicates)
    delta = H_prime - estimate.mean_H
    z = delta / estimate.std_error if estimate.std_error > 0 else math.inf
    return DeviationProfile(
        base_point=float(p),
        M=int(M),
        radius=float(R),
        H_prime=float(H_prime),
        null_mean=float(estimate.mean_H),
        null_stderr=float(estimate.std_error),
        delta=float(delta),
        z_score=float(z),
        null_intensity=float(null_config.intensity),
        null_seed=int(null_config.seed),
        null_replicates=int(estimate.replicates),
    )


def matched_null_config(p: float, R: float, seed: int) -> PoissonConfig:
    """Poisson config with intensity ``1 / log p`` (local density at ``p``)."""
    if p <= 1:
        raise InvalidArgumentError(f"base point must exceed 1, got {p}")
    return PoissonConfig(intensity=1.0 / math.log(p), radius=float(R), seed=seed)


def ensemble_distribution(
    m: int,
    sample_count: int,
    prime_range: tuple[float, float],
    R: float,
    M: int,
    seed: int,
    table: PrimeTable,
    center: bool = False,
    baseline: NullBaseline | None = None,
    hist_bins: int = 20,
) -> EnsembleDistribution:
    """Entropies of seeded uniform m-subsets of the primes in ``prime_range``.

    Sample ``i`` draws from sub-stream ``spawn_key=(i,)`` of ``seed``, so
    the ensemble is reproducible and order-independent.  With ``center=True``
    every entropy is shifted by one global baseline mean (the shipped null
    table unless ``baseline`` is given); per-sample centering is not applied.
    ``table`` must cover ``prime_range``, or the candidates would silently
    be fewer than the primes in it.
    """
    if m < 1:
        raise InvalidArgumentError(f"m must be at least 1, got {m}")
    if sample_count < 1:
        raise InvalidArgumentError(f"sample_count must be at least 1, got {sample_count}")
    if not 1 <= hist_bins <= MAX_BINS:
        raise InvalidArgumentError(
            f"hist_bins must be at least 1 and at most {MAX_BINS}, got {hist_bins}"
        )
    lo, hi = float(prime_range[0]), float(prime_range[1])
    if not lo < hi:
        raise InvalidArgumentError(f"invalid prime range [{lo}, {hi}]")
    candidates = table.between(lo, hi)
    if candidates.size < m:
        raise InvalidArgumentError(
            f"only {candidates.size} primes in [{lo}, {hi}], need at least {m}"
        )

    def sample_entropy(i: int) -> float:
        rng = generator(seed, i)
        chosen = rng.choice(candidates, size=m, replace=False)
        return full_pipeline(aggregate_distances(chosen, table, R), M).H

    samples = np.asarray(ordered_map(sample_entropy, range(sample_count)))
    baseline_mean = None
    if center:
        if baseline is None:
            baseline = load_null_baseline()
        baseline_mean = float(baseline.mean)
        samples = samples - baseline_mean
    counts, edges = np.histogram(samples, bins=hist_bins)
    quantiles = np.quantile(samples, QUANTILE_LEVELS)
    return EnsembleDistribution(
        m=int(m),
        samples=samples,
        hist_edges=edges,
        hist_counts=counts.astype(np.int64),
        quantiles=quantiles,
        centered=bool(center),
        prime_range=(lo, hi),
        radius=float(R),
        M=int(M),
        seed=int(seed),
        baseline_mean=baseline_mean,
    )
