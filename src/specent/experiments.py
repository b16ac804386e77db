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

from ._json import as_json
from .binning import MAX_BINS, _check_bins, _integer_thresholds, log_bin_counts
from .distances import _check_radii, _check_window, pooled_distances, truncated_distances
from .entropy import _entropy_of_rows, full_pipeline
from .errors import InvalidArgumentError
from .nullmodel import (
    MAX_REPLICATES,
    NullBaseline,
    NullEstimate,
    PoissonConfig,
    estimate_null_entropy,
    load_null_baseline,
)
from .primes import _MAX_SPAN, PrimeTable
from .rng import _substreams

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
        return as_json(self)


@dataclass(frozen=True)
class DeviationProfile:
    """Finite-R snapshot of the entropy gap to a matched Poisson null;
    ``z_score`` is None when the null's standard error is 0."""

    base_point: float
    M: int
    radius: float
    H_prime: float
    null_mean: float
    null_stderr: float
    delta: float
    z_score: float | None
    null_intensity: float
    null_seed: int
    null_replicates: int

    def to_dict(self) -> dict:
        return as_json(self, rename={"radius": "R", "null_intensity": "null_lambda"})


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
        return as_json(self, rename={"radius": "R"}, quantile_levels=QUANTILE_LEVELS)


def stability_profile(
    p: float,
    M: int,
    radii: Sequence[float],
    table: PrimeTable,
) -> StabilityProfile:
    """Entropy of the configuration around ``p`` at every radius in the grid,
    bit-identical to :func:`full_pipeline` of each :func:`truncated_distances`."""
    radii = _check_radii(p, radii)
    M = _check_bins(M)

    def counts_at(i: int) -> np.ndarray:
        return log_bin_counts(pooled_distances([p], table, radii[i]), M)[0]

    H = _entropy_of_rows(counts_at, radii.size, M)
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

    :func:`matched_null_config` builds a null at the same ``R`` with the
    local prime density ``1 / log p`` as its intensity.  Its sizes do not
    match: the null draws distances on one side, ``(0, R]``, so it holds
    about ``R / log p`` of them, while the two-sided prime window
    ``[p - R, p + R]`` holds about ``2 R / log p``.  The null mean moves with
    that size (ROADMAP item 3).
    """
    H_prime = full_pipeline(truncated_distances(p, table, R), M).H
    estimate: NullEstimate = estimate_null_entropy(M, null_config, replicates)
    delta = H_prime - estimate.mean_H
    # At M = 2 every H is log 2, so the standard error is 0 and z undefined.
    z = float(delta / estimate.std_error) if estimate.std_error > 0 else None
    return DeviationProfile(
        base_point=float(p),
        M=int(M),
        radius=float(R),
        H_prime=float(H_prime),
        null_mean=float(estimate.mean_H),
        null_stderr=float(estimate.std_error),
        delta=float(delta),
        z_score=z,
        null_intensity=float(null_config.intensity),
        null_seed=int(null_config.seed),
        null_replicates=int(estimate.replicates),
    )


def matched_null_config(p: float, R: float, seed: int) -> PoissonConfig:
    """Poisson config with intensity ``1 / log p`` (local density at ``p``).

    Its one-sided window ``(0, R]`` holds about ``R / log p`` points, half the
    ``2 R / log p`` distances of the two-sided prime window around ``p``, so
    the two counts are not matched (ROADMAP item 3).
    """
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
    table unless ``baseline`` is given), which must be at the same ``M``;
    per-sample centering is not applied.
    ``table`` must cover ``prime_range``, or the candidates would silently
    be fewer than the primes in it; a base's window ``[p - R, p + R]`` is
    checked only once a sample draws it.  Each sample is reduced to its
    ``M`` log-bin counts, which go through :func:`entropy_from_counts` like
    the rows of the Poisson null and the stability grid.  Blocks of
    samples count them in the table where :func:`_prefix_counts` can, and
    bin the pooled distances elsewhere; every sample equals the
    :func:`full_pipeline` entropy of its :func:`aggregate_distances` bit for
    bit, and the first that fails raises what that pipeline raises.
    """
    M, lo, hi, baseline = _check_ensemble_args(m, sample_count, prime_range, R, M, hist_bins,
                                               center, baseline)
    candidates = table.between(lo, hi)
    if candidates.size < m:
        raise InvalidArgumentError(
            f"only {candidates.size} primes in [{lo}, {hi}], need at least {m}"
        )
    baseline_mean = float(baseline.mean) if center else None

    at = _substreams(seed)

    def draw(i: int) -> np.ndarray:
        return at(i).choice(candidates, size=m, replace=False)

    def block_counts(draws: list) -> np.ndarray:
        counts, held = _prefix_counts(np.stack(draws), table, R, M)
        for j in np.flatnonzero(~held):
            counts[j] = log_bin_counts(pooled_distances(draws[j], table, R), M)[0]
        return counts

    samples = _entropy_of_rows(draw, sample_count, max(M, m * (M - 1)), block_counts)
    if center:
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


def _check_ensemble_args(m, sample_count, prime_range, R, M, hist_bins, center=False,
                         baseline=None) -> tuple:
    """Checked ``(M, lo, hi, baseline)`` of :func:`ensemble_distribution`'s
    arguments; every base lies in ``[lo, hi]``, so its window passes
    :func:`_check_window` once both ends' do.  A sample's ``m`` windows may
    span at most the ``2**30`` integers a prime table may.  With ``center``
    the baseline is resolved (the shipped table unless given) and must be at
    ``M``."""
    if m < 1:
        raise InvalidArgumentError(f"m must be at least 1, got {m}")
    if not 1 <= sample_count <= MAX_REPLICATES:
        raise InvalidArgumentError(
            f"sample_count must be at least 1 and at most {MAX_REPLICATES}, got {sample_count}"
        )
    M = _check_bins(M)
    if not 1 <= hist_bins <= MAX_BINS:
        raise InvalidArgumentError(
            f"hist_bins must be at least 1 and at most {MAX_BINS}, got {hist_bins}"
        )
    lo, hi = float(prime_range[0]), float(prime_range[1])
    if not lo < hi:
        raise InvalidArgumentError(f"invalid prime range [{lo}, {hi}]")
    for end in (lo, hi):
        _check_window(end, R)
    if m * (2 * R + 1) > _MAX_SPAN:
        raise InvalidArgumentError(
            f"ensemble windows span m (2R + 1) = {m * (2 * R + 1):.3g} integers per "
            "sample; a sample pools at most 2**30"
        )
    if center:
        baseline = load_null_baseline() if baseline is None else baseline
        if baseline.M != M:
            raise InvalidArgumentError(f"the null baseline is at M = {baseline.M}, "
                                       f"but the ensemble is at M = {M}")
    return M, lo, hi, baseline


def _prefix_counts(bases: np.ndarray, table: PrimeTable, R: float, M: int):
    """Log-bin counts of the pooled distances around each row of ``bases``,
    counted in the table, and which rows they hold.

    A row's extrema are its bases' nearest-neighbour gaps and reaches; its
    distances below each :func:`_integer_thresholds` value are the primes
    that close to each base, one ``searchsorted`` for all, which lands in
    the base's window since a held row's thresholds are at most its
    ``d_max <= R``.  No row holds if the windows hold on average at most the
    ``2 (M - 1)`` lookups a base costs; nor does one with an uncovered
    window, no distances, equal-log extrema or a failed threshold search.
    """
    n, m = bases.shape
    counts = np.zeros((n, M), dtype=np.int64)
    lo, hi = bases - R, bases + R
    start, stop = table.bounds(lo, hi)
    if not (R > 0 and 2 * (M - 1) < (stop - start).mean()):
        return counts, np.zeros(n, dtype=bool)
    # With R > 0 every base, a listed prime, lies in its window: start <= k < stop.
    primes = table.primes
    k = primes.searchsorted(bases)
    gaps = np.stack([bases - primes[np.maximum(k - 1, start)],
                     primes[np.minimum(k + 1, stop - 1)] - bases])
    d_min = np.where(gaps > 0, gaps, np.iinfo(np.int64).max).min(axis=(0, 2))
    d_max = np.maximum(bases - primes[start], primes[stop - 1] - bases).max(axis=1)
    log_min = np.array([math.log(d) for d in d_min.astype(np.float64).tolist()])
    log_max = np.array([math.log(d) for d in np.maximum(d_max, 1).astype(np.float64).tolist()])
    held = table.covers(lo, hi).all(axis=1) & (d_max > 0) & (log_min != log_max)
    rows = np.flatnonzero(held)
    thresholds, held[rows] = _integer_thresholds(d_min[rows], log_min[rows], log_max[rows], M)
    P, T = bases[rows][:, :, None], thresholds[:, None, :]
    below = primes.searchsorted(P + T, side="left") - primes.searchsorted(P - T, side="right")
    total = (stop - start)[rows].sum(axis=1) - m
    counts[rows] = np.diff(below.sum(axis=1) - m, prepend=0, append=total[:, None])
    return counts, held
