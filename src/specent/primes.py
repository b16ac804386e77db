"""Prime generation: one windowed sieve plus first-n selection."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CoverageError, InvalidArgumentError

# Windows are sieved in segments of this span, which bounds memory to a few
# MB regardless of the window length.
_SEGMENT_SPAN = 1 << 22
_MAX_LIMIT = 2**53  # largest coordinate whose integer distances float64 holds exactly
# Most integers one table spans.  Sieving [0, 2**28] took 1.9 s and 317 MB
# peak RSS (2-vCPU Linux VM); [0, 2**30] would take about four times that.
_MAX_SPAN = 2**30


@dataclass(frozen=True)
class PrimeTable:
    """All primes in ``[lo, limit]`` (inclusive), sorted ascending int64.

    ``lo`` is 0 for a table that starts at the beginning of the integers and
    the low end of the sieved window for :func:`primes_in_window`.
    """

    limit: int
    primes: np.ndarray
    lo: int = 0

    def __len__(self) -> int:
        return int(self.primes.size)

    def covers(self, lo, hi):
        """Whether every prime in ``[lo, hi]`` is listed, elementwise over
        arrays of ends.

        No prime lies below 2, so a table starting at or below 2 covers any
        low end.
        """
        return (self.limit >= hi) & ((self.lo <= 2) | (self.lo <= np.ceil(lo)))

    def bounds(self, lo, hi):
        """``(start, stop)`` such that ``primes[start:stop]`` are the listed
        primes in ``[lo, hi]``, elementwise over arrays of ends."""
        # Integer bounds spare casting the int64 table to float64; clamping
        # into [0, limit + 1] (NaN included) keeps them in the int64 range.
        low, high = (np.fmax(np.fmin(end, self.limit + 1), 0) for end in (lo, hi))
        return (self.primes.searchsorted(np.ceil(low).astype(np.int64), side="left"),
                self.primes.searchsorted(np.floor(high).astype(np.int64), side="right"))

    def between(self, lo: float, hi: float) -> np.ndarray:
        """The primes in ``[lo, hi]``; raises ``CoverageError`` unless covered.

        A table short of either end would silently drop primes, which would
        bias every statistic built on the slice.
        """
        if not self.covers(lo, hi):
            raise CoverageError(
                f"prime table [{self.lo}, {self.limit}] does not cover [{lo}, {hi}]"
            )
        start, stop = self.bounds(lo, hi)
        return self.primes[start:stop]


def _flat_sieve(limit: int) -> np.ndarray:
    """All primes ``<= limit`` by one boolean sieve of the odd numbers; the
    window sieve's base primes.

    Index ``i`` stands for ``2 i + 1``; odd multiples of ``p`` from ``p*p``
    on sit ``p`` indices apart.
    """
    if limit < 2:
        return np.empty(0, dtype=np.int64)
    is_prime = np.ones((limit + 1) // 2, dtype=bool)
    is_prime[0] = False  # 1
    for p in range(3, math.isqrt(limit) + 1, 2):
        if is_prime[p // 2]:
            is_prime[p * p // 2 :: p] = False
    return np.concatenate(([2], 2 * np.flatnonzero(is_prime) + 1)).astype(np.int64)


def _mark_composites(mask: np.ndarray, low: int, base: np.ndarray) -> None:
    """Clear ``mask[i]`` for every composite ``low + i`` with a factor in ``base``.

    ``base`` holds every prime up to the square root of the segment's top.
    A base prime clears its multiples from its square on, so base primes
    inside the segment stay set.  A base prime no smaller than the segment
    has at most one multiple in it; those are cleared in one vectorized step.
    """
    span = mask.size
    first = np.maximum((-low) % base, base * base - low)  # offset of the first multiple
    hit = first < span
    single = hit & (base >= span)
    mask[first[single]] = False
    stepped = hit & ~single
    for p, start in zip(base[stepped].tolist(), first[stepped].tolist()):
        mask[start::p] = False


def _sieve_segments(low: int, high: int, base: np.ndarray) -> list:
    """Primes in ``[low, high]`` as a list of int64 chunks, one per segment."""
    chunks = []
    while low <= high:
        end = min(low + _SEGMENT_SPAN, high + 1)  # exclusive
        mask = np.ones(end - low, dtype=bool)
        mask[: max(0, 2 - low)] = False
        _mark_composites(mask, low, base)
        hits = np.flatnonzero(mask)
        if hits.size:
            chunks.append((low + hits).astype(np.int64))
        low = end
    return chunks


def sieve_up_to(limit: int) -> PrimeTable:
    """All primes ``<= limit``: the window ``[0, limit]`` of :func:`primes_in_window`.

    Parameters
    ----------
    limit : int
        Inclusive sieving bound, ``2 <= limit < 2**30``.
    """
    if not 2 <= limit < math.inf:  # NaN included
        raise InvalidArgumentError(f"limit must be at least 2 and finite, got {limit}")
    return primes_in_window(0, int(limit))


def primes_in_window(lo: float, hi: float) -> PrimeTable:
    """All primes in ``[max(lo, 0), hi]`` by a segmented sieve of that window.

    Only the base primes up to ``isqrt(hi)`` and the window itself are
    sieved, so the cost follows the window length rather than ``hi``.  The
    table's ``lo`` and ``limit`` are the window's ends.

    Parameters
    ----------
    lo, hi : float
        Window ends, rounded outward to the integers ``floor(max(lo, 0))``
        and ``ceil(hi)``, which become the table's ``lo`` and ``limit``;
        ``max(lo, 0) <= hi <= 2**53``, and the window spans at most
        ``2**30`` integers.  A ``-inf`` low end is clamped to 0 like any
        negative one; any other end that is not finite is rejected.
    """
    # The caps are checked before any integer conversion, which cannot take inf.
    if hi > _MAX_LIMIT:
        raise InvalidArgumentError(f"prime window end {hi:.6g} exceeds 2**53")
    if not (lo < math.inf and hi > -math.inf):  # NaN included
        raise InvalidArgumentError(f"prime window ends must be finite, got [{lo}, {hi}]")
    lo, hi = math.floor(max(lo, 0)), math.ceil(hi)
    if hi < lo:
        raise InvalidArgumentError(f"prime window [{lo}, {hi}] is empty")
    if hi - lo >= _MAX_SPAN:
        raise InvalidArgumentError(
            f"prime window [{lo}, {hi}] spans {hi - lo + 1:.3g} integers; "
            "a prime table spans at most 2**30"
        )
    base = _flat_sieve(math.isqrt(hi))
    chunks = _sieve_segments(lo, hi, base)
    primes = np.concatenate(chunks) if chunks else np.empty(0, dtype=np.int64)
    return PrimeTable(limit=hi, primes=primes, lo=lo)


def first_n_primes(n: int) -> PrimeTable:
    """Exactly the ``n`` smallest primes.

    The table's ``limit`` is the n-th prime itself, so the completeness
    invariant (every prime up to ``limit`` is listed) still holds.  It is
    sieved up to a bound on that prime, within the span a window may have.
    """
    if not 1 <= n < math.inf:  # NaN included
        raise InvalidArgumentError(f"n must be at least 1 and finite, got {n}")
    n = int(n)
    # 13 is the 6th prime; for n >= 6, p_n < n (ln n + ln ln n) (Rosser and
    # Schoenfeld), and the margin covers rounding in the logs.
    bound = 13 if n < 6 else int(n * (math.log(n) + math.log(math.log(n)))) + 16
    primes = sieve_up_to(bound).primes[:n]
    return PrimeTable(limit=int(primes[-1]), primes=primes)
