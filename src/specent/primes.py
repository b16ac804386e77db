"""Prime generation: one windowed sieve plus first-n selection."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CoverageError, InvalidArgumentError

# Windows are sieved in segments of this many odd numbers, which bounds memory
# to a few MB regardless of the window length.
_SEGMENT_SPAN = 1 << 22
# Up to this square root the base is every odd number, not the odd primes.
# That is exact, since each odd composite has an odd factor no larger than its
# square root, and cheaper than sieving the base first.
_ODD_BASE_ROOT = 100
_MAX_LIMIT = 2**53  # largest coordinate whose integer distances float64 holds exactly
# Most integers one table spans.  Sieving [0, 2**28] took 1.1-1.2 s and 263 MB
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


def _odd_primes(lo: int, hi: int) -> np.ndarray:
    """The odd primes in ``[max(lo, 3), hi]`` by a segmented sieve of the odd
    numbers, ``_SEGMENT_SPAN`` of them at a time.

    Index ``i`` of a segment stands for ``low + 2 i``, so the odd multiples of
    an odd ``p`` recur every ``p`` indices.  Each base member clears its odd
    multiples from its square on, so base primes inside the window stay set.
    A member no smaller than the segment has at most one multiple in it;
    those are cleared in one vectorized step.
    """
    root = math.isqrt(hi)
    if root <= _ODD_BASE_ROOT:
        base = np.arange(3, root + 1, 2, dtype=np.int64)
    else:
        base = _odd_primes(3, root)
    chunks = [np.empty(0, dtype=np.int64)]
    low = max(lo, 3) | 1
    while low <= hi:
        span = min(_SEGMENT_SPAN, (hi - low) // 2 + 1)
        mask = np.ones(span, dtype=bool)
        above = -(-low // base) * base  # least multiple >= low
        above += base * (above % 2 == 0)  # least odd one
        first = (np.maximum(above, base * base) - low) // 2  # its index
        hit = first < span
        single = hit & (base >= span)
        mask[first[single]] = False
        stepped = hit & ~single
        for p, start in zip(base[stepped].tolist(), first[stepped].tolist()):
            mask[start::p] = False
        chunks.append(low + 2 * np.flatnonzero(mask))
        low += 2 * span
    return np.concatenate(chunks)


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
    primes = _odd_primes(lo, hi)
    if lo <= 2 <= hi:
        primes = np.concatenate(([2], primes))
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
