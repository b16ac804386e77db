"""Fixed-resolution logarithmic binning of distance multisets.

Bin edges are affine in log-distance between the sample extrema, so the
resulting probability vector depends only on distance ratios: multiplying
every distance by a positive constant shifts the whole log axis and leaves
bin occupancy unchanged, except when a value lands within rounding
distance of a bin boundary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distances import DistanceMultiset
from .errors import DegenerateRangeError, EmptyDistancesError, InvalidArgumentError

# Largest supported bin count.  Every per-bin array, and the JSON weight
# list of an entropy report, grows linearly with M.
MAX_BINS = 2**16


@dataclass(frozen=True)
class LogBinning:
    """Log-spaced bins over a distance multiset.

    ``log_edges`` has length ``M + 1``; ``edges`` is its exponential image;
    ``centers`` are midpoints of consecutive log edges (log-distance units);
    ``counts`` are bin occupancies and ``probs`` their normalization.
    """

    M: int
    log_edges: np.ndarray
    edges: np.ndarray
    centers: np.ndarray
    counts: np.ndarray
    probs: np.ndarray

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    def to_dict(self) -> dict:
        return {
            "M": int(self.M),
            "log_edges": self.log_edges.tolist(),
            "counts": self.counts.tolist(),
            "probs": self.probs.tolist(),
            "centers": self.centers.tolist(),
        }


def _check_bins(M) -> int:
    """``M`` as an int, or InvalidArgumentError outside ``[2, MAX_BINS]``."""
    M = int(M)
    if M < 2:
        raise InvalidArgumentError(f"M must be at least 2, got {M}")
    if M > MAX_BINS:
        raise InvalidArgumentError(f"M must be at most {MAX_BINS}, got {M}")
    return M


def log_bin(distances: DistanceMultiset, M: int) -> LogBinning:
    """Histogram ``distances`` into ``M`` log-spaced bins between its extrema.

    Bins are half-open ``[b_{j-1}, b_j)`` with the last bin closed.  Bin
    assignment is floor arithmetic on the log axis, clamped into
    ``[0, M-1]`` so the maximum always lands in the last bin regardless of
    floating rounding.

    Raises
    ------
    EmptyDistancesError
        If the multiset is empty.
    DegenerateRangeError
        If the extrema have equal logarithms (zero-width log range).
    """
    M = _check_bins(M)
    v = distances.values
    if v.size == 0:
        raise EmptyDistancesError("No distances available")
    d_min = float(v[0])
    d_max = float(v[-1])
    log_min = math.log(d_min)
    log_max = math.log(d_max)
    if log_min == log_max:
        raise DegenerateRangeError(
            f"distances span [{d_min!r}, {d_max!r}], a zero-width log range"
        )
    idx = np.floor(M * (np.log(v) - log_min) / (log_max - log_min)).astype(np.int64)
    np.clip(idx, 0, M - 1, out=idx)
    return _from_counts(np.bincount(idx, minlength=M), log_min, log_max)


def _from_counts(counts: np.ndarray, log_min: float, log_max: float) -> LogBinning:
    """The :class:`LogBinning` of ``counts`` over ``M = counts.size`` equal log
    bins spanning ``[log_min, log_max]``."""
    M = int(counts.size)
    log_edges = log_min + (np.arange(M + 1, dtype=np.float64) / M) * (log_max - log_min)
    log_edges[0] = log_min
    log_edges[M] = log_max
    return LogBinning(
        M=M,
        log_edges=log_edges,
        edges=np.exp(log_edges),
        centers=0.5 * (log_edges[:-1] + log_edges[1:]),
        counts=counts,
        probs=counts / counts.sum(),
    )


def rescale_invariance_check(
    distances: DistanceMultiset, c: float, M: int, atol: float = 0.0
) -> bool:
    """Whether binning probabilities survive a global rescale by ``c``.

    Diagnostic used by the test harness: compares the probability vectors
    of the original and scaled multisets entry by entry.  With no boundary
    collision the bin counts are identical integers, so the default exact
    comparison (``atol=0``) is the meaningful one.
    """
    if c <= 0:
        raise InvalidArgumentError(f"scale factor must be positive, got {c}")
    base = log_bin(distances, M)
    scaled = log_bin(distances.scaled(c), M)
    return bool(np.all(np.abs(base.probs - scaled.probs) <= atol))
