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

from ._json import as_json
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
        return as_json(self, omit=("edges",))


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
    counts, log_min, log_max = log_bin_counts(distances.values, M)
    return _from_counts(counts, log_min, log_max)


def log_bin_counts(values: np.ndarray, M: int) -> tuple[np.ndarray, float, float]:
    """The counts of :func:`log_bin` with ``log_min`` and ``log_max``.

    ``values`` may come in any order: each value's bin depends only on the
    value and the extrema, so the counts of an unsorted array equal those
    of its sorted copy.  Raises what :func:`log_bin` raises.
    """
    M = _check_bins(M)
    if values.size == 0:
        raise EmptyDistancesError("No distances available")
    d_min = float(values.min())
    d_max = float(values.max())
    log_min = math.log(d_min)
    log_max = math.log(d_max)
    if log_min == log_max:
        raise DegenerateRangeError(
            f"distances span [{d_min!r}, {d_max!r}], a zero-width log range"
        )
    return np.bincount(_bin_index(values, log_min, log_max, M), minlength=M), log_min, log_max


def _bin_index(values, log_min, log_max, M: int) -> np.ndarray:
    """The bin of every value: floor arithmetic on the log axis, clipped
    into ``[0, M-1]``; ``log_min`` and ``log_max`` broadcast against ``values``."""
    idx = np.floor(M * (np.log(values) - log_min) / (log_max - log_min)).astype(np.int64)
    np.clip(idx, 0, M - 1, out=idx)
    return idx


def _integer_thresholds(d_min, log_min, log_max, M: int):
    """Per row of integer distances with smallest value ``d_min`` and log
    extrema ``log_min``, ``log_max``: the smallest integer that
    :func:`_bin_index` puts in bin ``b`` or above, ``b = 1 .. M-1``, and
    whether the row's search held.  That is the first of four integers
    around the edge ``exp(log_min + b * span / M)`` to get there; the search
    fails if the first already does or the last does not."""
    b = np.arange(1, M)
    span = (log_max - log_min)[:, None]
    edge = np.floor(np.exp(log_min[:, None] + b * span / M))
    near = np.maximum(edge[..., None] + np.arange(-1, 3), d_min[:, None, None])
    above = _bin_index(near, log_min[:, None, None], log_max[:, None, None], M) >= b[:, None]
    held = (~above[..., 0] & above[..., -1]).all(axis=1)
    first = np.take_along_axis(near, above.argmax(axis=-1)[..., None], axis=-1)[..., 0]
    return first.astype(np.int64), held


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


def rescale_invariance_check(distances: DistanceMultiset, c: float, M: int) -> bool:
    """Whether the bin counts survive a global rescale by ``c``.

    Diagnostic used by the test harness: compares the counts of the
    original and scaled multisets exactly.  They differ only where a value
    lands within rounding distance of a bin boundary.
    """
    scaled = distances.scaled(c)  # raises InvalidArgumentError for c <= 0
    return bool(np.array_equal(log_bin_counts(distances.values, M)[0],
                               log_bin_counts(scaled.values, M)[0]))
