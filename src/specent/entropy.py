"""Spectral entropy: Shannon entropy of normalized spectrum magnitudes.

The statistic measures spectral flatness.  A probability vector
concentrated in a single bin has unimodular phase factors at every
frequency, hence a flat magnitude spectrum and maximal entropy ``log M``;
slowly varying vectors concentrate the spectrum at low frequencies and
score low.

Worked example at M = 8: the uniform probability vector has magnitude
spectrum ``(1, 1/8, ..., 1/8, 1)`` (the endpoint frequency wraps back to
unit phase because the phase fractions span ``(M-1)`` steps), giving
weights ``(4/11, 1/22 x 6, 4/11)`` and

    H = -2*(4/11)*log(4/11) - 6*(1/22)*log(1/22) ~= 1.57872.

Single reports and sampler rows alike map their log-bin counts to entropy
through one kernel, ``_count_entropy``; :func:`spectral_entropy` of a
``log_spectrum`` is the public per-stage path to the same bits.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from ._json import as_json
from .binning import log_bin_counts
from .distances import DistanceMultiset
from .errors import DegenerateSpectrumError, EmptyDistancesError, InvalidArgumentError
from .parallel import ordered_map
from .spectrum import Spectrum, folded_fft

# Most values one block holds: the bins of its count rows, or the
# rows x m x (M - 1) table lookups of an ensemble block's prefix counts, so
# its temporaries stay under 512 KiB whatever the number of rows.  Smaller
# blocks made ensemble jobs about a third slower under glibc malloc (2-vCPU
# Linux VM): with blocks of 2**12 bins, each sample's arrays of about
# 120 KiB went back to the OS and were faulted in again, about 30,000 page
# faults per 500-sample job against about 300 at 2**15.  Freeing the larger
# block arrays raises the allocator's trim threshold above that churn.
_BLOCK_VALUES = 2**15


@dataclass(frozen=True)
class EntropyReport:
    """Scalar entropy ``H`` (nats) with its weight vector and provenance."""

    H: float
    weights: np.ndarray
    M: int
    provenance: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return as_json(self)


def spectral_entropy(spectrum: Spectrum, *, provenance: Mapping | None = None) -> EntropyReport:
    """Entropy of the magnitude-normalized spectrum, in nats.

    The sum runs over strictly positive weights only, so zero weights
    contribute exactly zero and a spectrum with a single nonzero magnitude
    has entropy exactly 0.0 -- no epsilon regularization.
    """
    w, H = entropy_weights(np.abs(spectrum.amplitudes))
    return EntropyReport(H=float(H), weights=w, M=int(w.size), provenance=dict(provenance or {}))


def entropy_weights(magnitudes: np.ndarray):
    """Weights and entropy of every row of a ``(..., M)`` magnitude array.

    Returns ``(w, H)``, with ``w`` shaped like ``magnitudes`` and ``H`` like
    ``magnitudes[..., 0]``.  This is the one implementation of the weights
    and the entropy sum, which every entropy specent reports goes through.
    Raises ``DegenerateSpectrumError`` if any row sums to zero.
    """
    total = magnitudes.sum(axis=-1, keepdims=True)
    # count_nonzero and min cost less than all() on the small 1-D spectra of
    # single reports such as full_pipeline's.
    if np.count_nonzero(total) < total.size:
        raise DegenerateSpectrumError("all spectral magnitudes are zero")
    w = magnitudes / total
    if w.min() > 0:
        return w, _entropy_sum(w)
    # A row with a zero weight sums its positive terms only: summing the
    # zeros along would regroup numpy's pairwise sum and change the last bits.
    M = w.shape[-1]
    H = [_entropy_sum(row[row > 0]) for row in w.reshape(-1, M)]
    return w, np.reshape(H, w.shape[:-1])


def _entropy_sum(w: np.ndarray):
    """``-sum w log w`` over the last axis of strictly positive weights."""
    return -(w * np.log(w)).sum(axis=-1)


def entropy_from_counts(counts: np.ndarray) -> np.ndarray:
    """Spectral entropy of every row of a ``(..., M)`` bin-count array: the
    ``H`` of :func:`_count_entropy`, which raises what it raises."""
    return _count_entropy(counts)[1]


def _count_entropy(counts: np.ndarray):
    """``(w, H)`` of :func:`entropy_weights` for every row of a ``(..., M)``
    bin-count array, row for row bit-identical to :func:`spectral_entropy`
    of the ``log_spectrum`` of the row's ``LogBinning``.  Raises
    ``InvalidArgumentError`` if any count is negative and
    ``EmptyDistancesError`` if any row sums to zero, where the per-sample
    pipeline would have had no distances to bin.
    """
    if counts.min() < 0:
        raise InvalidArgumentError("bin counts must be non-negative")
    totals = counts.sum(axis=-1, keepdims=True)
    if np.count_nonzero(totals) < totals.size:
        raise EmptyDistancesError("No distances available")
    return entropy_weights(np.abs(folded_fft(counts / totals)))


def _entropy_of_rows(item, count: int, width: int, rows=np.stack) -> np.ndarray:
    """Entropies of the count rows that ``rows`` builds from each block of the
    items ``item(i)``, ``i < count``; blocks of at most ``_BLOCK_VALUES //
    width`` items keep temporaries independent of ``count``."""
    block = max(1, _BLOCK_VALUES // width)
    return np.concatenate([
        entropy_from_counts(rows(ordered_map(item, range(start, min(start + block, count)))))
        for start in range(0, count, block)
    ])


def full_pipeline(
    distances: DistanceMultiset, M: int, *, provenance: Mapping | None = None
) -> EntropyReport:
    """Bin, transform, and compress a distance multiset to its entropy.

    Single-report entry point of the Cramér model, the deviation probe and
    the CLI; its log-bin counts go through the sampler rows' count kernel.
    Errors from the individual stages propagate unchanged.
    """
    prov = {"radius": float(distances.radius), "count": len(distances)}
    if provenance:
        prov.update(provenance)
    w, H = _count_entropy(log_bin_counts(distances.values, M)[0])
    return EntropyReport(H=float(H), weights=w, M=int(w.size), provenance=prov)
