"""Discrete log-frequency spectrum of a binned probability vector."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._json import as_json
from .binning import LogBinning
from .errors import InvalidArgumentError


@dataclass(frozen=True)
class Spectrum:
    """Complex amplitudes, one per frequency index ``k = 1..M``."""

    amplitudes: np.ndarray

    def __len__(self) -> int:
        return int(self.amplitudes.size)

    def magnitudes(self) -> np.ndarray:
        return np.abs(self.amplitudes)

    def to_dict(self) -> dict:
        return as_json(self)


def log_spectrum(binning: LogBinning) -> Spectrum:
    """The log-frequency spectrum of ``binning.probs``, by a folded FFT.

    Amplitude ``k`` (1-based) is ``sum_j probs[j] * exp(-2i pi (k-1) f_j)``
    with phase fractions ``f_j = (x_j - x_1) / (x_M - x_1)`` over the log
    bin centers ``x_j``.  The bins are equally spaced in log, so
    ``f_j = (j-1)/(M-1)`` and the last bin's phase equals the first bin's
    at every ``k``.  The spectrum is therefore the length-(M-1) DFT of
    ``probs`` with the last bin folded onto the first, read at
    ``(k-1) mod (M-1)``; in particular ``mu_M = mu_1 = sum(probs)``.
    """
    return Spectrum(amplitudes=folded_fft(binning.probs))


def folded_fft(probs: np.ndarray) -> np.ndarray:
    """The spectrum amplitudes of every row of a ``(..., M)`` probability array.

    This is the one implementation of the folded FFT described in
    :func:`log_spectrum`; the result has the shape of ``probs``.
    """
    M = int(probs.shape[-1])
    if M < 2:
        raise InvalidArgumentError(f"need at least 2 bins, got {M}")
    folded = probs[..., :-1].copy()
    folded.T[0] += probs.T[-1]  # the first bin of every row; cheap on 1-D input
    # Reading index (k-1) mod (M-1) appends each row's first amplitude.
    # concatenate returns C-ordered rows; fancy indexing along the last axis
    # would leave a 2-D result in Fortran order, and row sums over that
    # layout regroup their terms and change the last bits.
    transform = np.fft.fft(folded, axis=-1)
    return np.concatenate((transform, transform[..., :1]), axis=-1)
