"""Discrete log-frequency spectrum of a binned probability vector."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .binning import LogBinning
from .errors import DegenerateCentersError, InvalidArgumentError


@dataclass(frozen=True)
class Spectrum:
    """Complex amplitudes, one per frequency index ``k = 1..M``."""

    amplitudes: np.ndarray
    source_centers: np.ndarray

    def __len__(self) -> int:
        return int(self.amplitudes.size)

    def magnitudes(self) -> np.ndarray:
        return np.abs(self.amplitudes)

    def to_dict(self) -> dict:
        return {
            "amplitudes": [[float(z.real), float(z.imag)] for z in self.amplitudes],
        }


def log_spectrum(binning: LogBinning) -> Spectrum:
    """Evaluate the log-frequency spectrum by direct summation over bins.

    Amplitude ``k`` (1-based) is ``sum_j probs[j] * exp(-2i pi (k-1) f_j)``
    with phase fractions ``f_j = (centers[j] - centers[0]) /
    (centers[-1] - centers[0])``.

    For equally spaced centers the fraction is ``(j-1)/(M-1)``, so the last
    bin's phase equals the first bin's at every ``k``.  The spectrum is then
    a length-(M-1) DFT of ``probs`` with the last bin folded onto the first,
    taken at ``k-1 mod (M-1)``; in particular ``mu_M = mu_1 = sum(probs)``.
    A stock FFT on the folded vector agrees with the direct sum to rounding
    (about 1e-13 for M up to 1000).

    Direct summation stays anyway: phases are driven by the stored bin
    centers, not by bin indices, so unevenly spaced centers are handled
    too, and tests pin that.  M is small, so the O(M^2) matrix evaluation
    below is the only code path.
    """
    x = binning.centers
    M = int(x.size)
    if M < 2:
        raise InvalidArgumentError(f"need at least 2 bins, got {M}")
    denom = float(x[-1] - x[0])
    if denom == 0.0:
        raise DegenerateCentersError("Degenerate log-bin centers")
    fractions = (x - x[0]) / denom
    k = np.arange(M, dtype=np.float64)
    phases = np.exp(-2j * np.pi * np.outer(k, fractions))
    amplitudes = phases @ binning.probs
    return Spectrum(amplitudes=amplitudes, source_centers=x.copy())
