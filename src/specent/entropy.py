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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .binning import LogBinning, log_bin
from .distances import DistanceMultiset
from .errors import DegenerateSpectrumError
from .spectrum import Spectrum, log_spectrum


@dataclass(frozen=True)
class EntropyReport:
    """Scalar entropy ``H`` (nats) with its weight vector and provenance."""

    H: float
    weights: np.ndarray
    M: int
    provenance: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "H": float(self.H),
            "weights": self.weights.tolist(),
            "M": int(self.M),
            "provenance": dict(self.provenance),
        }


def spectral_entropy(
    spectrum: Spectrum,
    *,
    squared: bool = False,
    provenance: Mapping | None = None,
) -> EntropyReport:
    """Entropy of the magnitude-normalized spectrum, in nats.

    Weights are linear magnitudes by default; ``squared=True`` switches to
    power weights, an exploratory variant not used by any shipped baseline
    or check.  The sum runs over strictly positive weights only, so zero
    weights contribute exactly zero and a spectrum with a single nonzero
    magnitude has entropy exactly 0.0 -- no epsilon regularization.
    """
    a = np.abs(spectrum.amplitudes)
    if squared:
        a = a * a
    total = float(a.sum())
    if total == 0.0:
        raise DegenerateSpectrumError("all spectral magnitudes are zero")
    w = a / total
    positive = w[w > 0]
    H = float(-(positive * np.log(positive)).sum())
    return EntropyReport(H=H, weights=w, M=int(w.size), provenance=dict(provenance or {}))


def full_pipeline(
    distances: DistanceMultiset,
    M: int,
    *,
    squared: bool = False,
    provenance: Mapping | None = None,
) -> EntropyReport:
    """Bin, transform, and compress a distance multiset to its entropy.

    Single entry point shared by the Cramér model, the experiments and the
    CLI (the Poisson null draws its counts and joins after binning); errors
    from the individual stages propagate unchanged.
    """
    prov = {"radius": float(distances.radius), "count": len(distances)}
    if provenance:
        prov.update(provenance)
    return _binned_entropy(log_bin(distances, M), squared=squared, provenance=prov)


def _binned_entropy(binning: LogBinning, **options) -> EntropyReport:
    """The stages after binning; the Poisson null enters here with drawn counts."""
    return spectral_entropy(log_spectrum(binning), **options)
