import math

import numpy as np
import pytest

from specent import (
    DegenerateSpectrumError,
    full_pipeline,
    log_spectrum,
    spectral_entropy,
    truncated_distances,
)
from specent.spectrum import Spectrum

from oracles import (
    oracle_entropy,
    oracle_pipeline,
    oracle_uniform_m8_entropy,
)
from test_spectrum import binning_from_probs


def spectrum_of(amplitudes):
    return Spectrum(amplitudes=np.asarray(amplitudes, dtype=np.complex128))


def test_point_mass_probs_give_log_m():
    # A flat spectrum has uniform weights, so H is exactly log M.
    for M in (2, 8, 50):
        probs = np.zeros(M)
        probs[M // 2] = 1.0
        spec = log_spectrum(binning_from_probs(probs, np.linspace(0.0, 1.0, M)))
        H = spectral_entropy(spec).H
        assert abs(H - math.log(M)) < 1e-12


def test_uniform_m8_hand_value():
    probs = np.full(8, 1.0 / 8)
    spec = log_spectrum(binning_from_probs(probs, np.linspace(0.0, 7.0, 8)))
    H = spectral_entropy(spec).H
    assert abs(H - oracle_uniform_m8_entropy()) < 1e-12


def test_zero_amplitudes_are_excluded_not_epsiloned():
    # w = (1, 0, 0, 0) must contribute exactly nothing for the zeros:
    # H = 0, not the ~M*eps*log(eps) perturbation an additive epsilon gives.
    H = spectral_entropy(spectrum_of([1.0, 0.0, 0.0, 0.0])).H
    assert H == 0.0


def test_all_zero_spectrum_rejected():
    with pytest.raises(DegenerateSpectrumError):
        spectral_entropy(spectrum_of([0.0, 0.0, 0.0]))


def test_matches_oracle_on_random_spectra(rng_numpy):
    for _ in range(25):
        M = int(rng_numpy.integers(2, 40))
        z = rng_numpy.normal(size=M) + 1j * rng_numpy.normal(size=M)
        got = spectral_entropy(spectrum_of(z)).H
        assert got == pytest.approx(oracle_entropy(z.tolist()), abs=1e-12)


def test_weights_normalized_and_bounded(rng_numpy):
    z = rng_numpy.normal(size=16) + 1j * rng_numpy.normal(size=16)
    report = spectral_entropy(spectrum_of(z))
    assert report.weights.sum() == pytest.approx(1.0, abs=1e-12)
    assert 0.0 <= report.H <= math.log(16) + 1e-12


def test_squared_weighting_differs():
    z = np.array([1.0, 0.5, 0.25, 0.125])
    linear = spectral_entropy(spectrum_of(z)).H
    squared = spectral_entropy(spectrum_of(z), squared=True).H
    assert squared < linear  # squaring sharpens the weight distribution
    w = np.abs(z) ** 2 / np.sum(np.abs(z) ** 2)
    assert squared == pytest.approx(-np.sum(w * np.log(w)), abs=1e-14)


def test_full_pipeline_matches_oracle(table_10k):
    H = full_pipeline(truncated_distances(101, table_10k, 5000), 50).H
    ref = oracle_pipeline(101, table_10k.primes.tolist(), 5000, 50)
    assert H == pytest.approx(ref, abs=1e-10)


def test_full_pipeline_provenance(table_10k):
    report = full_pipeline(truncated_distances(101, table_10k, 5000), 50,
                           provenance={"model": "primes"})
    assert report.provenance["radius"] == 5000.0
    assert report.provenance["count"] == 681
    assert report.provenance["model"] == "primes"
    assert report.M == 50
