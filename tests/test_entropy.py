import math

import numpy as np
import pytest

from specent import (
    DegenerateSpectrumError,
    EmptyDistancesError,
    InvalidArgumentError,
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


def test_kernel_rows_with_zero_weights_match_spectral_entropy(rng_numpy):
    # A row with exact-zero weights sums its positive terms only; padding
    # with zeros would regroup the pairwise sum and move the last bits.
    from specent.entropy import entropy_weights

    for M in (4, 50, 1000):
        rows = rng_numpy.random((12, M))
        rows[rng_numpy.random((12, M)) < 0.3] = 0.0
        rows[np.arange(12), rng_numpy.integers(0, M, 12)] = 1.5  # no all-zero row
        rows[0] = 0.0
        rows[0, M // 2] = 2.5  # one nonzero magnitude: H is exactly 0
        rows[1] = rng_numpy.random(M) + 0.1  # no zero at all
        w, H = entropy_weights(rows)
        assert H.shape == (12,)
        for i, row in enumerate(rows):
            report = spectral_entropy(spectrum_of(row))
            assert H[i].hex() == report.H.hex()
            assert np.array_equal(w[i], report.weights)
        assert H[0] == 0.0


def test_kernel_rejects_a_zero_row_anywhere_in_the_stack():
    from specent.entropy import entropy_weights

    with pytest.raises(DegenerateSpectrumError):
        entropy_weights(np.array([[1.0, 2.0, 3.0], [0.0, 0.0, 0.0]]))


def test_entropy_from_counts_rejects_empty_rows_and_negative_counts():
    # An empty row must not read as a point mass (H = 0), and the per-sample
    # pipeline raises EmptyDistancesError for the same configuration.
    from specent import entropy_from_counts

    with pytest.raises(EmptyDistancesError, match="No distances available"):
        entropy_from_counts(np.array([[1, 2, 3], [0, 0, 0]]))
    with pytest.raises(EmptyDistancesError):
        entropy_from_counts(np.zeros((2, 2, 4), dtype=np.int64))
    with pytest.raises(InvalidArgumentError, match="non-negative"):
        entropy_from_counts(np.array([[1, 2, 3], [2, -1, 1]]))


def test_entropy_from_counts_matches_pipeline_rows(rng_numpy):
    from specent import entropy_from_counts
    from specent.binning import _from_counts

    for M in (2, 3, 50, 1000):
        counts = rng_numpy.integers(0, 5, size=(2, 3, M))
        counts[..., 0] += 1  # no empty row
        H = entropy_from_counts(counts)
        assert H.shape == (2, 3)
        for index in np.ndindex(2, 3):
            expected = spectral_entropy(log_spectrum(_from_counts(counts[index], 0.0, 1.0))).H
            assert H[index].hex() == expected.hex()
