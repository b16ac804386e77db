import numpy as np
import pytest
from hypothesis import given, strategies as st

from specent import InvalidArgumentError, log_bin, log_spectrum
from specent.binning import LogBinning
from specent.spectrum import Spectrum

from oracles import oracle_spectrum


def binning_from_probs(probs, centers):
    """Assemble a LogBinning directly; spectrum only reads probs/centers."""
    probs = np.asarray(probs, dtype=np.float64)
    centers = np.asarray(centers, dtype=np.float64)
    M = probs.size
    edges = np.concatenate([[centers[0] - 0.5], 0.5 * (centers[1:] + centers[:-1]), [centers[-1] + 0.5]])
    counts = np.rint(probs * 1000).astype(np.int64)
    return LogBinning(M=M, log_edges=edges, edges=np.exp(edges), centers=centers,
                      counts=counts, probs=probs)


def random_probs(rng, M):
    raw = rng.random(M)
    return raw / raw.sum()


def test_first_component_is_total_mass(rng_numpy):
    for M in (2, 5, 17):
        probs = random_probs(rng_numpy, M)
        spec = log_spectrum(binning_from_probs(probs, np.linspace(0.0, 1.0, M)))
        assert spec.amplitudes[0] == pytest.approx(1.0, abs=1e-14)


def test_matches_oracle_random_vectors(rng_numpy):
    for M in (2, 8, 50):
        for _ in range(10):
            probs = random_probs(rng_numpy, M)
            a, b = np.sort(rng_numpy.random(2) * 10)
            centers = np.linspace(a, b, M)
            got = log_spectrum(binning_from_probs(probs, centers)).amplitudes
            ref = oracle_spectrum(probs.tolist(), centers.tolist())
            np.testing.assert_allclose(got, ref, atol=1e-13)


def test_uniform_vector_magnitudes_at_m8():
    # Equally spaced centers make the k-th phase a root-of-unity sum with
    # denominator M - 1: interior magnitudes are exactly 1/M, and the last
    # component wraps all the way around back to 1.
    probs = np.full(8, 1.0 / 8)
    spec = log_spectrum(binning_from_probs(probs, np.linspace(0.0, 7.0, 8)))
    mags = spec.magnitudes()
    assert mags[0] == pytest.approx(1.0, abs=1e-14)
    assert mags[-1] == pytest.approx(1.0, abs=1e-14)
    np.testing.assert_allclose(mags[1:-1], 1.0 / 8, atol=1e-14)


def test_point_mass_spectrum_is_flat(rng_numpy):
    for M in (2, 8, 50):
        probs = np.zeros(M)
        probs[rng_numpy.integers(0, M)] = 1.0
        mags = log_spectrum(binning_from_probs(probs, np.linspace(0.0, 1.0, M))).magnitudes()
        np.testing.assert_allclose(mags, 1.0, atol=1e-14)


def test_large_m_matches_oracle(rng_numpy):
    M = 1000
    probs = random_probs(rng_numpy, M)
    centers = np.linspace(-3.0, 5.0, M)
    got = log_spectrum(binning_from_probs(probs, centers)).amplitudes
    ref = oracle_spectrum(probs.tolist(), centers.tolist())
    np.testing.assert_allclose(got, ref, atol=1e-12)


def test_pipeline_spectrum_matches_oracle(table_small):
    from specent import truncated_distances

    binning = log_bin(truncated_distances(101, table_small, 5000), 50)
    got = log_spectrum(binning).amplitudes
    ref = oracle_spectrum(binning.probs.tolist(), binning.centers.tolist())
    np.testing.assert_allclose(got, ref, atol=1e-13)


def test_single_bin_is_rejected():
    # A hand-built LogBinning is the only way to reach the FFT with one bin.
    with pytest.raises(InvalidArgumentError, match="need at least 2 bins, got 1"):
        log_spectrum(binning_from_probs([1.0], [0.0]))


def test_to_dict_shape():
    spec = Spectrum(amplitudes=np.array([1.0 + 0j, 0.5j]))
    d = spec.to_dict()
    assert d["amplitudes"] == [[1.0, 0.0], [0.0, 0.5]]


@given(M=st.integers(min_value=2, max_value=32), data=st.data())
def test_magnitudes_bounded_by_one(M, data):
    raw = data.draw(st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=M, max_size=M)
                    .filter(lambda v: sum(v) > 0))
    probs = np.asarray(raw) / sum(raw)
    mags = log_spectrum(binning_from_probs(probs, np.linspace(0.0, 1.0, M))).magnitudes()
    # Triangle inequality: |sum p_j phase_j| <= sum p_j = 1.
    assert np.all(mags <= 1.0 + 1e-12)
