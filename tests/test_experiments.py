import math

import numpy as np
import pytest

from specent import (
    CoverageError,
    InvalidArgumentError,
    PoissonConfig,
    aggregate_distances,
    deviation_profile,
    ensemble_distribution,
    full_pipeline,
    load_null_baseline,
    matched_null_config,
    primes_in_window,
    sieve_up_to,
    stability_profile,
    truncated_distances,
)
from specent.experiments import QUANTILE_LEVELS


@pytest.fixture(scope="module")
def table():
    return sieve_up_to(120000)


def test_stability_profile_values(table):
    profile = stability_profile(101, 50, (1e3, 1e4, 1e5), table)
    for radius, h in zip(profile.radii, profile.H_values):
        direct = full_pipeline(truncated_distances(101, table, radius), 50).H
        assert h == direct
    assert len(profile.envelope) == 3


def test_envelope_is_tail_spread_and_monotone(table):
    profile = stability_profile(101, 50, (1e3, 1e4, 1e5, 1e6 / 10), table)
    H = np.asarray(profile.H_values)
    env = np.asarray(profile.envelope)
    for i in range(H.size):
        assert env[i] == pytest.approx(H[i:].max() - H[i:].min(), abs=0)
    assert np.all(np.diff(env) <= 0)
    assert env[-1] == 0.0


def test_duplicate_radii_contribute_zero_envelope(table):
    profile = stability_profile(101, 50, (1e4, 1e4), table)
    assert profile.H_values[0] == profile.H_values[1]
    assert profile.envelope.tolist() == [0.0, 0.0]


def test_deviation_identity_and_matching(table):
    null_config = matched_null_config(101, 1e4, seed=3)
    assert null_config.intensity == pytest.approx(1 / math.log(101))
    profile = deviation_profile(101, 50, 1e4, table, null_config, 20)
    assert profile.delta == profile.H_prime - profile.null_mean
    assert profile.z_score == pytest.approx(profile.delta / profile.null_stderr)
    assert math.isfinite(profile.z_score)
    assert profile.null_replicates == 20


def test_ensemble_determinism_and_summaries(table):
    a = ensemble_distribution(4, 30, (10**4, 10**5), 1e4, 50, 7, table)
    b = ensemble_distribution(4, 30, (10**4, 10**5), 1e4, 50, 7, table)
    assert np.array_equal(a.samples, b.samples)

    samples = np.asarray(a.samples)
    assert samples.size == 30
    assert sum(a.hist_counts) == 30
    q = np.asarray(a.quantiles)
    assert np.all(np.diff(q) >= 0)
    np.testing.assert_allclose(q, np.quantile(samples, QUANTILE_LEVELS), atol=1e-12)
    assert a.iqr == pytest.approx(q[3] - q[1])
    assert a.centered is False
    assert a.baseline_mean is None


def test_ensemble_m1_is_single_base_point(table):
    from specent.rng import generator

    lo, hi, R, M, seed = 10**4, 2 * 10**4, 1e3, 50, 5
    dist = ensemble_distribution(1, 1, (lo, hi), R, M, seed, table)
    candidates = table.primes[(table.primes >= lo) & (table.primes <= hi)]
    drawn = generator(seed, 0).choice(candidates, size=1, replace=False)
    direct = full_pipeline(truncated_distances(int(drawn[0]), table, R), M).H
    assert dist.samples[0] == direct


def test_ensemble_centering_shifts_by_baseline(table):
    plain = ensemble_distribution(3, 10, (10**4, 10**5), 1e4, 50, 11, table)
    centered = ensemble_distribution(3, 10, (10**4, 10**5), 1e4, 50, 11, table, center=True)
    baseline = load_null_baseline()
    assert centered.centered is True
    assert centered.baseline_mean == baseline.mean
    np.testing.assert_allclose(
        np.asarray(centered.samples),
        np.asarray(plain.samples) - baseline.mean,
        atol=1e-12,
    )
    assert centered.centering == "global"


def test_ensemble_insufficient_primes(table):
    with pytest.raises(InvalidArgumentError):
        ensemble_distribution(10, 5, (10**4, 10**4 + 20), 1e3, 50, 1, table)


def test_ensemble_requires_coverage_of_the_range():
    # Fewer candidates than the range holds would change the sampling
    # without notice, so a table short of either end is an error.
    with pytest.raises(CoverageError):
        ensemble_distribution(2, 3, (10**4, 2 * 10**4), 1e3, 50, 1, sieve_up_to(15000))
    with pytest.raises(CoverageError):
        ensemble_distribution(2, 3, (10**4, 2 * 10**4), 1e3, 50, 1,
                              primes_in_window(12000, 30000))


def test_ensemble_on_window_table_matches_full_table(table):
    window = primes_in_window(10**4 - 10**3, 2 * 10**4 + 10**3)
    a = ensemble_distribution(3, 10, (10**4, 2 * 10**4), 1e3, 50, 4, window)
    b = ensemble_distribution(3, 10, (10**4, 2 * 10**4), 1e3, 50, 4, table)
    assert np.array_equal(a.samples, b.samples)


def test_ensemble_aggregation_matches_manual(table):
    # Reproduce one sample by hand from the documented seeding scheme.
    from specent.rng import generator

    lo, hi, m, R, M, seed = 10**4, 10**5, 3, 1e4, 50, 23
    candidates = table.primes[(table.primes >= lo) & (table.primes <= hi)]
    rng = generator(seed, 0)
    base_points = np.sort(rng.choice(candidates, size=m, replace=False))
    manual = full_pipeline(aggregate_distances([int(p) for p in base_points], table, R), M).H
    dist = ensemble_distribution(m, 1, (lo, hi), R, M, seed, table)
    assert dist.samples[0] == manual


def test_quantile_agreement_across_seeds(table):
    # Exchangeability proxy: medians across independent seeds agree within
    # a coarse resampling band.
    medians = []
    for seed in range(6):
        dist = ensemble_distribution(3, 40, (10**4, 10**5), 1e4, 50, seed, table)
        medians.append(dist.quantiles[QUANTILE_LEVELS.index(0.5)])
    assert max(medians) - min(medians) < 0.05
