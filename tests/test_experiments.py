import math

import numpy as np
import pytest

from specent import (
    CoverageError,
    InvalidArgumentError,
    NullBaseline,
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


def test_ensemble_centering_needs_a_baseline_at_the_same_m(table):
    # The shipped baseline is at M = 50; subtracting it from M = 8 entropies
    # would shift them by a mean of another statistic.
    with pytest.raises(InvalidArgumentError, match="M = 50.*M = 8"):
        ensemble_distribution(4, 50, (10**4, 2 * 10**4), 1e3, 8, 1, table, center=True)
    matched = NullBaseline(M=8, mean=1.5, stderr=0.01, intensity=1.0,
                           radius=1e6, replicates=500, seed=1)
    centered = ensemble_distribution(4, 50, (10**4, 2 * 10**4), 1e3, 8, 1, table,
                                     center=True, baseline=matched)
    plain = ensemble_distribution(4, 50, (10**4, 2 * 10**4), 1e3, 8, 1, table)
    assert centered.baseline_mean == 1.5
    assert np.array_equal(centered.samples, plain.samples - 1.5)


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


def _replayed_samples(m, n, prime_range, R, M, seed, table):
    """The samples as the per-sample pipeline computes them, one at a time."""
    from specent.rng import generator

    candidates = table.between(*prime_range)
    return [
        full_pipeline(aggregate_distances(
            generator(seed, i).choice(candidates, size=m, replace=False), table, R), M).H
        for i in range(n)
    ]


@pytest.fixture(scope="module")
def wide_table():
    return sieve_up_to(300000)


@pytest.mark.parametrize("m", [1, 3, 8, 16])
@pytest.mark.parametrize("M", [2, 50, 1000])
def test_batched_samples_equal_per_sample_pipeline(table, wide_table, m, M):
    # Count rows, from the prefix counts or from binned distances, plus one
    # batched kernel must give every sample's float bits, not just a close
    # value.  The cases cover a half-integer R, a window table and a table
    # from 0 that ends just past the last window, as --prime-limit makes.
    cases = [((10**4, 10**5), 1e4, table, 12), ((10**4, 2 * 10**4), 300.0, table, 12),
             ((10**4, 2 * 10**4), 1e3, primes_in_window(9000, 21000), 12),
             ((10**5, 2 * 10**5), 1e5, wide_table, 20), ((10**4, 10**5), 2500.5, table, 12),
             ((10**4, 2 * 10**4), 1e3, sieve_up_to(21000), 12)]
    for prime_range, R, source, n in cases:
        dist = ensemble_distribution(m, n, prime_range, R, M, 31, source)
        expected = _replayed_samples(m, n, prime_range, R, M, 31, source)
        assert [h.hex() for h in dist.samples.tolist()] == [h.hex() for h in expected]


@pytest.mark.parametrize("M, prefix, prime_range, R", [
    pytest.param(50, True, (10**4, 10**5), 1e4, id="50-True"),
    pytest.param(1000, False, (10**4, 10**5), 1e4, id="1000-False"),
    # Edges of the unclamped table lookups: windows cut off at 0, a
    # half-integer R and the largest M at which the prefix side holds.
    pytest.param(8, True, (2, 200), 1e3, id="window-clamped-at-0"),
    pytest.param(8, True, (10**4, 10**5), 150.5, id="R-150.5"),
    pytest.param(1000, True, (10**4, 10**5), 2e4, id="M-1000"),
])
def test_path_rule_sides_give_the_binned_counts(table, M, prefix, prime_range, R):
    # At R = 1e4 a window holds about 1,900 primes: more than the 2 (M - 1)
    # lookups per base at M = 50, fewer than at M = 1000.  Both paths give
    # the counts of the binned distances.
    from specent.binning import log_bin_counts
    from specent.distances import pooled_distances
    from specent.experiments import _prefix_counts
    from specent.rng import generator

    candidates = table.between(*prime_range)
    bases = np.stack([generator(3, i).choice(candidates, size=8, replace=False)
                      for i in range(10)])
    counts, held = _prefix_counts(bases, table, R, M)
    assert held.tolist() == [prefix] * 10
    if prefix:
        for row, chosen in zip(counts, bases):
            assert row.tolist() == log_bin_counts(pooled_distances(chosen, table, R), M)[0].tolist()
    dist = ensemble_distribution(8, 10, prime_range, R, M, 3, table)
    expected = _replayed_samples(8, 10, prime_range, R, M, 3, table)
    assert [h.hex() for h in dist.samples.tolist()] == [h.hex() for h in expected]


@pytest.mark.parametrize("d_min, d_max, M", [
    (9, 100, 8),  # d = 30 lies on log edge 4 (30**8 == 9**4 * 100**4)
    (1, 2, 2), (1, 1000, 50), (2, 97, 16), (7, 8, 50), (3, 10**4, 1000), (5, 10**5, 200),
])
def test_integer_thresholds_match_a_first_integer_scan(d_min, d_max, M):
    from specent.binning import _integer_thresholds, log_bin_counts

    counts, log_min, log_max = log_bin_counts(np.arange(d_min, d_max + 1, dtype=np.float64), M)
    thresholds, held = _integer_thresholds(np.array([d_min]), np.array([log_min]),
                                           np.array([log_max]), M)
    assert held.tolist() == [True]
    # Every integer in [d_min, d_max] is binned, so bin b starts at d_min
    # plus the number of integers in the bins below it.
    assert thresholds[0].tolist() == (d_min + np.cumsum(counts)[:-1]).tolist()
    if (d_min, d_max, M) == (9, 100, 8):
        # The floor formula puts 30 one bin low; the thresholds follow it.
        assert thresholds[0, 3] == 31


def test_coverage_is_checked_only_for_drawn_bases():
    # The table stops one short of 19997 + R, the window of the top
    # candidate; no other candidate's window is cut.  Seed 0 never draws
    # 19997 in 60 samples, seed 1 draws it in sample 42 only.
    source = primes_in_window(8000, 19997 + 1000 - 1)
    dist = ensemble_distribution(8, 60, (10**4, 2 * 10**4), 1e3, 50, 0, source)
    expected = _replayed_samples(8, 60, (10**4, 2 * 10**4), 1e3, 50, 0, source)
    assert [h.hex() for h in dist.samples.tolist()] == [h.hex() for h in expected]
    with pytest.raises(CoverageError) as old:
        _replayed_samples(8, 60, (10**4, 2 * 10**4), 1e3, 50, 1, source)
    assert "[18997.0, 20997.0]" in str(old.value)
    with pytest.raises(CoverageError) as new:
        ensemble_distribution(8, 60, (10**4, 2 * 10**4), 1e3, 50, 1, source)
    assert str(new.value) == str(old.value)


def test_batched_samples_span_several_kernel_blocks(table):
    # Three blocks, the last one partial.
    from specent.entropy import _BLOCK_VALUES

    M = 2**14
    n = 2 * (_BLOCK_VALUES // M) + 1
    dist = ensemble_distribution(2, n, (10**4, 2 * 10**4), 1e3, M, 8, table)
    expected = _replayed_samples(2, n, (10**4, 2 * 10**4), 1e3, M, 8, table)
    assert [h.hex() for h in dist.samples.tolist()] == [h.hex() for h in expected]


def test_ensemble_samples_lie_in_entropy_bounds(table):
    for M in (2, 50, 1000):
        samples = ensemble_distribution(3, 40, (10**4, 10**5), 1e4, M, 2, table).samples
        assert np.all(samples >= 0.0)
        assert np.all(samples <= math.log(M))


def _pipeline_error(m, prime_range, R, M, seed, table):
    """The error the per-sample pipeline raises on sample 0."""
    with pytest.raises(Exception) as info:
        _replayed_samples(m, 1, prime_range, R, M, seed, table)
    return info.value


@pytest.mark.parametrize("case", [
    # The range is covered, but a chosen base's window [p - R, p + R] is not.
    ("coverage", 2, (10**4, 2 * 10**4), 6e3, lambda: primes_in_window(10**4, 2 * 10**4)),
    # 23's neighbours 19 and 29 lie farther than R = 1 away.
    ("empty", 1, (23, 28), 1.0, lambda: sieve_up_to(100)),
    # Around 5, R = 2 reaches only 3 and 7: one distance, a zero-width log range.
    ("degenerate", 1, (5, 6), 2.0, lambda: sieve_up_to(100)),
])
def test_ensemble_errors_match_per_sample_pipeline(case):
    from specent import CoverageError, DegenerateRangeError, EmptyDistancesError

    kind, m, prime_range, R, make_table = case
    source = make_table()
    expected = {"coverage": CoverageError, "empty": EmptyDistancesError,
                "degenerate": DegenerateRangeError}[kind]
    old = _pipeline_error(m, prime_range, R, 8, 0, source)
    assert type(old) is expected
    with pytest.raises(expected) as info:
        ensemble_distribution(m, 5, prime_range, R, 8, 0, source)
    assert str(info.value) == str(old)


@pytest.mark.parametrize("M", [2, 50, 1000])
def test_stability_values_equal_per_radius_pipeline(table, M):
    # Count rows plus the batched kernel must give every radius's float bits.
    cases = [(101, (1e3, 1e4, 1e5), table), (1009, (10.0, 100.0, 1e3, 1e4, 1e4), table),
             (15000, (100.0, 1e3, 5e3), primes_in_window(9000, 21000))]
    for p, radii, source in cases:
        profile = stability_profile(p, M, radii, source)
        expected = [full_pipeline(truncated_distances(p, source, r), M).H for r in radii]
        assert [h.hex() for h in profile.H_values.tolist()] == [h.hex() for h in expected]
        assert np.all(profile.H_values >= 0.0)
        assert np.all(profile.H_values <= math.log(M))


@pytest.mark.parametrize("case", [
    # The window of the second radius, [15000 - 1e4, 15000 + 1e4], is not covered.
    ("coverage", 15000, (100.0, 1e4), lambda: primes_in_window(9000, 21000)),
    # 23's neighbours 19 and 29 lie farther than R = 1 away.
    ("empty", 23, (1.0, 10.0), lambda: sieve_up_to(100)),
    # Around 5, R = 2 reaches only 3 and 7: one distance, a zero-width log range.
    ("degenerate", 5, (2.0, 1e3), lambda: sieve_up_to(2000)),
])
def test_stability_errors_match_per_radius_pipeline(case):
    from specent import DegenerateRangeError, EmptyDistancesError

    kind, p, radii, make_table = case
    source = make_table()
    expected = {"coverage": CoverageError, "empty": EmptyDistancesError,
                "degenerate": DegenerateRangeError}[kind]
    with pytest.raises(expected) as old:
        for r in radii:
            full_pipeline(truncated_distances(p, source, r), 8)
    with pytest.raises(expected) as new:
        stability_profile(p, 8, radii, source)
    assert str(new.value) == str(old.value)


def test_sample_count_above_cap_is_rejected(table):
    # Checked before any sample is drawn or any array allocated for them.
    from specent.nullmodel import MAX_REPLICATES

    with pytest.raises(InvalidArgumentError, match=f"at most {MAX_REPLICATES}"):
        ensemble_distribution(2, MAX_REPLICATES + 1, (10**4, 10**5), 1e3, 50, 1, table)
