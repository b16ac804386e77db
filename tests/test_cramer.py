import math

import numpy as np
import pytest

from specent import (
    ConfigurationError,
    CoverageError,
    CramerConfig,
    InvalidArgumentError,
    PoissonConfig,
    cramer_distances,
    cramer_entropy,
    estimate_null_entropy,
    members_in_window,
    nearest_member,
    simulate_cramer_set,
)


def test_determinism():
    cfg = CramerConfig(N=10**5, seed=13)
    assert np.array_equal(simulate_cramer_set(cfg), simulate_cramer_set(cfg))
    other = simulate_cramer_set(CramerConfig(N=10**5, seed=14))
    assert not np.array_equal(simulate_cramer_set(cfg), other)


def test_members_strictly_increasing_in_range():
    members = simulate_cramer_set(CramerConfig(N=10**5, seed=1))
    assert members[0] >= 3
    assert members[-1] <= 10**5
    assert np.all(np.diff(members) > 0)


def test_n3_is_single_bernoulli():
    hits = 0
    for seed in range(200):
        members = simulate_cramer_set(CramerConfig(N=3, seed=seed))
        assert set(members.tolist()) <= {3}
        hits += members.size
    # Inclusion probability is 1/log 3 ~ 0.91; 200 draws stay within
    # a loose 4-sigma band around it.
    p = 1 / math.log(3)
    assert abs(hits / 200 - p) <= 4 * math.sqrt(p * (1 - p) / 200)


def test_count_matches_mertens_like_sum():
    # Expected size is sum 1/log n; a 4-sigma band uses the exact Bernoulli
    # variance sum.
    N = 10**6
    ns = np.arange(3, N + 1, dtype=np.float64)
    probs = 1.0 / np.log(ns)
    mean, var = probs.sum(), (probs * (1 - probs)).sum()
    count = simulate_cramer_set(CramerConfig(N=N, seed=202)).size
    assert abs(count - mean) <= 4 * math.sqrt(var)


def test_window_equals_full_simulation_slice():
    cfg = CramerConfig(N=10**5, seed=31)
    full = simulate_cramer_set(cfg)
    lo, hi = 40000, 45000
    window = members_in_window(cfg, lo, hi)
    expected = full[(full >= lo) & (full <= hi)]
    assert np.array_equal(window, expected)


def test_window_clamps_to_domain():
    cfg = CramerConfig(N=1000, seed=31)
    full = simulate_cramer_set(cfg)
    assert np.array_equal(members_in_window(cfg, -50, 2000), full)


def test_nearest_member_matches_bruteforce():
    cfg = CramerConfig(N=10**4, seed=8)
    members = simulate_cramer_set(cfg)
    for coord in (3.0, 17.2, 5000.0, 5000.49, 9999.9):
        want = members[np.argmin(np.abs(members - coord))]
        assert nearest_member(cfg, coord) == want


def test_nearest_member_tie_prefers_smaller():
    cfg = CramerConfig(N=10**4, seed=8)
    members = simulate_cramer_set(cfg)
    gaps = np.diff(members)
    i = int(np.argmax(gaps > 1))  # any gap >= 2 gives an exact midpoint tie
    mid = (members[i] + members[i + 1]) / 2
    assert nearest_member(cfg, mid) == members[i]


def test_rescale_is_noop_for_single_base_point():
    cfg_on = CramerConfig(N=10**6, seed=5, rescale=True)
    cfg_off = CramerConfig(N=10**6, seed=5, rescale=False)
    on = cramer_entropy(cfg_on, 5e5, 1e4, 50)
    off = cramer_entropy(cfg_off, 5e5, 1e4, 50)
    assert on.H == pytest.approx(off.H, abs=1e-12)


def test_rescale_modes_change_values_not_validity():
    base = CramerConfig(N=10**6, seed=5)
    per_gap = CramerConfig(N=10**6, seed=5, rescale_mode="per-gap")
    a = cramer_distances(base, nearest_member(base, 5e5), 1e4)
    b = cramer_distances(per_gap, nearest_member(per_gap, 5e5), 1e4)
    assert a.values.size == b.values.size
    assert not np.allclose(a.values, b.values)
    with pytest.raises(InvalidArgumentError):
        CramerConfig(N=10**6, seed=5, rescale_mode="nope")


def test_coverage_guard():
    cfg = CramerConfig(N=10**4, seed=2)
    with pytest.raises(CoverageError):
        cramer_distances(cfg, 9000, 5000)


def test_invalid_n_rejected():
    with pytest.raises(InvalidArgumentError):
        CramerConfig(N=2, seed=1)


def test_entropy_provenance():
    cfg = CramerConfig(N=10**6, seed=5)
    report = cramer_entropy(cfg, 5e5, 1e4, 50)
    prov = report.provenance
    assert prov["model"] == "cramer"
    assert prov["N"] == 10**6
    assert prov["seed"] == 5
    assert prov["rescale_mode"] == "base-point"
    assert prov["requested_base"] == 5e5
    assert abs(prov["base_point"] - 5e5) < 100  # members are ~log(5e5) apart


def test_universality_at_matched_effective_size():
    """Mean H agrees with a Poisson run of comparable rescaled size.

    A rescaled two-sided window of radius R around base b holds about
    2R / log(b) unit-intensity points, so the comparable Poisson run has
    lambda * R' equal to that count.  The residual gap (integer support of
    the simulated set vs a continuum process) stays well under 0.05, while
    comparing against a differently sized Poisson run leaves ~0.1.
    """
    R, M, seeds = 1e5, 50, 40
    N = 10**7
    base = N / 2

    def one(seed):
        return cramer_entropy(CramerConfig(N=N, seed=seed), base, R, M).H

    hs = np.array([one(seed) for seed in range(seeds)])
    effective = 2 * R / math.log(base)
    null = estimate_null_entropy(M, PoissonConfig(intensity=1.0, radius=effective, seed=99), 100)
    assert abs(hs.mean() - null.mean_H) < 0.05
