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
    truncated_distances,
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


def test_reversed_window_is_empty():
    window = members_in_window(CramerConfig(N=10**4, seed=1), 50, 40)
    assert window.dtype == np.int64 and window.size == 0


@pytest.mark.parametrize("lo, hi", [(math.nan, 10), (3, math.inf)])
def test_window_ends_must_be_finite(lo, hi):
    with pytest.raises(InvalidArgumentError, match="ends must be finite"):
        members_in_window(CramerConfig(N=10**4, seed=1), lo, hi)


def test_window_above_span_budget_draws_nothing(monkeypatch):
    # The window is clamped into [3, N] first, so only its part inside the
    # range counts against the 2**30 budget of a prime table.
    from specent import cramer

    def refuse(*args):
        raise AssertionError("uniforms were drawn")

    monkeypatch.setattr(cramer, "indexed_uniforms", refuse)
    cfg = CramerConfig(N=2**31, seed=1)
    with pytest.raises(InvalidArgumentError, match=r"spans at most 2\*\*30"):
        members_in_window(cfg, -10.0, 2**30 + 3)
    with pytest.raises(InvalidArgumentError, match=r"spans at most 2\*\*30"):
        simulate_cramer_set(cfg)
    with pytest.raises(AssertionError, match="drawn"):  # one integer short of the budget
        members_in_window(cfg, -10.0, 2**30 + 2)


def test_nearest_member_matches_bruteforce():
    cfg = CramerConfig(N=10**4, seed=8)
    members = simulate_cramer_set(cfg)
    for coord in (3.0, 17.2, 5000.0, 5000.49, 9999.9):
        want = members[np.argmin(np.abs(members - coord))]
        assert nearest_member(cfg, coord) == want


def test_nearest_member_of_far_coordinates_is_the_nearest_end_member():
    # Every member lies in [3, N], so a coordinate beyond either end finds
    # the member nearest that end, even one whose search window would
    # overflow.
    cfg = CramerConfig(N=10**4, seed=8)
    assert nearest_member(cfg, 1e308) == nearest_member(cfg, 10**4)
    assert nearest_member(cfg, -1e308) == nearest_member(cfg, 3.0)


def test_nearest_member_tie_prefers_smaller():
    cfg = CramerConfig(N=10**4, seed=8)
    members = simulate_cramer_set(cfg)
    gaps = np.diff(members)
    i = int(np.argmax(gaps > 1))  # any gap >= 2 gives an exact midpoint tie
    mid = (members[i] + members[i + 1]) / 2
    assert nearest_member(cfg, mid) == members[i]


def test_nearest_member_widens_an_empty_first_window(monkeypatch):
    # The first window coming back empty makes the search widen it; the
    # member found must be the one a search without the miss finds.
    from specent import cramer

    cfg = CramerConfig(N=10**4, seed=8)
    want = nearest_member(cfg, 5000.0)
    calls = []

    def first_call_empty(config, lo, hi):
        calls.append((lo, hi))
        if len(calls) == 1:
            return np.empty(0, dtype=np.int64)
        return members_in_window(config, lo, hi)

    monkeypatch.setattr(cramer, "members_in_window", first_call_empty)
    assert nearest_member(cfg, 5000.0) == want
    assert len(calls) == 2
    assert calls[1][1] - calls[1][0] > calls[0][1] - calls[0][0]


def test_distances_match_truncated_full_set():
    # The window contract through the shared path: simulating only the
    # window gives the distances of the whole simulated set.
    for N, seed, coord, R in ((10**5, 5, 5e4, 1e3), (10**5, 9, 200.0, 150.0),
                              (10**6, 5, 5e5, 1e4)):
        cfg = CramerConfig(N=N, seed=seed)
        base = nearest_member(cfg, coord)
        got = cramer_distances(cfg, base, R).values
        want = truncated_distances(base, simulate_cramer_set(cfg), R).values
        assert [v.hex() for v in got.tolist()] == [v.hex() for v in want.tolist()]


def test_coverage_guard():
    cfg = CramerConfig(N=10**4, seed=2)
    with pytest.raises(CoverageError):
        cramer_distances(cfg, 9000, 5000)


def test_invalid_n_rejected():
    with pytest.raises(InvalidArgumentError):
        CramerConfig(N=2, seed=1)
    # Above 2**53 float64 no longer holds every integer distance exactly.
    with pytest.raises(InvalidArgumentError, match=r"2\*\*53"):
        CramerConfig(N=2**53 + 1, seed=1)


def test_entropy_provenance():
    cfg = CramerConfig(N=10**6, seed=5)
    report = cramer_entropy(cfg, 5e5, 1e4, 50)
    prov = report.provenance
    assert prov["model"] == "cramer"
    assert prov["N"] == 10**6
    assert prov["seed"] == 5
    assert not [key for key in prov if key.startswith("rescale")]
    assert prov["radius"] == prov["R"] == 1e4
    assert prov["requested_base"] == 5e5
    assert abs(prov["base_point"] - 5e5) < 100  # members are ~log(5e5) apart


def test_universality_at_matched_effective_size():
    """Mean H agrees with a Poisson run of comparable effective size.

    A two-sided window of radius R around base b holds about 2R / log(b)
    members.  Log binning ignores the distance scale, so the comparable
    Poisson run has lambda * R' equal to that count.  The residual gap (integer support of
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
