import math

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from specent import (
    DegenerateRangeError,
    DistanceMultiset,
    EmptyDistancesError,
    InvalidArgumentError,
    log_bin,
    rescale_invariance_check,
)
from specent.binning import MAX_BINS

from oracles import oracle_log_bin

distance_lists = st.lists(
    st.floats(min_value=1.0, max_value=1e6, allow_nan=False),
    min_size=2,
    max_size=200,
).filter(lambda v: min(v) < max(v))


def _multiset(values):
    return DistanceMultiset.from_values(values)


def log_range_collapsed(dm) -> bool:
    v = dm.values
    return math.log(v[0]) == math.log(v[-1])


def test_matches_oracle_small_cases():
    for values, M in [
        ([1.0, 2.0, 4.0, 8.0], 3),
        ([1.0, 10.0, 100.0, 1000.0], 4),
        ([2.0, 3.0, 5.0, 7.0, 11.0, 13.0], 5),
        (list(range(1, 100)), 8),
    ]:
        got = log_bin(_multiset(values), M)
        probs, centers = oracle_log_bin(values, M)
        np.testing.assert_allclose(got.probs, probs, atol=1e-15)
        np.testing.assert_allclose(got.centers, centers, rtol=1e-15)


@given(values=distance_lists, M=st.integers(min_value=2, max_value=64))
def test_matches_oracle_property(values, M):
    if log_range_collapsed(_multiset(values)):
        with pytest.raises(DegenerateRangeError):
            log_bin(_multiset(values), M)
        return
    got = log_bin(_multiset(values), M)
    probs, centers = oracle_log_bin(values, M)
    # Interior knife-edge assignments can differ by rounding; compare counts
    # only when no log-distance sits within one ulp of an interior edge.
    logs = np.log(np.asarray(values))
    interior = got.log_edges[1:-1]
    if interior.size and np.min(np.abs(logs[:, None] - interior[None, :])) < 1e-12:
        np.testing.assert_allclose(got.probs, probs, atol=1.0 / len(values) + 1e-15)
    else:
        assert got.probs.tolist() == probs
    np.testing.assert_allclose(got.centers, centers, rtol=1e-12)


def test_counts_and_probs_are_consistent():
    binning = log_bin(_multiset([1.0, 2.0, 3.0, 4.0, 5.0]), 4)
    assert binning.counts.sum() == 5
    assert binning.total == 5
    assert math.isclose(binning.probs.sum(), 1.0, abs_tol=1e-15)


def test_extrema_land_in_terminal_bins():
    binning = log_bin(_multiset([1.0, 7.0, 9.0, 1000.0]), 10)
    assert binning.counts[0] >= 1
    assert binning.counts[-1] >= 1
    assert binning.log_edges[0] == math.log(1.0)
    assert binning.log_edges[-1] == math.log(1000.0)


def test_single_bin_never_happens_with_distinct_extrema():
    binning = log_bin(_multiset([1.0, 1.0000001]), 2)
    assert np.count_nonzero(binning.counts) == 2


def test_empty_multiset_message():
    with pytest.raises(EmptyDistancesError, match="No distances available"):
        log_bin(DistanceMultiset.from_values([]), 8)


def test_degenerate_range():
    with pytest.raises(DegenerateRangeError):
        log_bin(_multiset([5.0, 5.0, 5.0]), 8)
    # Distinct distances whose logarithms round to the same float.
    values = [1e-3, 1e-3 * (1 + 2**-52)]
    assert values[0] < values[1] and math.log(values[0]) == math.log(values[1])
    with pytest.raises(DegenerateRangeError):
        log_bin(_multiset(values), 8)


def test_m_above_cap_rejected():
    log_bin(_multiset([1.0, 2.0]), MAX_BINS)
    with pytest.raises(InvalidArgumentError, match="at most"):
        log_bin(_multiset([1.0, 2.0]), MAX_BINS + 1)


def test_m_below_two_rejected():
    with pytest.raises(InvalidArgumentError):
        log_bin(_multiset([1.0, 2.0]), 1)


def boundary_collision(dm, M) -> bool:
    """True when some distance sits within rounding range of an interior edge.

    Near such knife edges the floor-based bin assignment may legitimately
    flip under a global rescale, so invariance is only claimed away from
    them.
    """
    v = dm.values
    span = math.log(v[-1]) - math.log(v[0])
    frac = M * (np.log(v) - math.log(v[0])) / span
    nearest = np.rint(frac)
    near = np.abs(frac - nearest) < 1e-9
    interior = (nearest >= 1) & (nearest <= M - 1)
    return bool(np.any(near & interior))


@given(values=distance_lists, c=st.sampled_from([1e-3, 7.0, 1e3]))
@example(values=[1.0, 1.0000000000000002], c=1e-3)
def test_scale_invariance_of_probabilities(values, c):
    dm = _multiset(values)
    scaled_dm = dm.scaled(c)
    for m in (dm, scaled_dm):
        if log_range_collapsed(m):
            # Rounding can merge the logs of adjacent floats: that is a
            # degenerate range, not a binning to compare.
            with pytest.raises(DegenerateRangeError):
                log_bin(m, 16)
            return
    if boundary_collision(dm, 16) or boundary_collision(scaled_dm, 16):
        return  # invariance is not claimed on knife edges
    base = log_bin(dm, 16)
    scaled = log_bin(scaled_dm, 16)
    assert base.counts.tolist() == scaled.counts.tolist()
    assert rescale_invariance_check(dm, c, 16)


def test_to_dict_keys():
    binning = log_bin(_multiset([1.0, 2.0, 8.0]), 4)
    assert set(binning.to_dict()) == {"M", "log_edges", "counts", "probs", "centers"}
