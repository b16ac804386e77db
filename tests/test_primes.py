import functools
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from specent import (
    CoverageError,
    InvalidArgumentError,
    first_n_primes,
    primes_in_window,
    sieve_up_to,
)
from specent import primes
from specent.primes import _SEGMENT_SPAN

from oracles import oracle_primes, oracle_primes_in_window, oracle_sieve


def test_sieve_matches_trial_division():
    expected = oracle_primes(10000)
    got = sieve_up_to(10000).primes
    assert got.tolist() == expected


@pytest.mark.parametrize("limit", [2, 3, 4, 5, 29, 30, 31, 997])
def test_sieve_small_limits(limit):
    assert sieve_up_to(limit).primes.tolist() == oracle_primes(limit)


def test_sieve_limit_below_two_rejected():
    with pytest.raises(InvalidArgumentError):
        sieve_up_to(1)
    with pytest.raises(InvalidArgumentError):
        sieve_up_to(-7)


@pytest.mark.parametrize("lo", [0, 1, 6, 7])
def test_windows_past_one_odd_segment_match_oracle(lo):
    # A segment holds _SEGMENT_SPAN odd numbers, so these windows take two.
    hi = lo + 2 * _SEGMENT_SPAN + 1000
    assert np.array_equal(primes_in_window(lo, hi).primes, _window_slice(lo, hi))


@pytest.mark.parametrize("limit", [2, 3, 4, 5, 9, 10, 11, 25, 100, 7072, 10**5, 10**7])
def test_whole_windows_match_plain_sieve(limit):
    got = primes_in_window(0, limit).primes
    assert got.dtype == np.int64
    assert np.array_equal(got, oracle_sieve(limit))


def test_first_n_primes_exact_prefix():
    table = first_n_primes(1000)
    assert len(table) == 1000
    assert table.primes[:8].tolist() == [2, 3, 5, 7, 11, 13, 17, 19]
    assert table.primes[-1] == 7919
    assert table.limit == 7919


@pytest.mark.parametrize("n", [1, 2, 5, 6, 100])
def test_first_n_primes_counts(n):
    table = first_n_primes(n)
    assert len(table) == n
    assert table.primes.tolist() == oracle_primes(int(table.primes[-1]))


def test_first_n_primes_rejects_nonpositive():
    with pytest.raises(InvalidArgumentError):
        first_n_primes(0)


def test_covers():
    table = sieve_up_to(100)
    assert table.covers(0, 100)
    assert table.covers(0, 99.5)
    assert not table.covers(0, 101)


def test_primes_are_strictly_increasing():
    primes = sieve_up_to(100000).primes
    assert np.all(np.diff(primes) > 0)


def test_covers_low_end():
    table = primes_in_window(90, 200)
    assert table.lo == 90 and table.limit == 200
    assert table.covers(90, 200)
    assert table.covers(89.5, 150)  # no integer below 90 is left out
    assert not table.covers(89, 150)
    assert not table.covers(90, 201)
    assert not table.covers(0, 150)
    assert primes_in_window(2, 50).covers(0, 50)
    assert sieve_up_to(100).covers(-1e9, 100)

    with pytest.raises(CoverageError):
        table.between(89, 150)
    with pytest.raises(CoverageError):
        table.between(90, 201)
    primes = table.primes
    for lo, hi in [(90, 200), (89.5, 150), (96.5, 103.9), (100.2, 100.8), (150, 199.99)]:
        start = np.searchsorted(primes, lo, side="left")
        stop = np.searchsorted(primes, hi, side="right")
        assert np.array_equal(table.between(lo, hi), primes[start:stop])
    assert table.between(96.5, 103.9).tolist() == [97, 101, 103]
    assert sieve_up_to(100).between(-math.inf, 10).tolist() == [2, 3, 5, 7]


# One oracle sieve, past every window end in this file, sliced per window.
_ORACLE_LIMIT = 4 * _SEGMENT_SPAN + 4000


@functools.cache
def _oracle_table() -> np.ndarray:
    return oracle_sieve(_ORACLE_LIMIT)


def _window_slice(lo, hi):
    primes = _oracle_table()
    assert hi <= _ORACLE_LIMIT
    return primes[np.searchsorted(primes, lo):np.searchsorted(primes, hi, side="right")]


@st.composite
def windows(draw):
    hi = draw(st.one_of(st.integers(2, 5000), st.integers(2, 200_000),
                        st.integers(2 * _SEGMENT_SPAN - 50, 2 * _SEGMENT_SPAN + 3000)))
    lo = draw(st.one_of(st.sampled_from([0, 1, 2]), st.integers(0, math.isqrt(hi)),
                        st.just(hi), st.integers(0, hi)))
    return lo, hi


@given(windows())
def test_window_matches_sieve_slice(window):
    lo, hi = window
    table = primes_in_window(lo, hi)
    assert (table.lo, table.limit) == (lo, hi)
    assert table.primes.dtype == np.int64
    assert np.array_equal(table.primes, _window_slice(lo, hi))


@pytest.mark.parametrize("lo, hi", [
    (0, 2), (1, 2), (2, 2), (0, 97), (1, 97), (2, 97),
    (5, 10_000),              # lo below isqrt(hi): base primes lie in the window
    (97, 97), (100, 100),     # single integers, prime and composite
    (0, 10_000), (0, 10_200),  # isqrt(hi) = 100: the base is every odd number
    (0, 10_201), (10_000, 10_403),  # isqrt(hi) = 101: the base is sieved first
    (0, 2 * _SEGMENT_SPAN + 10),  # _SEGMENT_SPAN + 4 odd numbers: two segments
    (_SEGMENT_SPAN - 500, 3 * _SEGMENT_SPAN + 500),
    (_SEGMENT_SPAN - 499, 3 * _SEGMENT_SPAN + 500),
    (7, 4 * _SEGMENT_SPAN + 9),  # 2 * _SEGMENT_SPAN + 2 odd numbers: three segments
    (8, 4 * _SEGMENT_SPAN + 9),
])
def test_window_edge_cases(lo, hi):
    assert np.array_equal(primes_in_window(lo, hi).primes, _window_slice(lo, hi))


def test_window_clamps_negative_low_end():
    table = primes_in_window(-50, 30)
    assert table.lo == 0
    assert table.primes.tolist() == oracle_primes(30)


def test_window_rejects_empty_and_oversized():
    with pytest.raises(InvalidArgumentError):
        primes_in_window(10, 9)
    with pytest.raises(InvalidArgumentError):
        primes_in_window(-20, -10)
    with pytest.raises(InvalidArgumentError):
        primes_in_window(2**63 - 10, 2**63)
    # The 2**53 cap is checked before any sieving.
    with pytest.raises(InvalidArgumentError, match=r"2\*\*53"):
        primes_in_window(2**53 - 10, 2**53 + 1)


@pytest.mark.parametrize("call, args", [
    (primes_in_window, (math.nan, 10)),
    (primes_in_window, (0, math.nan)),
    (primes_in_window, (math.inf, 10)),
    (primes_in_window, (0, -math.inf)),
    (sieve_up_to, (math.nan,)),
    (sieve_up_to, (math.inf,)),
    (first_n_primes, (math.nan,)),
    (first_n_primes, (math.inf,)),
    (primes_in_window, (10, 10 + 2**30)),
    (sieve_up_to, (2**30,)),
    (first_n_primes, (10**12,)),
])
def test_non_finite_ends_and_spans_above_budget_rejected_before_sieving(call, args, monkeypatch):
    def refuse(*_):
        raise AssertionError("sieved")

    monkeypatch.setattr(primes, "_odd_primes", refuse)
    with pytest.raises(InvalidArgumentError):
        call(*args)


def test_largest_span_within_budget_is_sieved(monkeypatch):
    # A stand-in for the odd sieve: only the span check is under test.
    def three_values(lo, hi):
        return np.arange(lo, lo + 3)

    monkeypatch.setattr(primes, "_odd_primes", three_values)
    assert primes_in_window(10, 9 + 2**30).limit == 9 + 2**30
    assert len(sieve_up_to(2**30 - 1)) == 1 + 3  # 2, then the stand-in's three


def test_window_near_1e12_matches_miller_rabin():
    lo, hi = 10**12 - 1000, 10**12 + 1000
    assert primes_in_window(lo, hi).primes.tolist() == oracle_primes_in_window(lo, hi)


def test_window_below_2_53_matches_miller_rabin():
    # isqrt(2**53) lies above 100 and so does its own root: the base of the
    # base is sieved too, the deepest the sieve recurses.
    lo, hi = 2**53 - 2000, 2**53
    assert primes_in_window(lo, hi).primes.tolist() == oracle_primes_in_window(lo, hi)
