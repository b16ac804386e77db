import numpy as np
import pytest
from hypothesis import given, strategies as st

from specent import (
    CoverageError,
    DistanceMultiset,
    InvalidArgumentError,
    aggregate_distances,
    primes_in_window,
    read_values,
    sieve_up_to,
    truncated_distances,
    write_values,
)

from oracles import oracle_distances


@pytest.fixture(scope="module")
def table():
    return sieve_up_to(20000)


def test_matches_oracle_on_primes(table):
    for p, R in [(101, 5000), (2, 10), (9973, 300), (150, 1000.5)]:
        got = truncated_distances(p, table, R).values
        assert got.tolist() == oracle_distances(p, table.primes.tolist(), R)


def test_base_point_itself_excluded(table):
    dm = truncated_distances(11, table, 100)
    assert 0.0 not in dm.values
    assert dm.base_points == (11,)


def test_radius_is_inclusive(table):
    # 103 is prime, so p=101 at R=2 keeps exactly the boundary distance.
    dm = truncated_distances(101, table, 2)
    assert dm.values.tolist() == [2.0]


def test_nonmember_base_point_allowed(table):
    dm = truncated_distances(100, table, 10)
    assert dm.values.tolist() == [1.0, 3.0, 3.0, 7.0, 9.0]  # 97,101,103,107,109


def test_coverage_error(table):
    with pytest.raises(CoverageError):
        truncated_distances(19000, table, 5000)


def test_coverage_error_at_low_end():
    window = primes_in_window(1000, 3000)
    assert truncated_distances(2000, window, 1000).values.size > 0
    with pytest.raises(CoverageError):
        truncated_distances(1500, window, 600)  # p - R = 900 lies below the table


def test_window_table_gives_same_distances(table):
    window = primes_in_window(9973 - 300, 9973 + 300)
    for p, R in [(9973, 300), (9900.5, 200.25)]:
        assert np.array_equal(truncated_distances(p, window, R).values,
                              truncated_distances(p, table, R).values)


@pytest.mark.parametrize("p, R", [(float("nan"), 10.0), (101.0, float("inf")), (float("-inf"), 5.0)])
def test_nonfinite_inputs_rejected(table, p, R):
    with pytest.raises(InvalidArgumentError):
        truncated_distances(p, table, R)


@given(p=st.floats(min_value=-100, max_value=20000, allow_nan=False),
       R=st.floats(min_value=1e-3, max_value=19000, allow_nan=False))
def test_prime_table_bounds_match_float_search(table, p, R):
    # The integer search bounds used for a PrimeTable must select exactly
    # what a float search over the same points selects.
    if p + R > table.limit:
        return
    as_floats = table.primes.astype(np.float64)
    got = truncated_distances(p, table, R).values
    assert got.tobytes() == truncated_distances(p, as_floats, R).values.tobytes()


def test_nonpositive_radius_rejected(table):
    with pytest.raises(InvalidArgumentError):
        truncated_distances(101, table, 0)


@given(
    pts=st.lists(st.floats(min_value=0, max_value=1e6, allow_nan=False), min_size=0, max_size=60),
    p=st.floats(min_value=0, max_value=1e6, allow_nan=False),
    R=st.floats(min_value=1e-3, max_value=1e6, allow_nan=False),
)
def test_window_matches_bruteforce(pts, p, R):
    arr = np.sort(np.asarray(pts, dtype=np.float64))
    got = truncated_distances(p, arr, R).values.tolist()
    assert got == oracle_distances(p, arr.tolist(), R)


def test_aggregate_is_measure_sum(table):
    single = truncated_distances(101, table, 500).values
    double = aggregate_distances([101, 101], table, 500).values
    assert double.size == 2 * single.size
    assert np.array_equal(double, np.sort(np.concatenate([single, single])))

    mixed = aggregate_distances([101, 4001], table, 500).values
    a = truncated_distances(101, table, 500).values
    b = truncated_distances(4001, table, 500).values
    assert np.array_equal(mixed, np.sort(np.concatenate([a, b])))


def test_from_values_validation():
    with pytest.raises(InvalidArgumentError):
        DistanceMultiset.from_values([0.0, 1.0])
    with pytest.raises(InvalidArgumentError):
        DistanceMultiset.from_values([1.0, 2.0], radius=1.5)
    dm = DistanceMultiset.from_values([3.0, 1.0, 2.0])
    assert dm.values.tolist() == [1.0, 2.0, 3.0]
    assert dm.radius == 3.0


def test_scaled():
    dm = DistanceMultiset.from_values([1.0, 4.0], radius=5.0)
    out = dm.scaled(10.0)
    assert out.values.tolist() == [10.0, 40.0]
    assert out.radius == 50.0
    with pytest.raises(InvalidArgumentError):
        dm.scaled(0)


def test_unsorted_raw_configuration_rejected():
    with pytest.raises(InvalidArgumentError):
        truncated_distances(5.0, np.array([3.0, 1.0, 2.0]), 10.0)


def test_value_file_roundtrip(tmp_path):
    path = tmp_path / "points.txt"
    values = [1.5, 2.25, 1e-9, 123456.789]
    write_values(path, values)
    text = path.read_text()
    assert "# " not in text
    back = read_values(path)
    assert back.tolist() == values

    annotated = tmp_path / "annotated.txt"
    annotated.write_text("# header\n1.0\n\n2.5\n")
    assert read_values(annotated).tolist() == [1.0, 2.5]


def test_value_file_rejects_garbage_and_missing(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("1.0\nnot-a-number\n")
    with pytest.raises(InvalidArgumentError, match="line|not a number|bad.txt"):
        read_values(bad)
    with pytest.raises(InvalidArgumentError, match="cannot read"):
        read_values(tmp_path / "missing.txt")
