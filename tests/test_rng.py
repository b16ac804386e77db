import numpy as np
import pytest
from hypothesis import given, strategies as st

from specent.errors import InvalidArgumentError
from specent.rng import (
    _spawn_keys,
    _substreams,
    generator,
    indexed_uniforms,
    seed_sequence,
    stream_key,
)


def test_generator_deterministic():
    a = generator(42).random(8)
    b = generator(42).random(8)
    assert np.array_equal(a, b)


def test_spawn_keys_give_distinct_streams():
    a = generator(42, 0).random(8)
    b = generator(42, 1).random(8)
    assert not np.array_equal(a, b)


def test_stream_key_is_pure():
    assert stream_key(7) == stream_key(7)
    assert stream_key(7) != stream_key(8)
    assert stream_key(7, 1) != stream_key(7, 2)
    assert 0 <= stream_key(7) < 1 << 128


def full_stream(key, n):
    bitgen = np.random.Philox(key=key)
    return np.random.Generator(bitgen).random(n)


@pytest.mark.parametrize("start,count", [(0, 16), (1, 5), (2, 9), (3, 4), (4, 8), (7, 3), (1021, 40)])
def test_indexed_uniforms_match_stream_positions(start, count):
    # Positioned draws must be bitwise equal to the same positions of one
    # continuous stream, whatever the offset within a Philox block.
    key = stream_key(123456789)
    whole = full_stream(key, start + count)
    part = indexed_uniforms(key, start, count)
    assert np.array_equal(part, whole[start:])


@given(start=st.integers(min_value=0, max_value=5000), count=st.integers(min_value=1, max_value=64))
def test_indexed_uniforms_alignment_property(start, count):
    key = stream_key(77, 3)
    whole = full_stream(key, start + count)
    assert np.array_equal(indexed_uniforms(key, start, count), whole[start:])


def test_indexed_uniforms_disjoint_windows_compose():
    key = stream_key(5)
    joined = np.concatenate([indexed_uniforms(key, 0, 10), indexed_uniforms(key, 10, 10)])
    assert np.array_equal(joined, full_stream(key, 20))


def test_seed_sequence_spawn_key_round_trip():
    ss = seed_sequence(9, 4)
    assert ss.entropy == 9
    assert tuple(ss.spawn_key) == (4,)


_SEEDS = [0, 42, 2**32 - 1, 2**32, 2**64, 2**128 + 5, 2**200 + 17, 10**40]


@pytest.mark.parametrize("seed", _SEEDS)
def test_spawn_keys_match_seed_sequence(seed):
    # Chunk edges, the first indices and the last index a loop may reach.
    for start, stop in [(0, 3), (1023, 1026), (10**7 - 1, 10**7)]:
        expected = [np.random.SeedSequence(seed, spawn_key=(i,)).generate_state(2, np.uint64)
                    for i in range(start, stop)]
        assert np.array_equal(_spawn_keys(seed, start, stop), np.array(expected))


@pytest.mark.parametrize("seed", [7, 2**70])
def test_substreams_draw_as_generator_in_any_order(seed):
    at = _substreams(seed)
    for i in [2049, 1025, 1024, 1023, 5, 0, 5, 1024, 2049]:  # reverse, then repeated
        rng, ref = at(i), generator(seed, i)
        assert rng.poisson(3.5) == ref.poisson(3.5)
        assert np.array_equal(rng.random(5), ref.random(5))
        assert np.array_equal(rng.choice(100, 7, replace=False), ref.choice(100, 7, replace=False))
        assert np.array_equal(rng.multinomial(40, [0.2, 0.3, 0.5]),
                              ref.multinomial(40, [0.2, 0.3, 0.5]))


def test_substreams_reject_a_negative_seed_before_any_draw():
    # Raised by _substreams itself, before a sub-stream is asked for.
    with pytest.raises(InvalidArgumentError, match="seed must be non-negative"):
        _substreams(-1)
