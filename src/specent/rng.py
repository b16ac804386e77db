"""Deterministic random-number plumbing built on counter-based Philox streams.

Two derivation schemes cover every stochastic component:

* keyed sub-streams -- ``generator(seed, *spawn_key)`` builds a Generator
  from ``SeedSequence(entropy=seed, spawn_key=spawn_key)``.  A null block
  or an ensemble sample ``i`` of base seed ``s`` therefore always sees the
  same stream, no matter in which order the items are drawn.
* indexed streams -- ``indexed_uniforms(key, start, count)`` exposes the raw
  64-bit output stream of ``Philox(key=key)`` as uniforms in [0, 1).  The
  value at stream position ``n`` is a pure function of ``(key, n)``, which
  makes windowed simulations bitwise identical to full-range ones.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidArgumentError

# numpy's SeedSequence hash (pool of 4 uint32 words) and its constants.
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF
# Sub-stream keys are computed this many indices at a time.
_KEY_CHUNK = 1024


def seed_sequence(seed: int, *spawn_key: int) -> np.random.SeedSequence:
    if seed < 0:
        raise InvalidArgumentError(f"seed must be non-negative, got {seed}")
    return np.random.SeedSequence(entropy=seed, spawn_key=spawn_key)


def generator(seed: int, *spawn_key: int) -> np.random.Generator:
    """Philox generator for the sub-stream identified by ``spawn_key``."""
    return np.random.Generator(np.random.Philox(seed_sequence(seed, *spawn_key)))


def _spawn_keys(seed: int, start: int, stop: int) -> np.ndarray:
    """Philox keys of sub-streams ``start .. stop-1`` of ``seed``, shape ``(n, 2)``.

    Row ``j`` equals ``seed_sequence(seed, start + j).generate_state(2,
    np.uint64)``: numpy's SeedSequence hash, run on uint32 columns over all
    indices at once.  Indices must be below ``2**32`` (one spawn word each).
    """
    seed = int(seed)
    # Little-endian uint32 words; a spawned sequence pads the seed to the pool.
    words = [seed >> (32 * k) & _MASK32
             for k in range(max(_POOL_SIZE, -(-seed.bit_length() // 32)))]
    n = stop - start
    inputs = [np.full(n, w, dtype=np.uint32) for w in words]  # numpy's "entropy array"
    inputs.append(np.arange(start, stop, dtype=np.uint32))
    const = _INIT_A

    def hashmix(value):
        nonlocal const
        value = value ^ np.uint32(const)
        const = const * _MULT_A & _MASK32
        value = value * np.uint32(const)
        return value ^ (value >> np.uint32(16))

    def mix(x, y):
        result = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
        return result ^ (result >> np.uint32(16))

    pool = [hashmix(word) for word in inputs[:_POOL_SIZE]]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in inputs[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))
    const = _INIT_B
    state = []
    for word in pool:  # generate_state(2, np.uint64) reads the pool once
        word = word ^ np.uint32(const)
        const = const * _MULT_B & _MASK32
        word = word * np.uint32(const)
        state.append(word ^ (word >> np.uint32(16)))
    return np.stack(state, axis=1).astype("<u4").view("<u8").astype(np.uint64)


def _substreams(seed: int):
    """``at(i)``: a Generator on sub-stream ``i`` of ``seed``, equal to
    ``generator(seed, i)`` draw for draw.

    Every call re-keys one shared Philox at counter 0, so a generator
    returned by ``at`` must not be held past the next call.  Keys are
    computed ``_KEY_CHUNK`` indices at a time, on demand.
    """
    seed_sequence(seed)  # the seed's check, before any draw
    bitgen = np.random.Philox(0)
    rng = np.random.Generator(bitgen)
    first, keys = 0, []  # the cached chunk's first index and key rows

    def at(i: int) -> np.random.Generator:
        nonlocal first, keys
        if not 0 <= i - first < len(keys):
            first = i - i % _KEY_CHUNK
            keys = _spawn_keys(seed, first, first + _KEY_CHUNK).tolist()
        bitgen.state = {"bit_generator": "Philox",
                        "state": {"counter": [0, 0, 0, 0], "key": keys[i - first]},
                        "buffer": [0, 0, 0, 0], "buffer_pos": 4,
                        "has_uint32": 0, "uinteger": 0}
        return rng

    return at


def stream_key(seed: int, *spawn_key: int) -> int:
    """Derive a 128-bit Philox key from a user seed."""
    words = seed_sequence(seed, *spawn_key).generate_state(2, np.uint64)
    return int(words[0]) | (int(words[1]) << 64)


def indexed_uniforms(key: int, start: int, count: int) -> np.ndarray:
    """Uniforms at stream positions ``start .. start+count-1`` of ``Philox(key=key)``.

    Philox emits 256-bit counter blocks of four 64-bit words and one uniform
    double consumes one word; the block/offset arithmetic lands mid-block so
    the returned slice matches the same positions of a front-to-back draw.
    """
    if count <= 0:
        return np.empty(0, dtype=np.float64)
    bitgen = np.random.Philox(key=key)
    if start >> 2:
        bitgen.advance(start >> 2)
    if start & 3:
        bitgen.random_raw(start & 3)
    return np.random.Generator(bitgen).random(count)
