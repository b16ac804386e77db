"""Deterministic random-number plumbing built on counter-based Philox streams.

Two derivation schemes cover every stochastic component:

* keyed sub-streams -- ``generator(seed, *spawn_key)`` builds a Generator
  from ``SeedSequence(entropy=seed, spawn_key=spawn_key)``.  Replicate ``i``
  of a run with base seed ``s`` therefore always sees the same stream, no
  matter in which order or on how many threads replicates execute.
* indexed streams -- ``indexed_uniforms(key, start, count)`` exposes the raw
  64-bit output stream of ``Philox(key=key)`` as uniforms in [0, 1).  The
  value at stream position ``n`` is a pure function of ``(key, n)``, which
  makes windowed simulations bitwise identical to full-range ones.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidArgumentError


def seed_sequence(seed: int, *spawn_key: int) -> np.random.SeedSequence:
    if seed < 0:
        raise InvalidArgumentError(f"seed must be non-negative, got {seed}")
    return np.random.SeedSequence(entropy=seed, spawn_key=spawn_key)


def generator(seed: int, *spawn_key: int) -> np.random.Generator:
    """Philox generator for the sub-stream identified by ``spawn_key``."""
    return np.random.Generator(np.random.Philox(seed_sequence(seed, *spawn_key)))


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
