"""Random pseudoprime model: integer ``n >= 3`` joins independently with
probability ``1 / log n``.

The inclusion draw for integer ``n`` is stream position ``n`` of a Philox
stream keyed by the seed (see :mod:`specent.rng`), so simulating any window
of integers yields exactly the members a full-range simulation would
produce there.  The members around a base point are then an ordinary point
configuration for :func:`specent.distances.truncated_distances`, so large
``N`` stays cheap without weakening the determinism contract.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distances import DistanceMultiset, _check_window, truncated_distances
from .entropy import EntropyReport, full_pipeline
from .errors import ConfigurationError, CoverageError, InvalidArgumentError
from .primes import _MAX_LIMIT, _MAX_SPAN
from .rng import indexed_uniforms, stream_key

_CHUNK = 1 << 21


@dataclass(frozen=True)
class CramerConfig:
    """Simulation range ``[3, N]``, ``N <= 2**53`` (exact float64 distances), and RNG seed."""

    N: int
    seed: int

    def __post_init__(self):
        if not 3 <= self.N <= _MAX_LIMIT:
            raise InvalidArgumentError(f"N must be in [3, 2**53], got {self.N:.6g}")


def members_in_window(config: CramerConfig, lo: int, hi: int) -> np.ndarray:
    """Members of the simulated set in ``[lo, hi]`` (inclusive), as int64.

    Bitwise identical to the matching slice of ``simulate_cramer_set``.  The
    ends must be finite, and the window clamped into ``[3, N]`` spans at most
    ``2**30`` integers, like a prime table; both are checked before any draw.
    """
    if not (math.isfinite(lo) and math.isfinite(hi)):  # NaN included
        raise InvalidArgumentError(f"Cramer window ends must be finite, got [{lo}, {hi}]")
    lo = max(3, int(lo))
    hi = min(int(config.N), int(hi))
    if hi - lo >= _MAX_SPAN:
        raise InvalidArgumentError(f"Cramer window [{lo}, {hi}] spans {hi - lo + 1:.3g} "
                                   "integers; a Cramer window spans at most 2**30")
    if hi < lo:
        return np.empty(0, dtype=np.int64)
    key = stream_key(config.seed)
    out = []
    n = lo
    while n <= hi:
        count = min(_CHUNK, hi - n + 1)
        u = indexed_uniforms(key, n, count)
        ns = np.arange(n, n + count, dtype=np.int64)
        out.append(ns[u < 1.0 / np.log(ns)])
        n += count
    return np.concatenate(out)


def simulate_cramer_set(config: CramerConfig) -> np.ndarray:
    """The full simulated set on ``[3, N]``, ``N < 2**30 + 3``, strictly increasing int64."""
    return members_in_window(config, 3, config.N)


def nearest_member(config: CramerConfig, coord: float) -> int:
    """The set member nearest to ``coord`` (ties resolve to the smaller).

    Searches a widening window around ``coord``; a candidate inside the
    window is accepted only once no member outside the window could be
    closer, so the result matches a full-range search.
    """
    coord = float(coord)
    if not math.isfinite(coord):
        raise InvalidArgumentError(f"base coordinate must be finite, got {coord}")
    # Every member lies in [3, N], so a clamped coordinate has the same
    # nearest member, and the search window stays finite.
    coord = min(max(coord, 3.0), float(config.N))
    half_width = max(16.0, 8.0 * math.log(coord))
    while True:
        lo = max(3, math.floor(coord - half_width))
        hi = min(config.N, math.ceil(coord + half_width))
        members = members_in_window(config, lo, hi)
        whole_range = lo == 3 and hi == config.N
        if members.size:
            i = int(np.searchsorted(members, coord))
            candidates = members[max(0, i - 1) : i + 1]
            best = int(candidates[np.argmin(np.abs(candidates - coord))])
            if whole_range or abs(best - coord) <= half_width:
                return best
        elif whole_range:
            raise ConfigurationError(f"simulated set on [3, {config.N}] is empty")
        half_width *= 4.0


def cramer_distances(
    config: CramerConfig, base_point: int, R: float
) -> DistanceMultiset:
    """Truncated distance multiset around a member of the simulated set.

    Only the members within ``R`` of ``base_point`` are simulated; they give
    the same distances as the full set would.
    """
    _check_window(base_point, R)
    if base_point + R > config.N:
        raise CoverageError(
            f"simulation bound N={config.N} does not cover base_point + R = {base_point + R}"
        )
    members = members_in_window(config, math.ceil(base_point - R), math.floor(base_point + R))
    return truncated_distances(base_point, members, R)


def cramer_entropy(config: CramerConfig, base_coord: float, R: float, M: int) -> EntropyReport:
    """Entropy of the simulated set around the member nearest ``base_coord``."""
    base_point = nearest_member(config, base_coord)
    dm = cramer_distances(config, base_point, R)
    provenance = {
        "model": "cramer",
        "N": int(config.N),
        "seed": int(config.seed),
        "R": float(R),
        "base_point": int(base_point),
        "requested_base": float(base_coord),
    }
    return full_pipeline(dm, M, provenance=provenance)
