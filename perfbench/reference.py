"""Independent reference for the benchmark's output checks.

Written from the definitions in PAPER.md and sharing no code with specent:

* primes in a window ``[lo, hi]`` by a sieve of that window alone;
* distances ``|q - p|`` kept when ``0 < d <= R``;
* ``M`` bins equally spaced in log-distance between the extrema, half-open
  with the maximum closing the last bin, centers at log-edge midpoints;
* ``mu(k) = sum_j p_j exp(-2 pi i (k-1) (x_j - x_1) / (x_M - x_1))``;
* ``H = -sum w_k log w_k`` over ``w_k = |mu(k)| / sum_l |mu(l)| > 0``.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np


def _small_primes(limit: int) -> np.ndarray:
    flags = np.ones(limit + 1, dtype=bool)
    flags[:2] = False
    for n in range(2, math.isqrt(limit) + 1):
        if flags[n]:
            flags[n * n :: n] = False
    return np.flatnonzero(flags)


def primes_in_window(lo: int, hi: int) -> np.ndarray:
    """All primes in ``[lo, hi]`` (inclusive), as int64."""
    lo = max(2, int(lo))
    hi = int(hi)
    if hi < lo:
        return np.empty(0, dtype=np.int64)
    flags = np.ones(hi - lo + 1, dtype=bool)
    for q in _small_primes(math.isqrt(hi)).tolist():
        first = max(q * q, -(-lo // q) * q)
        flags[first - lo :: q] = False
    return lo + np.flatnonzero(flags).astype(np.int64)


def window_distances(p: float, points: np.ndarray, R: float) -> np.ndarray:
    d = np.abs(points.astype(np.float64) - p)
    return d[(d > 0) & (d <= R)]


def entropy_of(distances: np.ndarray, M: int) -> float:
    """Spectral entropy of a distance multiset at ``M`` log bins."""
    t = np.log(np.sort(distances))
    lo, hi = float(t[0]), float(t[-1])
    edges = lo + (hi - lo) * np.arange(M + 1) / M
    edges[0], edges[M] = lo, hi
    idx = np.searchsorted(edges, t, side="right") - 1
    idx[t >= hi] = M - 1
    probs = np.bincount(idx, minlength=M) / t.size
    centers = (edges[:-1] + edges[1:]) / 2
    fractions = (centers - centers[0]) / (centers[-1] - centers[0])
    k = np.arange(M)[:, None]
    mu = (probs[None, :] * np.exp(-2j * np.pi * k * fractions[None, :])).sum(axis=1)
    w = np.abs(mu) / np.abs(mu).sum()
    w = w[w > 0]
    return float(-(w * np.log(w)).sum())


def prime_entropy(p: float, R: float, M: int) -> float:
    """H of the primes within ``R`` of ``p``, from a sieve of that window only."""
    window = primes_in_window(math.ceil(p - R), math.floor(p + R))
    return entropy_of(window_distances(p, window, R), M)


def check_goldens(golden_dir: Path, tol: float = 1e-9) -> list[str]:
    """Compare the reference with the shipped golden files; returns problems."""
    problems = []
    g = json.loads((golden_dir / "worked_example.json").read_text("utf-8"))
    h = prime_entropy(g["p"], g["R"], g["M"])
    if not abs(h - g["H"]) <= tol:
        problems.append(f"worked_example: reference H {h!r} != golden {g['H']!r}")
    g = json.loads((golden_dir / "stability_p101.json").read_text("utf-8"))
    for R, expected in zip(g["radii"], g["H_values"]):
        h = prime_entropy(g["p"], R, g["M"])
        if not abs(h - expected) <= tol:
            problems.append(f"stability_p101 R={R:g}: reference H {h!r} != golden {expected!r}")
    return problems
