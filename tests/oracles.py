"""Independent straight-line reference implementations.

Everything here is deliberately written the slow, obvious way (trial
division or Miller-Rabin per integer, a plain boolean sieve, per-element scans, the spectrum's
direct sum over the whole (M, M) phase array) and shares no code with the package.  These
functions adjudicate the vectorized implementations; do not "fix" them to match the package,
fix the package to match them.

Definitions implemented:
  * distances: d(p, q) = |q - p| kept when 0 < d <= R
  * binning: M edges equally spaced in log between min and max distance;
    value t = log d falls in bin j when edge[j-1] <= t < edge[j], with
    the maximum closing the last bin
  * spectrum: mu(k) = sum_j p_j exp(-2 pi i (k-1) (x_j - x_1) / (x_M - x_1)),
    every term of every k evaluated by one NumPy exp (no FFT, no folding)
  * entropy: H = -sum over {k : w_k > 0} of w_k log w_k with
    w_k = |mu(k)| / sum_l |mu(l)|, no additive epsilon
  * Poisson null: the points of a rate-lambda process on (0, R], built by
    renewal (cumulative sums of exponential gaps from 0)
"""

from __future__ import annotations

import math

import numpy as np


def oracle_primes(limit: int) -> list:
    """All primes <= limit by trial division."""
    out = []
    for n in range(2, limit + 1):
        is_prime = True
        k = 2
        while k * k <= n:
            if n % k == 0:
                is_prime = False
                break
            k += 1
        if is_prime:
            out.append(n)
    return out


def oracle_sieve(limit: int) -> np.ndarray:
    """All primes <= limit by a plain boolean sieve of Eratosthenes."""
    mask = np.ones(limit + 1, dtype=bool)
    mask[:2] = False
    for k in range(2, int(limit**0.5) + 1):
        if mask[k]:
            mask[k * k :: k] = False
    return np.flatnonzero(mask)


def oracle_is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; the first 12 prime bases are exact below 3.3e24."""
    if n < 2:
        return False
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    for q in bases:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in bases:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def oracle_primes_in_window(lo: int, hi: int) -> list:
    """All primes in [lo, hi] by Miller-Rabin on every integer."""
    return [n for n in range(max(lo, 0), hi + 1) if oracle_is_prime(n)]


def oracle_poisson_distances(lam: float, R: float, seed: int, replicate: int) -> np.ndarray:
    """Renewal simulation of a rate-``lam`` Poisson process on ``(0, R]``.

    Draws exponential gaps from Philox sub-stream ``spawn_key=(replicate,)``
    of ``seed`` until their running sum passes ``R``; returns the sorted
    points, which are the distances to the conditioned point 0.
    """
    seq = np.random.SeedSequence(entropy=seed, spawn_key=(replicate,))
    rng = np.random.Generator(np.random.Philox(seq))
    chunk = int(lam * R + 10.0 * math.sqrt(lam * R)) + 16
    parts, total = [], 0.0
    while total <= R:
        points = total + np.cumsum(rng.exponential(scale=1.0 / lam, size=chunk))
        parts.append(points)
        total = float(points[-1])
    points = np.concatenate(parts)
    return points[points <= R]


def oracle_distances(p: float, points, R: float) -> list:
    return sorted(abs(q - p) for q in points if 0 < abs(q - p) <= R)


def oracle_log_bin(distances, M: int):
    """Returns (probs, centers) as plain lists."""
    if len(distances) == 0:
        raise ValueError("No distances available")
    lo = math.log(min(distances))
    hi = math.log(max(distances))
    if lo == hi:
        raise ValueError("degenerate range")
    edges = [lo + (hi - lo) * j / M for j in range(M + 1)]
    edges[0], edges[M] = lo, hi
    counts = [0] * M
    for d in distances:
        t = math.log(d)
        if t >= edges[M]:
            counts[M - 1] += 1
            continue
        for j in range(M):
            if edges[j] <= t < edges[j + 1]:
                counts[j] += 1
                break
        else:
            raise AssertionError(f"log-distance {t} escaped [{edges[0]}, {edges[M]}]")
    probs = [c / len(distances) for c in counts]
    centers = [(edges[j] + edges[j + 1]) / 2 for j in range(M)]
    return probs, centers


def oracle_spectrum(probs, centers) -> list:
    probs = np.asarray(probs, dtype=float)
    centers = np.asarray(centers, dtype=float)
    M = probs.size
    denom = centers[-1] - centers[0]
    if denom == 0:
        raise ValueError("degenerate centers")
    k = np.arange(1, M + 1)[:, None]  # row k - 1 holds the M terms of mu(k)
    phase = -2j * np.pi * (k - 1) * (centers - centers[0]) / denom
    return (probs * np.exp(phase)).sum(axis=1).tolist()


def oracle_entropy(amplitudes) -> float:
    mags = [abs(z) for z in amplitudes]
    total = sum(mags)
    if total == 0:
        raise ValueError("degenerate spectrum")
    h = 0.0
    for a in mags:
        w = a / total
        if w > 0:
            h -= w * math.log(w)
    return h


def oracle_pipeline(p: float, points, R: float, M: int) -> float:
    """End-to-end reference: distances -> bins -> spectrum -> entropy."""
    probs, centers = oracle_log_bin(oracle_distances(p, points, R), M)
    return oracle_entropy(oracle_spectrum(probs, centers))


def oracle_uniform_m8_entropy() -> float:
    """Hand derivation for the uniform probability vector at M = 8.

    mu(1) = mu(8) = 1 and |mu(k)| = 1/8 for k = 2..7, so the magnitude
    total is 2 + 6/8 = 11/4, giving weights 4/11 (twice) and 1/22 (six
    times).
    """
    return -2 * (4 / 11) * math.log(4 / 11) - 6 * (1 / 22) * math.log(1 / 22)
