"""Seeded job lists and output checks for each benchmark workload.

Every job is one argv for ``specent.cli.main``.  Jobs come in cycles:
cycle ``c`` of workload seed ``s`` is drawn from ``default_rng([s, c])``, so
a run is replayable from its seed and the benchmark can generate cycles
until its time is up.  Query workloads stratify their log-uniform draws
over the cycle, so two seeds exercise nearly the same size mix and the
latency percentiles differ between seeds by little more than timing noise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

import reference

M = 50

# Large-R Poisson null at lambda*R = 1e6, M = 50: mean and standard error of
# 500 replicates.  Kept here rather than read from the package, so a sampler
# that changes the random stream but not the distribution still passes.
NULL_REFERENCE_MEAN = 3.6782566
NULL_REFERENCE_SE = 0.00087
NULL_REPS = 500

PRIME_R = 1e4
PRIME_P_RANGE = (1e6, 5e7)
CRAMER_R = 1e5
CRAMER_N_RANGE = (1e7, 1e12)
QUERY_CYCLE = 32

ENSEMBLE_M = 8
ENSEMBLE_SAMPLES = 500
ENSEMBLE_RANGE = (10_000, 100_000)
ENSEMBLE_R = 1e4
ENSEMBLE_CHECKED = 5

SIGMAS = 6.0
TOL = 1e-9


@dataclass(frozen=True)
class Job:
    argv: tuple
    params: dict
    items: int  # replicates, queries or samples the job computes


def _seed(rng) -> int:
    return int(rng.integers(0, 2**31))


def _log_uniform_strata(rng, lo, hi, n):
    """One log-uniform draw in each of ``n`` equal log-strata, shuffled."""
    u = (np.arange(n) + rng.random(n)) / n
    return rng.permutation(np.exp(math.log(lo) + u * math.log(hi / lo)))


def _entropy_in_bounds(H, problems, what="H"):
    if not 0.0 <= H <= math.log(M):
        problems.append(f"{what} = {H!r} outside [0, log {M}]")


class NullBaseline:
    """The README's baseline regeneration: few large Poisson replicates."""

    name = "null-baseline"
    warmup = ("null", "--lambda", "1", "--R", "1e6", "--M", str(M), "--reps", "8", "--seed", "0")

    def cycle(self, seed: int, c: int) -> list[Job]:
        s = _seed(np.random.default_rng([seed, c]))
        argv = ("null", "--lambda", "1", "--R", "1e6", "--M", str(M),
                "--reps", str(NULL_REPS), "--seed", str(s))
        return [Job(argv, {"seed": s}, NULL_REPS)]

    def check(self, job: Job, result: dict) -> list[str]:
        problems = []
        H = result["per_replicate_H"]
        for h in H:
            _entropy_in_bounds(h, problems)
        if result["degenerate_count"] != 0 or len(H) != NULL_REPS:
            problems.append(f"{result['degenerate_count']} degenerate of {NULL_REPS} replicates")
        sigma = math.hypot(result["std_error"], NULL_REFERENCE_SE)
        if not abs(result["mean_H"] - NULL_REFERENCE_MEAN) <= SIGMAS * sigma:
            problems.append(f"mean H {result['mean_H']!r} more than {SIGMAS} sigma "
                            f"({sigma:.3g}) from {NULL_REFERENCE_MEAN}")
        return problems


class PrimeQuery:
    """Single prime base-point queries; each CLI call sieves up to p + R."""

    name = "prime-query"
    warmup = ("entropy", "--p", str(PRIME_P_RANGE[1]), "--R", str(PRIME_R), "--M", str(M))

    def cycle(self, seed: int, c: int) -> list[Job]:
        rng = np.random.default_rng([seed, c])
        return [Job(("entropy", "--p", repr(float(p)), "--R", str(PRIME_R), "--M", str(M)),
                    {"p": float(p)}, 1)
                for p in _log_uniform_strata(rng, *PRIME_P_RANGE, QUERY_CYCLE)]

    def check(self, job: Job, result: dict) -> list[str]:
        expected = reference.prime_entropy(job.params["p"], PRIME_R, M)
        if not abs(result["H"] - expected) <= TOL:
            return [f"H {result['H']!r} != reference {expected!r}"]
        return []


class CramerQuery:
    """Single random-pseudoprime queries; each simulates only its window."""

    name = "cramer-query"
    warmup = ("cramer", "--N", "1e12", "--R", str(CRAMER_R), "--M", str(M), "--seed", "0")

    def cycle(self, seed: int, c: int) -> list[Job]:
        rng = np.random.default_rng([seed, c])
        jobs = []
        for n in _log_uniform_strata(rng, *CRAMER_N_RANGE, QUERY_CYCLE):
            n, s = int(round(n)), _seed(rng)
            argv = ("cramer", "--N", str(n), "--R", str(CRAMER_R), "--M", str(M), "--seed", str(s))
            jobs.append(Job(argv, {"N": n, "seed": s}, 1))
        return jobs

    def check(self, job: Job, result: dict) -> list[str]:
        """H in bounds, and the member count near its Cramer expectation."""
        problems = []
        _entropy_in_bounds(result["H"], problems)
        prov = result["provenance"]
        base, count = int(prov["base_point"]), int(prov["count"])
        lo = max(3, math.ceil(base - CRAMER_R))
        hi = min(job.params["N"], math.floor(base + CRAMER_R))
        # The sums over the window's integers, as integrals of their smooth
        # summands; for n >= 1e6 the difference is far below one member.
        x = np.linspace(lo - 0.5, hi + 0.5, 1025)
        q = 1.0 / np.log(x)
        q_base = 1.0 / math.log(base)
        mean = float(np.trapezoid(q, x)) - q_base
        var = float(np.trapezoid(q * (1.0 - q), x)) - q_base * (1.0 - q_base)
        if not abs(count - mean) <= SIGMAS * math.sqrt(var):
            problems.append(f"{count} members within R of {base}, expected {mean:.1f} "
                            f"+/- {SIGMAS} x {math.sqrt(var):.1f}")
        return problems


class Ensemble:
    """Many small items through the same thread pool as the null."""

    name = "ensemble"
    warmup = ("ensemble", "--m", str(ENSEMBLE_M), "--samples", "50",
              "--range", f"{ENSEMBLE_RANGE[0]}:{ENSEMBLE_RANGE[1]}",
              "--R", str(ENSEMBLE_R), "--M", str(M), "--seed", "0")

    def __init__(self):
        self._primes = None

    def cycle(self, seed: int, c: int) -> list[Job]:
        rng = np.random.default_rng([seed, c])
        s = _seed(rng)
        checked = sorted(rng.choice(ENSEMBLE_SAMPLES, ENSEMBLE_CHECKED, replace=False).tolist())
        argv = ("ensemble", "--m", str(ENSEMBLE_M), "--samples", str(ENSEMBLE_SAMPLES),
                "--range", f"{ENSEMBLE_RANGE[0]}:{ENSEMBLE_RANGE[1]}",
                "--R", str(ENSEMBLE_R), "--M", str(M), "--seed", str(s))
        return [Job(argv, {"seed": s, "checked_samples": checked}, ENSEMBLE_SAMPLES)]

    def check(self, job: Job, result: dict) -> list[str]:
        """Replay a seeded subset of samples from the ``spawn_key=(i,)`` contract."""
        problems = []
        samples = result["samples"]
        if len(samples) != ENSEMBLE_SAMPLES:
            problems.append(f"{len(samples)} samples, expected {ENSEMBLE_SAMPLES}")
        for i, h in enumerate(samples):
            _entropy_in_bounds(h, problems, f"sample {i} H")
        if self._primes is None:
            self._primes = reference.primes_in_window(0, int(ENSEMBLE_RANGE[1] + ENSEMBLE_R))
        primes = self._primes
        lo, hi = ENSEMBLE_RANGE
        candidates = primes[(primes >= lo) & (primes <= hi)]
        for i in job.params["checked_samples"]:
            rng = np.random.Generator(np.random.Philox(
                np.random.SeedSequence(entropy=job.params["seed"], spawn_key=(i,))))
            chosen = rng.choice(candidates, size=ENSEMBLE_M, replace=False)
            d = np.concatenate([reference.window_distances(float(p), primes, ENSEMBLE_R)
                                for p in chosen])
            expected = reference.entropy_of(d, M)
            if i < len(samples) and not abs(samples[i] - expected) <= TOL:
                problems.append(f"sample {i}: H {samples[i]!r} != reference {expected!r}")
        return problems


WORKLOADS = {w.name: w for w in (NullBaseline(), PrimeQuery(), CramerQuery(), Ensemble())}
