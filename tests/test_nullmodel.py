import json
import math

import numpy as np
import pytest

from specent import (
    ConfigurationError,
    DistanceMultiset,
    InvalidArgumentError,
    NullBaseline,
    PoissonConfig,
    baseline_from_estimate,
    check_bin_stabilization,
    estimate_null_entropy,
    full_pipeline,
    load_null_baseline,
    null_entropy_once,
    write_baseline,
)
from specent.nullmodel import BASELINE_ENV_VAR, MAX_LAMBDA_R, _extrema

from oracles import oracle_poisson_distances


def test_simulation_is_deterministic():
    cfg = PoissonConfig(intensity=1.0, radius=1000.0, seed=5)
    a = null_entropy_once(cfg, 50, replicate=3)
    b = null_entropy_once(cfg, 50, replicate=3)
    assert a.H == b.H
    assert np.array_equal(a.weights, b.weights)
    c = null_entropy_once(cfg, 50, replicate=4)
    assert a.H != c.H


def test_counts_match_poisson_statistics():
    # Mean count over replicates should sit within 4 sigma of lambda * R.
    lam, R, reps = 1.0, 1e4, 100
    cfg = PoissonConfig(intensity=lam, radius=R, seed=21)
    counts = [null_entropy_once(cfg, 50, replicate=i).provenance["count"] for i in range(reps)]
    mean = float(np.mean(counts))
    tol = 4 * math.sqrt(lam * R) / math.sqrt(reps)
    assert abs(mean - lam * R) <= tol


def test_first_point_is_exponential():
    # Kolmogorov-Smirnov distance to Exp(lambda) below the documented 0.1
    # sanity bound at 500 replicates.
    lam = 1.0
    cfg = PoissonConfig(intensity=lam, radius=50.0, seed=33)
    firsts = []
    for i in range(500):
        _, _, log_max, log_ratio = _extrema(cfg, i)
        firsts.append(math.exp(log_max - log_ratio))
    firsts = np.sort(firsts)
    ecdf_hi = np.arange(1, 501) / 500
    ecdf_lo = np.arange(0, 500) / 500
    cdf = 1.0 - np.exp(-lam * firsts)
    ks = max(np.max(np.abs(ecdf_hi - cdf)), np.max(np.abs(cdf - ecdf_lo)))
    assert ks < 0.1


def test_lambda_scaling_equals_radius_scaling():
    # The sampler sees lambda and R only through lambda * R (R sets the
    # scale of the bin edges, which the spectrum ignores), so equal products
    # give the same entropies replicate by replicate.  This is the
    # finite-sample content of lambda-independence.
    for rep in range(5):
        half = null_entropy_once(PoissonConfig(intensity=0.5, radius=2e4, seed=11), 50, replicate=rep)
        unit = null_entropy_once(PoissonConfig(intensity=1.0, radius=1e4, seed=11), 50, replicate=rep)
        assert half.H == pytest.approx(unit.H, abs=1e-12)


def _ks_statistic(a, b):
    """Two-sample Kolmogorov-Smirnov distance sup |F_a - F_b|."""
    a, b = np.sort(a), np.sort(b)
    grid = np.concatenate([a, b])
    cdf_a = np.searchsorted(a, grid, side="right") / a.size
    cdf_b = np.searchsorted(b, grid, side="right") / b.size
    return float(np.max(np.abs(cdf_a - cdf_b)))


@pytest.mark.parametrize("lam_r, renewal_reps", [(1e3, 2000), (1e4, 700), (1e5, 350)])
def test_count_sampler_matches_renewal_simulation(lam_r, renewal_reps):
    # The exact count sampler against the renewal simulation it replaces,
    # each through the same binning -> spectrum -> entropy stages, on
    # disjoint seeds.  Bounds: the renewal standard error is at most 1.5e-3,
    # the means agree within 3 combined standard errors, and a two-sample
    # KS test on H passes at alpha = 1e-3 (asymptotic critical value
    # sqrt(-log(alpha / 2) / 2) * sqrt((n + m) / (n m))).
    sampler_reps, alpha = 4000, 1e-3
    renewal = np.array([
        full_pipeline(DistanceMultiset.from_values(oracle_poisson_distances(1.0, lam_r, 1, i)),
                      50).H
        for i in range(renewal_reps)
    ])
    renewal_se = renewal.std(ddof=1) / math.sqrt(renewal_reps)
    assert renewal_se <= 1.5e-3
    cfg = PoissonConfig(intensity=1.0, radius=lam_r, seed=2)
    est = estimate_null_entropy(50, cfg, sampler_reps)
    assert est.degenerate_count == 0
    assert abs(est.mean_H - renewal.mean()) <= 3 * math.hypot(est.std_error, renewal_se)
    n, m = renewal_reps, sampler_reps
    critical = math.sqrt(-math.log(alpha / 2) / 2) * math.sqrt((n + m) / (n * m))
    assert _ks_statistic(renewal, est.per_replicate_H) < critical


def test_estimate_aggregates_per_replicate_values():
    cfg = PoissonConfig(intensity=1.0, radius=1e3, seed=3)
    est = estimate_null_entropy(50, cfg, 20)
    per = np.asarray(est.per_replicate_H)
    assert per.size == 20
    assert est.mean_H == pytest.approx(per.mean(), abs=1e-15)
    assert est.std_error == pytest.approx(per.std(ddof=1) / math.sqrt(20), abs=1e-15)
    assert est.degenerate_count == 0


def test_estimate_is_reproducible():
    cfg = PoissonConfig(intensity=1.0, radius=1e3, seed=8)
    first = estimate_null_entropy(50, cfg, 16)
    rerun = estimate_null_entropy(50, cfg, 16)
    assert np.array_equal(first.per_replicate_H, rerun.per_replicate_H)
    assert first.mean_H == rerun.mean_H


def test_estimate_needs_two_replicates():
    cfg = PoissonConfig(intensity=1.0, radius=1e3, seed=8)
    with pytest.raises(InvalidArgumentError):
        estimate_null_entropy(50, cfg, 1)


def test_tiny_lambda_r_aborts():
    # Expected count ~0.5: most replicates are empty or single-valued, far
    # beyond the 1% degenerate budget.
    cfg = PoissonConfig(intensity=1.0, radius=0.5, seed=4)
    with pytest.raises(ConfigurationError):
        estimate_null_entropy(50, cfg, 100)


def test_invalid_config_rejected():
    with pytest.raises(InvalidArgumentError):
        PoissonConfig(intensity=0.0, radius=10.0, seed=1)
    with pytest.raises(InvalidArgumentError):
        PoissonConfig(intensity=1.0, radius=-1.0, seed=1)
    with pytest.raises(InvalidArgumentError, match="intensity\\*radius"):
        PoissonConfig(intensity=1e10, radius=1e10, seed=1)
    PoissonConfig(intensity=1.0, radius=MAX_LAMBDA_R, seed=1)


def test_once_provenance_keys():
    rep = null_entropy_once(PoissonConfig(intensity=1.0, radius=1e3, seed=2), 50)
    assert rep.provenance["model"] == "poisson"
    assert rep.provenance["lambda"] == 1.0
    assert rep.provenance["R"] == 1e3
    assert rep.provenance["seed"] == 2


def test_stabilization_trends():
    cfg = PoissonConfig(intensity=1.0, radius=1e4, seed=6)
    report = check_bin_stabilization(cfg, (1e2, 1e3, 1e4), 50)
    gaps = report.mean_abs_log_dmax_gap
    assert gaps[0] > gaps[1] > gaps[2]
    for i, radius in enumerate(report.radii):
        assert report.mean_log_dmin[i] <= math.log(radius)  # d_min <= d_max <= R
        assert abs(report.mean_dmin[i] - 1.0) <= 4 * report.stderr_dmin[i]


def test_baseline_round_trip(tmp_path):
    est = estimate_null_entropy(50, PoissonConfig(intensity=1.0, radius=1e3, seed=12), 10)
    baseline = baseline_from_estimate(est)
    path = tmp_path / "base.json"
    write_baseline(baseline, path)
    loaded = load_null_baseline(path)
    assert loaded == baseline
    payload = json.loads(path.read_text())
    assert payload["format_version"] == 1
    assert payload["lambda"] == 1.0


def test_baseline_env_override(tmp_path, monkeypatch):
    custom = NullBaseline(M=50, mean=3.5, stderr=0.01, intensity=1.0,
                          radius=1e5, replicates=100, seed=77)
    path = tmp_path / "override.json"
    write_baseline(custom, path)
    monkeypatch.setenv(BASELINE_ENV_VAR, str(path))
    assert load_null_baseline() == custom


def test_packaged_baseline_loads(monkeypatch):
    monkeypatch.delenv(BASELINE_ENV_VAR, raising=False)
    baseline = load_null_baseline()
    assert baseline.M == 50
    assert baseline.intensity == 1.0
    assert baseline.radius == 1e6
    assert baseline.replicates == 500
    assert 0 < baseline.mean < math.log(50)
    assert baseline.stderr > 0
