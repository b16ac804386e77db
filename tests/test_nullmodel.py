import json
import math

import numpy as np
import pytest

from specent import (
    ConfigurationError,
    DegenerateRangeError,
    DistanceMultiset,
    EmptyDistancesError,
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
from specent.nullmodel import _STREAM_BLOCK, BASELINE_ENV_VAR, MAX_LAMBDA_R
from specent.rng import generator

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


def test_first_point_is_exponential(monkeypatch):
    # Kolmogorov-Smirnov distance to Exp(lambda) below the documented 0.1
    # sanity bound at 500 replicates, on the nearest points the package draws:
    # cell j's is E1 / lambda, E1 the first exponential of its block row.
    from specent import nullmodel

    real, drawn = nullmodel.generator, []

    class Recording:
        def __init__(self, *key):
            self.rng = real(*key)

        def standard_exponential(self, size):
            drawn.append(self.rng.standard_exponential(size))
            return drawn[-1]

    monkeypatch.setattr(nullmodel, "generator", Recording)
    lam = 0.5
    report = check_bin_stabilization(PoissonConfig(intensity=lam, radius=1e4, seed=33), (1e4,), 500)
    firsts = drawn[0][:500, 0] / lam
    assert len(drawn) == 1 and report.mean_dmin[0] == firsts.mean()
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


def test_stabilization_cells_equal_single_extrema_draws():
    # Cell k = i * reps + j is row k mod B of block k // B, B = 2**14: its
    # nearest distance is E1 / lambda and its farthest R - E2 / lambda.
    # 3 x 6000 cells span two blocks.
    lam, radii, reps = 2.0, (1e2, 1e3, 1e4), 6000
    report = check_bin_stabilization(PoissonConfig(intensity=lam, radius=1e4, seed=6),
                                     radii, reps)
    rows = _STREAM_BLOCK // 2
    e = np.concatenate([generator(6, 0).standard_exponential((rows, 2)),
                        generator(6, 1).standard_exponential((3 * reps - rows, 2))])
    d_min, back = (e / lam).T.reshape(2, 3, reps)
    d_max = np.array(radii)[:, None] - back
    assert np.all(d_min < d_max)  # no cell with a single point
    gap = np.abs(np.log(d_max) - np.log(radii)[:, None]).mean(axis=1)
    assert np.array_equal(report.mean_abs_log_dmax_gap, gap)
    assert np.array_equal(report.mean_log_dmin, np.log(d_min).mean(axis=1))
    assert np.array_equal(report.mean_dmin, d_min.mean(axis=1))
    assert np.array_equal(report.stderr_dmin, d_min.std(axis=1, ddof=1) / math.sqrt(reps))


def test_stabilization_rejects_an_unsorted_grid():
    # The grid rule of stability_profile: a decreasing grid is an error,
    # never sorted into another one.
    cfg = PoissonConfig(intensity=1.0, radius=1e4, seed=6)
    with pytest.raises(InvalidArgumentError, match="radius grid must be non-decreasing"):
        check_bin_stabilization(cfg, (1e2, 1e4, 1e3), 4)
    # A repeated radius is a non-decreasing grid.
    assert check_bin_stabilization(cfg, (1e2, 1e2), 4).radii.tolist() == [1e2, 1e2]


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


def test_replicates_above_cap_are_rejected():
    # Checked before any replicate is drawn or any task list is built; run
    # against a tree with the cap only.
    from specent.nullmodel import MAX_REPLICATES

    config = PoissonConfig(intensity=1.0, radius=1e3, seed=1)
    with pytest.raises(InvalidArgumentError, match=f"at most {MAX_REPLICATES}"):
        estimate_null_entropy(50, config, MAX_REPLICATES + 1)
    with pytest.raises(InvalidArgumentError, match=f"at most {MAX_REPLICATES}"):
        check_bin_stabilization(config, (1e2, 1e3), MAX_REPLICATES + 1)
    # The stabilization cap counts every (radius, replicate) cell.
    with pytest.raises(InvalidArgumentError, match="radii x replicates"):
        check_bin_stabilization(config, (1e2, 1e3), MAX_REPLICATES // 2 + 1)


def _single_report_values(config, M, replicates):
    """Every non-degenerate replicate's H from its own report, and the degenerate count."""
    values = []
    for i in range(replicates):
        try:
            values.append(null_entropy_once(config, M, replicate=i).H)
        except (EmptyDistancesError, DegenerateRangeError):
            pass
    return values, replicates - len(values)


@pytest.mark.parametrize("M", [2, 50, 1000])
@pytest.mark.parametrize("lam_r", [1e3, 1e6, 1e18])
def test_batched_null_values_equal_single_replicate_reports(M, lam_r):
    # 70 replicates span three kernel blocks at M = 1000, the last partial.
    config = PoissonConfig(intensity=1.0, radius=lam_r, seed=9)
    est = estimate_null_entropy(M, config, 70)
    expected, degenerate = _single_report_values(config, M, 70)
    assert [h.hex() for h in est.per_replicate_H.tolist()] == [h.hex() for h in expected]
    assert est.degenerate_count == degenerate
    assert np.all(est.per_replicate_H >= 0.0)
    assert np.all(est.per_replicate_H <= math.log(M))


def test_batched_null_skips_the_same_degenerate_replicates():
    config = PoissonConfig(intensity=1.0, radius=8.0, seed=5)
    est = estimate_null_entropy(8, config, 2000)
    expected, degenerate = _single_report_values(config, 8, 2000)
    assert degenerate == 7
    assert est.degenerate_count == degenerate
    assert [h.hex() for h in est.per_replicate_H.tolist()] == [h.hex() for h in expected]


@pytest.mark.parametrize("M", [2, 50, 1000])
def test_single_reports_equal_estimate_values_across_block_boundaries(M):
    # Replicate i is row i mod B of block i // B, B = max(1, 2**15 // M); a
    # single report draws only the rows up to its own.
    rows = max(1, _STREAM_BLOCK // M)
    config = PoissonConfig(intensity=1.0, radius=1e3, seed=4)
    est = estimate_null_entropy(M, config, 2 * rows + 2)
    assert est.degenerate_count == 0
    for i in (0, rows - 1, rows, rows + 1, 2 * rows + 1):
        assert null_entropy_once(config, M, i).H.hex() == est.per_replicate_H[i].hex()


def test_a_nearest_point_drawn_at_zero_stays_finite(monkeypatch):
    # standard_exponential returns exactly 0 about once in 2**53 draws; no
    # NaN or inf may then reach poisson or a report.
    from specent import nullmodel

    real = nullmodel.generator

    class ZeroNearest:
        def __init__(self, *key):
            self.rng = real(*key)

        def standard_exponential(self, size):
            e = self.rng.standard_exponential(size)
            e[0, 0] = 0.0
            return e

        def poisson(self, lam):
            assert np.all(np.isfinite(lam)) and np.all(lam >= 0)
            return self.rng.poisson(lam)

    monkeypatch.setattr(nullmodel, "generator", ZeroNearest)
    config = PoissonConfig(intensity=1.0, radius=1e3, seed=1)
    est = estimate_null_entropy(50, config, 10)
    assert est.degenerate_count == 0 and np.all(np.isfinite(est.per_replicate_H))
    assert math.isfinite(null_entropy_once(config, 50, 0).H)
    report = check_bin_stabilization(config, (1e2, 1e3), 5)
    assert np.all(np.isfinite(report.mean_log_dmin)) and np.all(report.mean_dmin > 0)
