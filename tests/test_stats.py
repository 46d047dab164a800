import math
import statistics as pystats

import numpy as np
import pytest

from eigensphere import stats
from eigensphere.field import BLOCK_DRAWS, replicate_seed, simulate
from eigensphere.functionals import defect, excursion_volume, hermite_projection
from eigensphere.stats import (
    ExperimentSpec,
    ReplicateError,
    TooFewSamplesError,
    default_resolution,
    empirical_cum4,
    ks_distance,
    run_ensemble,
    shared_grid,
    w1_distance,
)
from eigensphere.specfun import gegenbauer_eval_many

# ----------------------------------------------------------------- ensembles
def test_ensemble_determinism():
    spec = ExperimentSpec(2, 8, "projection", 64, q=2)
    a = run_ensemble(spec, 250, 7)
    b = run_ensemble(spec, 250, 7)
    assert np.array_equal(a.values, b.values)
    assert (a.mean, a.variance, a.ks_to_normal, a.w1_to_normal, a.cum4) == (
        b.mean,
        b.variance,
        b.ks_to_normal,
        b.w1_to_normal,
        b.cum4,
    )


def test_ensemble_standardization():
    s = run_ensemble(ExperimentSpec(2, 8, "projection", 64, q=2), 300, 3)
    assert abs(s.standardized.mean()) < 1e-12
    assert abs(s.standardized.var(ddof=1) - 1.0) < 1e-12
    # the standard errors of the mean and of the variance, from plug-in moments
    c = s.values - s.values.mean()
    m2, m4 = np.mean(c**2), np.mean(c**4)
    assert s.variance_stderr == pytest.approx(math.sqrt((m4 - m2**2) / 300), rel=1e-12)
    assert s.mean_stderr == pytest.approx(math.sqrt(s.variance / 300), rel=1e-12)


def test_first_projection_is_quadrature_noise():
    s = run_ensemble(ExperimentSpec(2, 8, "projection", 64, q=1), 200, 5)
    assert s.variance < 1e-16


def test_no_distances_below_minimum():
    s = run_ensemble(ExperimentSpec(2, 8, "projection", 64, q=2), 50, 5)
    assert s.ks_to_normal is None and s.w1_to_normal is None and s.cum4 is None


def test_replicate_error_tagging():
    # degree 77 on S^3 has 6084 harmonics, more than the 5929 nodes: the first block fails
    spec = ExperimentSpec(3, 77, "projection", 77, q=2)
    with pytest.raises(ReplicateError, match="needs at least 6084 nodes") as excinfo:
        run_ensemble(spec, 10, 1)
    assert excinfo.value.index == 0
    assert type(excinfo.value.__cause__) is ValueError


def test_replicate_error_tags_a_later_block(monkeypatch):
    # a failure in the second block of draws is tagged with that block's first replicate
    calls = []

    def failing(ell, grid, seeds):
        calls.append(len(seeds))
        if len(calls) == 2:
            raise RuntimeError("injected")
        return simulate(ell, grid, seeds)

    monkeypatch.setattr(stats, "simulate", failing)
    with pytest.raises(ReplicateError, match="injected") as excinfo:
        run_ensemble(ExperimentSpec(2, 8, "defect", 64), 100, 1)
    assert excinfo.value.index == BLOCK_DRAWS == calls[0]


@pytest.mark.parametrize("replicates", [2, 33, 101])
@pytest.mark.parametrize(
    "spec",
    [ExperimentSpec(2, 9, "projection", 64, q=2), ExperimentSpec(2, 8, "excursion", 64, z=1.0),
     ExperimentSpec(2, 8, "defect", 48)],
)
def test_blocked_ensemble_is_the_per_replicate_loop(spec, replicates):
    # blocks of BLOCK_DRAWS draws, the last one partial, give every replicate its own bits
    grid = shared_grid(spec.d, spec.grid_resolution)
    f = {"projection": lambda s: hermite_projection(s, spec.q), "defect": defect,
         "excursion": lambda s: excursion_volume(s, spec.z)}[spec.functional]
    loop = [f(simulate(spec.ell, grid, [seed])) for seed in replicate_seed(11, np.arange(replicates))]
    assert np.array_equal(run_ensemble(spec, replicates, 11).values, np.concatenate(loop))


def test_experiment_validation():
    with pytest.raises(ValueError):
        ExperimentSpec(2, 8, "excursion", 64)  # missing level
    with pytest.raises(ValueError):
        ExperimentSpec(2, 8, "projection", 64)  # missing order
    with pytest.raises(ValueError):
        ExperimentSpec(2, 8, "nope", 64)
    with pytest.raises(ValueError):
        run_ensemble(ExperimentSpec(2, 8, "defect", 64), 1, 0)


def test_default_resolution_rules():
    assert default_resolution(2, "defect", 128) == 768
    assert default_resolution(2, "excursion", 128) == 256
    assert default_resolution(2, "projection", 128, q=3) == 200
    assert default_resolution(2, "projection", 8, q=2) == 64
    assert default_resolution(3, "projection", 64, q=2) == 77


# ------------------------------------------------------------------ distances
def test_ks_iid_normal_within_critical_value():
    rng = np.random.default_rng(99)
    x = rng.standard_normal(10_000)
    # 1% critical value of the Kolmogorov law
    assert ks_distance(x) <= 1.63 / math.sqrt(len(x))


def test_ks_degenerate_sample():
    assert ks_distance(np.zeros(500)) == pytest.approx(0.5, abs=1e-12)


def test_ks_positive_for_shifted():
    nd = pystats.NormalDist()
    qs = np.array([nd.inv_cdf((i - 0.5) / 500) for i in range(1, 501)])
    assert ks_distance(qs) < 0.01
    assert ks_distance(qs + 1.0) > 0.3


def test_w1_quantile_sample():
    nd = pystats.NormalDist()
    qs = np.array([nd.inv_cdf((i - 0.5) / 400) for i in range(1, 401)])
    assert w1_distance(qs) == pytest.approx(0.0, abs=1e-12)
    assert w1_distance(qs + 0.25) == pytest.approx(0.25, abs=1e-12)
    assert w1_distance(qs - 0.25) == pytest.approx(0.25, abs=1e-12)


def test_distance_sample_floor():
    with pytest.raises(TooFewSamplesError):
        ks_distance(np.zeros(99))
    with pytest.raises(TooFewSamplesError):
        w1_distance(np.zeros(99))
    with pytest.raises(TooFewSamplesError):
        empirical_cum4(np.zeros(99))


# ------------------------------------------------------------------ cumulants
def test_cum4_gaussian():
    rng = np.random.default_rng(1234)
    x = rng.standard_normal(100_000)
    assert abs(empirical_cum4(x)) <= 5.0 * math.sqrt(24.0 / len(x))


def test_cum4_chi_square():
    rng = np.random.default_rng(77)
    x = rng.standard_normal(100_000) ** 2 - 1.0
    # cum4 of a centered chi-square(1) is 2^3 * 3! = 48; its estimator noise
    # is dominated by the eighth cumulant, sqrt(cum8/n) ~ 2.5 here
    assert empirical_cum4(x) == pytest.approx(48.0, abs=10.0)


# ------------------------------------------------------------ trend checks
TREND_SEED = 301  # fixed stream; trend gaps sit near the MC noise floor


def test_w1_excursion_decreases_with_degree():
    w1 = {}
    for ell in (32, 128):
        s = run_ensemble(ExperimentSpec(2, ell, "excursion", 2 * ell, z=1.0), 2000, TREND_SEED)
        w1[ell] = s.w1_to_normal
    assert w1[128] < w1[32]


def test_h3_kurtosis_decreases_with_degree():
    # fourth cumulant over squared variance of the cubic projection shrinks
    # along the degree ladder (fourth-moment proximity to Gaussian)
    vals = []
    for ell in (32, 64, 128):
        s = run_ensemble(ExperimentSpec(2, ell, "projection", 2 * ell, q=3), 2000, TREND_SEED)
        vals.append(empirical_cum4(s.standardized))
    assert vals[0] > vals[1] > vals[2], vals


# --------------------------------------------------- d=3 normality battery
def _grid_h2_variance(grid, ell, rows=400):
    """Exact variance of h_2 on a node set, 2 sum_ij w_i w_j G(<x_i, x_j>)^2, from
    the kernel on the Gram matrix (not from the sampler's factor), in row blocks."""
    x, w = grid.nodes, grid.weights
    total = 0.0
    for i in range(0, len(x), rows):
        kernel = gegenbauer_eval_many(ell, grid.d, x[i : i + rows] @ x.T)
        total += w[i : i + rows] @ kernel**2 @ w
    return 2.0 * total


def test_clt_battery_d3():
    # order-2 projections on S^3: the MC variance is the exact variance on the
    # 3600 nodes within 6 standard errors at every degree, a check that holds at
    # any seed (the grid is exact at no degree here, so this is the grid's law,
    # 0.91327 at ell = 32, not the chi^2 law's), and the top degree is close to
    # N(0,1)
    grid = shared_grid(3, 60)
    for ell in (8, 16, 32):
        s = run_ensemble(ExperimentSpec(3, ell, "projection", 60, q=2), 2000, 106)
        exact = _grid_h2_variance(grid, ell)
        assert abs(s.variance - exact) <= 6.0 * s.variance_stderr, (ell, s.variance, exact)
    assert s.ks_to_normal <= 0.05
