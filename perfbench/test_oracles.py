"""Tests of the benchmark's oracles, checks and span arithmetic.

    python3 -m pytest -q perfbench

They use sympy and scipy as references and fabricate program output, so
they need no eigensphere import.  The last group shows that the checks
refuse a wrong constant and a doubled variance.
"""
import math
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import integrate, special
from sympy.physics.wigner import wigner_3j

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import oracles as orc  # noqa: E402
import spans  # noqa: E402
from workloads import KNOWN_FAULT_SEED, WORKLOADS  # noqa: E402


def test_sphere_measure():
    assert orc.sphere_measure(1) == pytest.approx(2 * math.pi, rel=1e-14)
    assert orc.sphere_measure(2) == pytest.approx(4 * math.pi, rel=1e-14)
    assert orc.sphere_measure(3) == pytest.approx(2 * math.pi**2, rel=1e-14)
    assert orc.sphere_measure(4) == pytest.approx(8 * math.pi**2 / 3, rel=1e-14)


@pytest.mark.parametrize("ell", [0, 1, 2, 7, 64])
def test_eigenspace_dim(ell):
    assert orc.eigenspace_dim(ell, 2) == 2 * ell + 1
    assert orc.eigenspace_dim(ell, 3) == (ell + 1) ** 2
    assert orc.eigenspace_dim(ell, 4) == (ell + 1) * (ell + 2) * (2 * ell + 3) // 6


@pytest.mark.parametrize("l1,l2,l3", [(1, 1, 0), (2, 2, 2), (3, 4, 5), (10, 10, 4), (12, 12, 12), (2, 3, 4)])
def test_threej_against_sympy(l1, l2, l3):
    want = float(wigner_3j(l1, l2, l3, 0, 0, 0))
    assert float(orc.threej_zero(l1, l2, l3)) == pytest.approx(want, abs=1e-15, rel=1e-13)


@pytest.mark.parametrize("ell", [2, 16, 64])
@pytest.mark.parametrize("d", [2, 3, 4])
def test_exact_moments_match_quadrature(ell, d):
    for q in (2, 3, 4):
        exact = orc.exact_moment(ell, q, d)
        if exact is not None:
            assert orc.moment_quadrature(ell, q, d) == pytest.approx(exact, rel=1e-11)


def test_covariance_poly_is_one_at_the_pole_and_matches_scipy():
    t = np.linspace(0.0, 1.5, 7)
    for d in (2, 3, 4):
        assert orc.covariance_poly(12, d, np.array([0.0]))[0] == pytest.approx(1.0, rel=1e-14)
    # d = 3 closed form against scipy's Gegenbauer C^(1) = Chebyshev U
    want = special.eval_chebyu(12, np.cos(t)) / 13
    assert np.allclose(orc.covariance_poly(12, 3, t), want, rtol=1e-12, atol=1e-14)


def test_closed_form_constants():
    assert orc.closed_form_constant(2, 2) == pytest.approx(0.5, rel=1e-14)
    assert orc.closed_form_constant(4, 2) == pytest.approx(0.15198177546350666, rel=1e-14)
    assert orc.closed_form_constant(3, 3) == pytest.approx(math.pi / 4, rel=1e-15)
    assert orc.closed_form_constant(5, 2) is None
    # ell^(d-1) I(ell, 2, d) approaches the q = 2 constant like 1/ell
    for d in (2, 3, 4):
        scaled = orc.scaled_moment(4096, 2, d, orc.moment_q2(4096, d))
        assert scaled == pytest.approx(orc.closed_form_constant(2, d), rel=2 * d / 4096)


def test_chi2_law_matches_projection_variance():
    for ell, d in ((32, 2), (8, 3)):
        law = orc.Chi2Law(ell, d)
        want = orc.projection_variance(ell, 2, d, orc.moment_q2(ell, d))
        assert law.variance == pytest.approx(want, rel=1e-13)
        assert law.variance == pytest.approx(2 * orc.sphere_measure(d) ** 2 / law.n, rel=1e-13)
        assert 0 < law.ks_to_normal() < 0.05 and 0 < law.w1_to_normal() < 0.1


def test_var_h3_from_threej():
    # Var h_3 = 2 3! mu_2 mu_1 (ell ell ell; 0 0 0)^2
    ell = 10
    want = 2 * 6 * 4 * math.pi * 2 * math.pi * float(wigner_3j(ell, ell, ell, 0, 0, 0)) ** 2
    assert orc.projection_variance(ell, 3, 2, orc.moment_q3_s2(ell)) == pytest.approx(want, rel=1e-12)


def test_excursion_mean_and_expansion():
    assert orc.excursion_mean(1.0, 2) == pytest.approx(4 * math.pi * 0.15865525393145707, rel=1e-14)
    assert orc.excursion_mean(0.0, 3) == pytest.approx(math.pi**2, rel=1e-14)
    coeffs = orc.indicator_hermite_coeffs(0.0, 4)
    assert coeffs[1] == pytest.approx(1 / math.sqrt(2 * math.pi)) and coeffs[2] == 0.0


def test_defect_variance():
    assert abs(orc.defect_variance(7)) < 1e-12  # odd degree: the defect vanishes
    want, _ = integrate.quad(lambda t: math.asin((3 * t * t - 1) / 2), -1, 1, limit=200)
    assert orc.defect_variance(2) == pytest.approx(16 * math.pi * want, rel=1e-10)


def _csv(header, row):
    return ",".join(header) + "\n" + ",".join(str(v) for v in row) + "\n"


def _moments_text(ell, q, d, value):
    const = orc.closed_form_constant(q, d)
    scaled = orc.scaled_moment(ell, q, d, value)
    return _csv(["d", "ell", "q", "value", "scaled", "target", "rel_err"],
                [d, ell, q, value, scaled, const, abs(scaled - const) / const])


def test_moment_check_refuses_a_wrong_value():
    cfg = dict(command="moments", q=4, d=2, ell_list=[256])
    good = orc.moment_q4_s2(256)
    assert checks.check_output(cfg, _moments_text(256, 4, 2, good)).passed
    assert not checks.check_output(cfg, _moments_text(256, 4, 2, 2 * good)).passed


@pytest.mark.parametrize("q,d,wrong", [(4, 2, 3 / math.pi**2), (3, 3, math.pi / 2), (3, 2, 0.7351)])
def test_constant_check_refuses_a_wrong_constant(q, d, wrong):
    cfg = dict(command="constants", q=q, d=d, ell_list=[8])
    method = "closed-form" if (q, d) == (4, 2) else "bessel-integral"
    right = orc.closed_form_constant(q, d) or 0.36755259694781994
    text = "q,d,value,method\n{},{},{},{}\n"
    assert checks.check_output(cfg, text.format(q, d, right, method)).passed
    assert not checks.check_output(cfg, text.format(q, d, wrong, method)).passed


def _ensemble_text(cfg, factor):
    """A row of ``cfg``'s command with exact values, the variance times ``factor``."""
    ell, n_rep, d = cfg["ell_list"][0], cfg["replicates"], cfg["d"]
    echo = {"d": d, "ell": ell, "replicates": n_rep, "seed": cfg["seed"]}
    if cfg["command"] == "clt":
        q = cfg["q"]
        law = orc.Chi2Law(ell, d)
        if q == 2:
            var, stats_ = law.variance, (law.ks_to_normal(), law.w1_to_normal(), law.cum4)
        else:
            var, stats_ = orc.projection_variance(ell, 3, 2, orc.moment_q3_s2(ell)), (0.02, 0.03, 0.0)
        row = dict(echo, q=q, resolution=checks.expected_resolution(d, "projection", ell, q),
                   value=factor * var, stderr=var * math.sqrt(2 / n_rep))
        row.update(zip(("ks", "w1", "cum4"), stats_))
    elif cfg["command"] == "excursion":
        ev, mean = orc.expansion_variance(1.0, 8, ell, d), orc.excursion_mean(1.0, d)
        row = dict(echo, z=1.0, resolution=checks.expected_resolution(d, "excursion", ell), value=mean,
                   stderr=math.sqrt(factor * ev / n_rep), variance=factor * ev,
                   expansion_variance=ev, target_mean=mean, ks=0.03)
    else:
        scaled = ell * ell * orc.defect_variance(ell)
        row = dict(echo, resolution=checks.expected_resolution(d, "defect", ell), value=factor * scaled,
                   stderr=scaled * math.sqrt(2 / n_rep), mean=0.0,
                   mean_stderr=math.sqrt(factor * scaled / ell**2 / n_rep), ks=0.01)
    return _csv(list(row), list(row.values()))


ENSEMBLES = [
    (w.name, op.name, cfg)
    for w in WORKLOADS.values()
    for op, cfg in w.round_ops(7, 0)
    if op.config["command"] != "moments" and op.config["command"] != "constants" and not op.known_fault
]


@pytest.mark.parametrize("workload,name,cfg", ENSEMBLES, ids=[f"{w}:{n}" for w, n, _ in ENSEMBLES])
def test_variance_checks_refuse_a_doubled_variance_at_the_workload_sizes(workload, name, cfg):
    assert checks.check_output(cfg, _ensemble_text(cfg, 1.0)).passed
    assert not checks.check_output(cfg, _ensemble_text(cfg, 2.0)).passed


def test_h3_cum4_window_allows_one_far_replicate():
    # seed 50900001: one replicate at 7.2 sd lifts the sample excess
    # kurtosis of h_3 to 3.20; 20 000 replicates give 0.62 to 0.71
    cfg = dict(command="clt", d=2, q=3, ell_list=[32], replicates=1000, seed=50900001)
    text = _ensemble_text(cfg, 1.0)
    var = float(checks.parse_csv(text)[0]["value"])
    for cum4, ok in ((3.20 * var**2, True), (20.0 * var**2, False), (-2.5 * var**2, False)):
        assert checks.check_output(cfg, text.replace(",0.0\n", f",{cum4}\n")).passed is ok


def test_defect_check_is_two_sided():
    cfg = dict(command="defect", d=2, ell_list=[32], replicates=1000, seed=3)
    assert checks.check_output(cfg, _ensemble_text(cfg, 1.07)).passed
    assert not checks.check_output(cfg, _ensemble_text(cfg, 0.5)).passed


def test_layer_metrics_busy_and_self_time():
    ms = 1_000_000
    spans_ = [
        ["stats.run_ensemble", 0, 10 * ms, -1, None],
        ["field.simulate", 1 * ms, 4 * ms, 0, {"nodes": 100, "first": 1, "rss_mb": 2.0}],
        ["field.simulate", 5 * ms, 6 * ms, 0, {"nodes": 100}],
    ]
    m = spans.layer_metrics(spans_)
    assert m["field.simulate.s"] == pytest.approx(0.004)
    assert m["field.simulate.calls"] == 2
    assert m["field.simulate.first_s"] == pytest.approx(0.003)
    assert m["field.simulate.nodes_per_s"] == pytest.approx(200 / 0.004)
    assert m["field.cache_rss_mb"] == 2.0
    assert m["stats.run_ensemble.self_s"] == pytest.approx(0.006)
    assert m["cli.run.s"] == 0.0 and set(m) == set(spans.METRICS)


def test_rounds_are_seeded_and_the_known_fault_is_not():
    wl = WORKLOADS["s3-chaos"]
    a, b = wl.round_ops(1, 0), wl.round_ops(2, 0)
    assert a == wl.round_ops(1, 0)
    assert a[0][1]["seed"] != b[0][1]["seed"]
    assert a[1][1]["seed"] == b[1][1]["seed"] == KNOWN_FAULT_SEED
    assert a[0][1]["seed"] != wl.round_ops(1, 1)[0][1]["seed"]
