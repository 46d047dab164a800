import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eigensphere import moments
from eigensphere.moments import (
    NonConvergedError,
    asymptotic_constant,
    defect_variance,
    moment_integral,
    projection_variance,
    scaling_law,
)
from eigensphere.specfun import sphere_measure

C42 = 3.0 / (2.0 * math.pi**2)
# Weber-Schafheitlin: int_0^inf J_0^3 psi dpsi = 1/(2 pi A) with A the area
# of the unit equilateral triangle, i.e. 2/(pi sqrt(3)); consistent with the
# q=3 term of the defect variance lower bound 32/sqrt(27)
C32 = 2.0 / (math.pi * math.sqrt(3.0))
# reductions to sine integrals: int sin^3(x)/x dx = int sin^4(x)/x^2 dx = pi/4
C33 = math.pi / 4.0
C43 = math.pi / 4.0




@pytest.fixture(scope="module")
def oracles():
    """The benchmark's independent oracles (scipy and closed forms), loaded
    by path: ``perfbench`` is not a package."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "oracles.py"
    spec = importlib.util.spec_from_file_location("perfbench_oracles", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def legendre_moment_oracle(ell: int, q: int) -> float:
    """Exact route for d = 2: P_ell(u)^q is a polynomial of degree ell*q on
    [0, 1], integrated by Gauss-Legendre of sufficient order."""
    x, w = np.polynomial.legendre.leggauss(ell * q // 2 + 6)
    u, wu = 0.5 * (x + 1.0), 0.5 * w
    c = np.zeros(ell + 1)
    c[ell] = 1.0
    return float(np.sum(wu * np.polynomial.legendre.legval(u, c) ** q))


# ------------------------------------------------------------ moment integral
def test_pinned_integrals():
    assert moment_integral(0, 3, 2) == pytest.approx(1.0, abs=1e-12)
    assert moment_integral(2, 1, 2) == pytest.approx(0.0, abs=1e-14)
    assert moment_integral(10, 2, 2) == pytest.approx(1.0 / 21.0, abs=1e-9)
    # oracle value from legendre_moment_oracle(100, 4)
    assert moment_integral(100, 4, 2) == pytest.approx(1.0934499694085322e-4, rel=1e-10)
    # exact value from the Adams-Neumann linearization of P_ell^2:
    # sum over even L <= 2 ell of (2L+1) * (ell ell L; 0 0 0)^4, Wigner 3j
    # symbols via lgamma (legendre_moment_oracle drifts by 7e-9 here)
    assert moment_integral(1024, 4, 2) == pytest.approx(1.3884285073671306e-06, rel=1e-10)
    # (sin 3t / (3 sin t))^2 sin^2 t integrates to pi/36
    assert moment_integral(2, 2, 3) == pytest.approx(math.pi / 36.0, abs=1e-12)


@pytest.mark.parametrize("ell", range(2, 201, 2))
def test_orthogonality_sweep(ell):
    assert abs(moment_integral(ell, 2, 2) - 1.0 / (2 * ell + 1)) < 1e-10


@pytest.mark.parametrize("ell,q", [(17, 3), (64, 5), (129, 4)])
def test_against_polynomial_oracle(ell, q):
    assert moment_integral(ell, q, 2) == pytest.approx(legendre_moment_oracle(ell, q), rel=1e-9)


def _arcsin_kernel(g):
    return np.arcsin(np.clip(g, -1.0, 1.0))


@pytest.mark.parametrize("ell,q,d", [(400, 6, 5), (128, 3, 2), (37, 5, 4), (256, 2, 3), (128, "arcsin", 2)])
def test_panel_refinement(ell, q, d, monkeypatch):
    # q is a power of the kernel, or the arcsine integrand of the defect variance
    f = _arcsin_kernel if q == "arcsin" else (lambda g: g**q)
    coarse = moments._kernel_quadrature(ell, d, f)
    monkeypatch.setattr(moments, "_PANEL_NODES", 32)
    fine = moments._kernel_quadrature(ell, d, f)
    assert coarse == pytest.approx(fine, rel=1e-10)


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
def test_linearized_route_matches_quadrature(d):
    # the quadrature is the independent route; 2048 is the benchmark's top degree
    ells = [0, 1, 2, 7, 8, 63, 64, 257, 512] + ([2048] if d <= 3 else [])
    for q in (2, 3, 4):
        for ell in ells:
            if ell * q % 2:
                continue  # odd integrand: moment_integral is the quadrature itself
            exact = moment_integral(ell, q, d)
            assert exact == pytest.approx(moments._kernel_quadrature(ell, d, lambda g: g**q), rel=1e-10), (ell, q)


@pytest.mark.parametrize("ell", [2, 64, 1024, 2048])
def test_s2_moments_against_3j_oracle(ell, oracles):
    assert moment_integral(ell, 3, 2) == pytest.approx(oracles.moment_q3_s2(ell), rel=1e-10)
    assert moment_integral(ell, 4, 2) == pytest.approx(oracles.moment_q4_s2(ell), rel=1e-10)


@pytest.mark.parametrize("ell", [2, 8, 32, 128])
def test_defect_variance_against_oracle(ell, oracles):
    assert defect_variance(ell, 2) == pytest.approx(oracles.defect_variance(ell), rel=1e-10)
    assert defect_variance(ell + 1, 2) == 0.0  # the defect of an odd field is 0
    for d in (2, 3, 4):
        assert defect_variance(0, d) == pytest.approx(sphere_measure(d) ** 2, rel=1e-14)


def test_defect_variance_clips_kernel_overshoot(monkeypatch):
    # a kernel value rounded one ulp above 1 near theta = 0 must not make the arcsine nan
    exact = defect_variance(8, 2)
    eval_many = moments.gegenbauer_eval_many

    def overshoot(*args):
        g = eval_many(*args)
        g[np.argmax(g)] = np.nextafter(1.0, 2.0)
        return g

    monkeypatch.setattr(moments, "gegenbauer_eval_many", overshoot)
    assert defect_variance(8, 2) == pytest.approx(exact, rel=1e-6)


@pytest.mark.parametrize("ell", [2, 4, 16, 64])
def test_defect_variance_s3_closed_form(ell):
    # G_ell on S^3 is sin((ell+1) t) / ((ell+1) sin t); integrate the arcsine
    # of it in the pair reduction (4/pi) mu_3 mu_2 int_0^{pi/2} on panels of
    # its own: 24 nodes each, width pi/(6 (ell+1))
    edges = np.linspace(0.0, 0.5 * math.pi, 3 * (ell + 1) + 1)
    x, w = np.polynomial.legendre.leggauss(24)
    half = 0.5 * np.diff(edges)[:, None]
    t = (0.5 * (edges[1:] + edges[:-1])[:, None] + half * x).ravel()
    g = np.sin((ell + 1) * t) / ((ell + 1) * np.sin(t))
    pair = float(np.sum((half * w).ravel() * _arcsin_kernel(g) * np.sin(t) ** 2))
    exact = 4.0 / math.pi * sphere_measure(3) * sphere_measure(2) * pair
    assert defect_variance(ell, 3) == pytest.approx(exact, rel=1e-10)


@pytest.mark.parametrize("ell", [0, 2, 64, 1024, 2048, 4096])
def test_s3_closed_form_moments(ell):
    # U_ell^2 = sum_k U_(2k) on S^3 gives both moments for even ell
    exact = math.pi / (4.0 * (ell + 1) ** 3)
    assert moment_integral(ell, 3, 3) == pytest.approx(exact, rel=1e-11)
    assert moment_integral(ell, 4, 3) == pytest.approx(exact, rel=1e-11)


@settings(max_examples=40, deadline=None)
@given(
    ell=st.integers(min_value=0, max_value=120),
    q=st.sampled_from([2, 4, 6]),
    d=st.integers(min_value=2, max_value=5),
)
def test_even_power_nonnegative(ell, q, d):
    assert moment_integral(ell, q, d) >= 0.0


def test_bad_arguments():
    with pytest.raises(ValueError):
        moment_integral(-1, 2, 2)
    with pytest.raises(ValueError):
        moment_integral(4, 0, 2)
    with pytest.raises(ValueError):
        moment_integral(4, 2, 1)


# ------------------------------------------------------- asymptotic constants
def test_closed_form_constants():
    assert asymptotic_constant(2, 2) == 0.5
    assert asymptotic_constant(4, 2) == pytest.approx(C42, rel=1e-15)
    assert asymptotic_constant(2, 3) == pytest.approx(math.pi / 4.0, rel=1e-15)
    assert asymptotic_constant(2, 5) == pytest.approx(
        math.factorial(4) * sphere_measure(5) / (4 * sphere_measure(4)), rel=1e-15
    )


def test_bessel_route_constants():
    assert asymptotic_constant(3, 2) == pytest.approx(C32, abs=1e-8)
    assert asymptotic_constant(3, 3) == pytest.approx(C33, rel=1e-9)
    assert asymptotic_constant(4, 3) == pytest.approx(C43, rel=1e-9)


def test_constant_vs_scaled_moment_at_500():
    for q, tol in ((3, 0.02), (5, 0.02)):
        c = asymptotic_constant(q, 2)
        assert 500**2 * moment_integral(500, q, 2) == pytest.approx(c, rel=tol)


def test_two_route_consistency_trend():
    for q, d in ((3, 2), (5, 2), (3, 3), (4, 3), (3, 4)):
        c = asymptotic_constant(q, d)
        if abs(c) < 1e-3:
            continue
        rels = [abs(ell**d * moment_integral(ell, q, d) / c - 1.0) for ell in (64, 128, 256, 512)]
        assert all(b < a for a, b in zip(rels, rels[1:])), (q, d, rels)
        assert rels[-1] <= 0.05


def test_constant_errors(monkeypatch):
    with pytest.raises(ValueError):
        asymptotic_constant(1, 2)
    monkeypatch.setattr(moments, "_CONSTANT_TOL", 1e-12)
    monkeypatch.setattr(moments, "_MAX_ZEROS", 6)
    with pytest.raises(NonConvergedError):
        asymptotic_constant(3, 2)


def test_sign_probe_reports_only():
    # odd q in 3..7 crossed with d in 2..6: strict positivity of every pair is
    # open, so a constant is positive or its Bessel integral did not converge
    for d in range(2, 7):
        for q in (3, 5, 7):
            try:
                c = asymptotic_constant(q, d)
            except NonConvergedError:
                continue
            assert math.isfinite(c) and c > 0, (q, d, c)


# --------------------------------------------------------- projection variance
def test_projection_variance_values():
    # 2 * 2! * mu_2 * mu_1 * 1/21
    assert projection_variance(10, 2, 2) == pytest.approx(32.0 * math.pi**2 / 21.0, abs=1e-8)
    # 2 * 2! * mu_3 * mu_2 * pi/36 = 8 pi^4 / 9
    assert projection_variance(2, 2, 3) == pytest.approx(8.0 * math.pi**4 / 9.0, rel=1e-10)


def test_projection_variance_parity():
    with pytest.raises(ValueError):
        projection_variance(11, 2, 2)


def test_q2_variance_scaling():
    # ell^(d-1) * Var / (4 mu_d mu_{d-1}) approaches (d-1)! mu_d/(4 mu_{d-1})
    for d, ell, tol in ((2, 200, 0.005), (3, 64, 0.05)):
        v = projection_variance(ell, 2, d)
        scaled = ell ** (d - 1) * v / (4.0 * sphere_measure(d) * sphere_measure(d - 1))
        assert scaled == pytest.approx(asymptotic_constant(2, d), rel=tol)


# ----------------------------------------------------------------- scaling law
def test_scaling_law_cases():
    law = scaling_law(2, 5)
    assert law.exponent == -4 and law.log_power == 0
    assert law.constant == pytest.approx(math.factorial(4) * sphere_measure(5) / (4 * sphere_measure(4)))
    law = scaling_law(4, 2)
    assert (law.exponent, law.log_power) == (-2, 1)
    assert law.constant == pytest.approx(C42)
    law = scaling_law(5, 2)
    assert (law.exponent, law.log_power) == (-2, 0)
    assert law.constant == pytest.approx(asymptotic_constant(5, 2))


# ------------------------------------------------------------------ log growth
def test_log_law_constant_from_increments():
    # the additive o(1) term cancels in increments: the slope of
    # ell^2 * I against log(ell) recovers the constant itself
    i1 = moment_integral(1024, 4, 2) * 1024**2
    i0 = moment_integral(512, 4, 2) * 512**2
    fitted = (i1 - i0) / math.log(2.0)
    assert fitted == pytest.approx(C42, rel=0.03)
