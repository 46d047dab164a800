import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special as sp

from eigensphere import specfun
from eigensphere.specfun import (
    bessel_j,
    bessel_j_derivative,
    gauss_cdf_array,
    gauss_legendre,
    gauss_pdf_cdf,
    gegenbauer_eval_many,
    hermite_eval,
    sphere_measure,
)
from eigensphere.moments import _bessel_zeros
from eigensphere.specfun import _gegenbauer_last_two


# ---------------------------------------------------------------- gegenbauer
@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
@pytest.mark.parametrize("ell", [0, 1, 7, 50, 200])
def test_normalization_at_one(ell, d):
    assert gegenbauer_eval_many(ell, d, 1.0) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("d", range(2, 9))
def test_normalization_sweep_all_degrees(d):
    # exact: a_k - 1 is exact for a_k in [1, 2), so G_k(1) = a_k - (a_k - 1) = 1
    values = np.array([gegenbauer_eval_many(ell, d, 1.0) for ell in [*range(201), 1000, 2047, 4096]])
    assert np.all(values == 1.0)


def _gegenbauer_out_of_place(n, d, t):
    """The degree recurrence with fresh arrays at every step: the reference
    for the in-place rows of _gegenbauer_last_two."""
    if n == 0:
        return np.zeros_like(t), np.ones_like(t)
    g_prev, g = np.ones_like(t), t.copy()
    for k in range(2, n + 1):
        a = (2.0 * k + d - 3.0) / (k + d - 2.0)
        g_prev, g = g, a * (t * g) - (a - 1.0) * g_prev
    return g_prev, g


# (600, 1200) would overflow an unnormalised recurrence; this one stays in [-1, 1]
@pytest.mark.parametrize("ell, d", [(e, d) for d in (2, 3, 5) for e in (0, 1, 2, 17, 200)] + [(600, 1200)])
def test_in_place_recurrence_is_byte_identical(ell, d):
    t = np.concatenate([np.linspace(-1.0, 1.0, 1001), np.random.default_rng(ell + d).uniform(-1, 1, 500)])
    before = t.copy()
    got, ref = _gegenbauer_last_two(ell, d, t), _gegenbauer_out_of_place(ell, d, t)
    assert all(np.array_equal(a, b) for a, b in zip(got, ref, strict=True))
    assert np.array_equal(t, before)


def test_pinned_values():
    assert gegenbauer_eval_many(7, 5, 1.0) == 1.0
    assert gegenbauer_eval_many(7, 5, 1.0).size == 1
    assert gegenbauer_eval_many(1, 2, 0.3) == pytest.approx(0.3, abs=1e-15)
    # (3 t^2 - 1)/2 at t = 0
    assert gegenbauer_eval_many(2, 2, 0.0) == pytest.approx(-0.5, abs=1e-15)
    # sin((l+1)theta)/((l+1) sin theta) at theta = pi/2, l = 2
    assert gegenbauer_eval_many(2, 3, 0.0) == pytest.approx(-1.0 / 3.0, abs=1e-15)


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
def test_against_jacobi_oracle(d):
    rng = np.random.default_rng(11)
    a = d / 2.0 - 1.0
    for ell in [1, 3, 17, 64, 200]:
        t = rng.uniform(-1.0, 1.0, 40)
        ref = sp.eval_jacobi(ell, a, a, t) / sp.eval_jacobi(ell, a, a, 1.0)
        got = gegenbauer_eval_many(ell, d, t)
        assert np.max(np.abs(got - ref)) < 1e-12


def test_high_degree_closed_forms():
    ell = 2048
    # d = 3: sin((ell + 1) theta) / ((ell + 1) sin theta), on nodes that crowd
    # at the ends, where the recurrence cancels most (2.5e-12 measured)
    t = np.cos(np.linspace(0.0, math.pi, 4001)[1:-1])
    theta = np.arccos(t)
    ref = np.sin((ell + 1) * theta) / ((ell + 1) * np.sin(theta))
    assert np.max(np.abs(gegenbauer_eval_many(ell, 3, t) - ref)) < 1e-11
    # d = 2: Legendre P_ell, on even nodes (scipy's own error reaches 3.6e-11
    # within 1e-6 of the ends; 3.0e-13 measured here)
    t = np.linspace(-1.0, 1.0, 4001)[1:-1]
    assert np.max(np.abs(gegenbauer_eval_many(ell, 2, t) - sp.eval_legendre(ell, t))) < 1e-12


@settings(max_examples=60, deadline=None)
@given(
    ell=st.integers(min_value=0, max_value=80),
    d=st.integers(min_value=2, max_value=6),
    t=st.floats(min_value=0.0, max_value=1.0),
)
def test_parity(ell, d, t):
    left = gegenbauer_eval_many(ell, d, -t)
    right = (-1.0) ** ell * gegenbauer_eval_many(ell, d, t)
    assert left == pytest.approx(right, abs=1e-12)


@pytest.mark.parametrize("ell,d", [(5, 2), (40, 3), (101, 4), (60, 6)])
def test_bounded_by_one(ell, d):
    t = np.random.default_rng(2).uniform(-1.0, 1.0, 10_000)
    assert np.max(np.abs(gegenbauer_eval_many(ell, d, t))) <= 1.0 + 1e-12


def test_domain_error():
    with pytest.raises(ValueError):
        gegenbauer_eval_many(3, 2, 1.001)
    # within roundoff tolerance is clipped, not rejected
    assert gegenbauer_eval_many(3, 2, 1.0 + 1e-13) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        gegenbauer_eval_many(3, 1, 0.5)


def test_evaluator_memory_and_input():
    # one clipped copy of the arguments plus the three recurrence rows, one
    # of which is returned; the caller's array is left as it was
    t = np.random.default_rng(5).uniform(-1.0, 1.0, 10**6)
    t[:2] = 1.0 + 1e-13, -1.0 - 1e-13  # clipped in the copy, not here
    before = t.copy()
    tracemalloc.start()
    try:
        gegenbauer_eval_many(64, 3, t)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * t.nbytes + 2**20
    assert np.array_equal(t, before)


# ------------------------------------------------------------ gauss-legendre
GL_SIZES = [1, 2, 3, 16, 127, 768, 3072]


@pytest.mark.parametrize("n", GL_SIZES)
def test_gauss_legendre_exact_to_degree_2n_minus_1(n):
    # sum_i w_i P_j(x_i) = 2 delta_j0 for j <= 2n - 1, by Bonnet's recurrence
    # at the nodes (numpy's eigensolver rule misses by 4e-13 at n = 3072)
    x, w = gauss_legendre(n)
    p_prev, p = np.ones_like(x), x.copy()
    errs = [abs(w.sum() - 2.0), abs(w @ x)]
    for k in range(1, 2 * n - 1):
        p_prev, p = p, ((2 * k + 1) * x * p - k * p_prev) / (k + 1)
        errs.append(abs(w @ p))
    assert max(errs) <= 1e-14, (n, int(np.argmax(errs)), max(errs))


@pytest.mark.parametrize("n", GL_SIZES)
def test_gauss_legendre_weights_at_exact_roots(n):
    # reference in extended precision: one Newton step polishes each node to
    # a long double root r, and there the weight 2 (1 - r^2) / (n P_(n-1)(r))^2
    # equals 2 / ((1 - r^2) P_n'(r)^2), the form used here because it is
    # n + 1 times less sensitive to the rounding of r itself
    if np.finfo(np.longdouble).eps > 1e-18:
        pytest.skip("long double is no wider than double here")
    x, w = gauss_legendre(n)

    def p_and_slope(r):
        p_prev, p = np.ones_like(r), r.copy()
        for k in range(1, n):
            p_prev, p = p, ((2 * k + 1) * r * p - k * p_prev) / (k + 1)
        one_minus = (1 - r) * (1 + r)
        return p, n * (p_prev - r * p) / one_minus, one_minus

    r = x.astype(np.longdouble)
    p, dp, _ = p_and_slope(r)
    r = r - p / dp
    _, dp, one_minus = p_and_slope(r)
    ref = 2 / (one_minus * dp * dp)
    assert float(np.max(np.abs(w / ref - 1))) <= 1e-11


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 16, 64, 65, 127, 768])
def test_gauss_legendre_matches_numpy_rule(n):
    # nodes within 4 ulp on [0.5, 1) (np.spacing(1.0) / 2) of numpy's
    # eigensolver rule; near 0 both are off by several ulps of the node itself
    x, _ = gauss_legendre(n)
    x_np, _ = np.polynomial.legendre.leggauss(n)
    assert np.max(np.abs(x - x_np)) <= 4 * np.spacing(0.5)


@pytest.mark.parametrize("n", GL_SIZES)
def test_gauss_legendre_symmetry(n):
    x, w = gauss_legendre(n)
    assert np.array_equal(x, -x[::-1]) and np.array_equal(w, w[::-1])
    assert np.all(np.diff(x) > 0) and np.all(w > 0)
    if n % 2:
        assert x[n // 2] == 0.0


def test_gauss_legendre_memory():
    # O(n): numpy's eigensolver rule peaks at 72 MiB here
    tracemalloc.start()
    try:
        gauss_legendre(3072)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2**20


def test_gauss_legendre_refuses_unconverged_rule(monkeypatch):
    with pytest.raises(ValueError):
        gauss_legendre(0)
    monkeypatch.setattr(specfun, "_GL_MAX_STEPS", 1)  # Tricomi's guesses need more
    with pytest.raises(RuntimeError, match="did not converge"):
        gauss_legendre(768)


# ------------------------------------------------------------------- hermite
def test_hermite_pinned():
    assert hermite_eval(2, 3.0) == 8.0
    assert hermite_eval(0, -7.0) == 1.0
    assert hermite_eval(1, -7.0) == -7.0
    assert hermite_eval(3, 2.0) == 2.0  # t^3 - 3t


def test_hermite_orthogonality():
    # probabilists' Gauss-Hermite oracle: int H_p H_q phi = q! delta_pq
    x, w = np.polynomial.hermite_e.hermegauss(60)
    w = w / math.sqrt(2.0 * math.pi)
    for p in range(9):
        for q in range(9):
            val = float(np.sum(w * hermite_eval(p, x) * hermite_eval(q, x)))
            target = math.factorial(q) if p == q else 0.0
            assert val == pytest.approx(target, abs=1e-8)


def test_hermite_eval_matches_hermeval():
    t = np.linspace(-3, 3, 11)
    for q in range(7):
        ref = np.polynomial.hermite_e.hermeval(t, [0.0] * q + [1.0])
        np.testing.assert_allclose(hermite_eval(q, t), ref, rtol=1e-13, atol=1e-12)
        assert hermite_eval(q, float(t[7])) == pytest.approx(ref[7], rel=1e-13, abs=1e-12)


# -------------------------------------------------------------------- bessel
def test_bessel_pinned():
    assert bessel_j(0.0, 0.0) == 1.0
    # J_{1/2}(pi) = sqrt(2/(pi x)) sin(pi) ~ 0
    assert abs(bessel_j(0.5, math.pi)) < 1e-12
    # first zero of J_0
    assert abs(bessel_j(0.0, 2.404825557695773)) < 1e-10


@pytest.mark.parametrize("nu", [k / 2 for k in range(17)])
def test_bessel_accuracy_scan(nu):
    x = np.concatenate(
        [
            np.linspace(0.0, 11.0, 400),
            np.linspace(11.0, 15.0, 400),  # series/asymptotic seam band
            np.linspace(15.0, 200.0, 400),
            np.linspace(200.0, 1e4, 300),
        ]
    )
    err = np.abs(bessel_j(nu, x) - sp.jv(nu, x))
    seam = (x > 11.0) & (x < 15.0)
    if not float(nu).is_integer():  # series below max(1, nu), trig forms above
        assert err.max() < 1e-13  # 8.1e-15 measured, at 7.5
        return
    # the asymptotic series bottoms out near exp(-2x) just past the switch,
    # the more so the higher the order (1.1e-11 at 8)
    assert err[~seam].max() < 1e-12
    assert err[seam].max() < (2e-12 if nu <= 3.0 else 2e-11)


def test_bessel_halfint_trig_identity():
    x = np.linspace(0.6, 900.0, 500)
    ref = np.sqrt(2.0 / (math.pi * x)) * np.sin(x)
    assert np.max(np.abs(bessel_j(0.5, x) - ref)) < 1e-13


def test_bessel_domain():
    with pytest.raises(ValueError):
        bessel_j(0.0, -1.0)
    with pytest.raises(ValueError):
        bessel_j(0.3, 1.0)
    with pytest.raises(ValueError):
        bessel_j(-0.5, 1.0)
    for nu in (8.5, 9.0):  # past the accurate orders (0.67 off at order 9)
        with pytest.raises(ValueError, match="above 8"):
            bessel_j(nu, 20.0)


@pytest.mark.parametrize("nu", [0.0, 0.5, 1.0, 1.5, 2.0, 7.5, 8.0])
def test_bessel_zero_refinement(nu):
    z = _bessel_zeros(nu, 60)
    assert np.max(np.abs(bessel_j(nu, z))) < 1e-12
    assert np.all(np.diff(z) > 0)


def test_bessel_derivative():
    x = np.linspace(0.4, 40.0, 200)
    for nu in [0.0, 0.5, 1.0, 2.0]:
        assert np.max(np.abs(bessel_j_derivative(nu, x) - sp.jvp(nu, x))) < 5e-12
    for nu in [7.5, 8.0]:  # from orders nu - 1 and nu: nu + 1 is past bessel_j's
        assert np.max(np.abs(bessel_j_derivative(nu, x) - sp.jvp(nu, x))) < 2e-11


# ------------------------------------------------------------- gaussian, mu_d
def test_gauss_pdf_cdf():
    pdf0, cdf0 = gauss_pdf_cdf(0.0)
    assert pdf0 == pytest.approx(1.0 / math.sqrt(2.0 * math.pi), abs=1e-16)
    assert cdf0 == 0.5
    pdf1, cdf1 = gauss_pdf_cdf(1.0)
    assert pdf1 == pytest.approx(0.24197072451914337, abs=1e-14)
    assert cdf1 == pytest.approx(0.8413447460685429, abs=1e-14)
    assert gauss_pdf_cdf(40.0) == (0.0, 1.0)
    assert gauss_pdf_cdf(-40.0)[1] == 0.0


def test_gauss_cdf_array_matches_scalar():
    z = np.linspace(-8, 8, 101)
    got = gauss_cdf_array(z)
    ref = np.array([gauss_pdf_cdf(v)[1] for v in z])
    np.testing.assert_array_equal(got, ref)


def test_sphere_measure():
    assert sphere_measure(1) == pytest.approx(2.0 * math.pi, rel=1e-15)
    assert sphere_measure(2) == pytest.approx(4.0 * math.pi, rel=1e-15)
    assert sphere_measure(3) == pytest.approx(2.0 * math.pi**2, rel=1e-15)
    with pytest.raises(ValueError):
        sphere_measure(0)
