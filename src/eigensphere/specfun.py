"""Special functions evaluated by exact recurrences.

Everything downstream (moment integrals, covariance kernels, chaos
coefficients) funnels through this module, so the routines here are kept
dependency-free (numpy only) and are cross-checked in the test suite
against closed forms and scipy.  One three-term recurrence, of the
Gegenbauer kernel normalised to 1 at t = 1, serves the kernel and the
Gauss-Legendre rule (the d = 2 kernel is P_n).  The associated functions
sin^j G^(d+2j) behind the harmonics of S^d have their own degree-major
recurrence in ``field``.
"""
from __future__ import annotations

import math

import numpy as np

__all__ = [
    "gauss_legendre",
    "gegenbauer_eval_many",
    "hermite_eval",
    "bessel_j",
    "gauss_pdf_cdf",
    "sphere_measure",
]

# |t| may exceed 1 by at most this much (roundoff from inner products).
_T_TOL = 1e-12

# Newton steps gauss_legendre may take, and the largest correction it accepts
# as converged (absolute, on nodes in [-1, 1]).  From Tricomi's guesses it
# takes four steps for 2 <= n <= 46 and three above (checked to n = 4096),
# the last one confirming convergence.
_GL_MAX_STEPS = 8
_GL_TOL = 4.0 * np.finfo(float).eps

# Integer orders: power series below, large-argument evaluation above.  The
# measured absolute error (tests/test_specfun.py) is <= 3e-13 off the seam; in
# 11 < x < 15, where the asymptotic series bottoms out near exp(-2x), it is
# <= 2e-12 to order 3 and 1.1e-11 at 8, but 0.67 at 9: orders stop at 8.
# Half-integer orders use closed trig forms above x = max(1, nu) and the
# series below, where the trig forms' upward recurrence is unstable: <= 1e-14.
_BESSEL_SWITCH = 12.0
_BESSEL_MAX_ORDER = 8.0


def sphere_measure(d: int) -> float:
    """Surface measure of the unit d-sphere, 2*pi^((d+1)/2)/Gamma((d+1)/2)."""
    if d < 1:
        raise ValueError(f"sphere dimension must be >= 1, got {d}")
    return 2.0 * math.pi ** ((d + 1) / 2) / math.gamma((d + 1) / 2)


def _gegenbauer_last_two(n: int, d: int, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """G_(n-1)(t) and G_n(t) (G_(-1) = 0) of the kernel on S^d normalised to
    G(1) = 1, by G_k = a_k t G_(k-1) - (a_k - 1) G_(k-2) with
    a_k = (2k + d - 3)/(k + d - 2), on three rows updated in place; ``t`` is not
    written.

    a_k lies in [1, 2), so a_k - 1 is exact and G_k(1) = 1 exactly; |G| <= 1
    keeps every step in range, with no rescaling.  At d = 2 this is Bonnet's
    recurrence for the Legendre P_n.
    """
    if n == 0:
        return np.zeros_like(t), np.ones_like(t)
    g_prev, g, g_next = np.ones_like(t), t.copy(), np.empty_like(t)
    for k in range(2, n + 1):
        a = (2.0 * k + d - 3.0) / (k + d - 2.0)
        np.multiply(t, g, out=g_next)
        g_next *= a
        g_prev *= a - 1.0
        g_next -= g_prev  # = a t G_(k-1) - (a - 1) G_(k-2)
        g_prev, g, g_next = g, g_next, g_prev
    return g_prev, g


def gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre rule on [-1, 1]: n increasing nodes and their weights,
    exact for polynomials of degree <= 2n - 1.

    Newton's method on P_n (the d = 2 kernel; its recurrence also gives
    P_(n-1) for the slope) from Tricomi's asymptotic guesses (Hale and
    Townsend, SIAM J. Sci. Comput. 35, 2013), on the nonnegative half only;
    the other half is its mirror image, so x == -x[::-1] exactly and an odd
    n has the node 0 exactly.  Each step runs the n-step recurrence over
    n/2 nodes: O(n^2) flops and O(n) memory, where the Golub-Welsch rule of
    numpy.polynomial solves a dense n x n eigenproblem: O(n^3) and O(n^2).

    The weights are 2 / ((1 - x^2) P_n'(x)^2) at the exact roots: the last
    Newton correction dx enters to first order, as the factor
    1 + 2 x dx / (1 - x^2), so rounding a node to a double does not move its
    weight (near the ends it would, by up to 2e-10 relative at n = 3072).
    Raises RuntimeError unless the corrections fall to _GL_TOL within
    _GL_MAX_STEPS steps.
    """
    if n < 1:
        raise ValueError(f"need at least one node, got {n}")
    half = n // 2
    k = np.arange(1, n - half + 1, dtype=float)  # the largest root first
    theta = (4.0 * k - 1.0) * math.pi / (4.0 * n + 2.0)
    x = (1.0 - (n - 1.0) / (8.0 * n**3) - (39.0 - 28.0 / np.sin(theta) ** 2) / (384.0 * n**4)) * np.cos(theta)
    if n % 2:
        x[-1] = 0.0  # P_n is odd: the middle root is exact, and stays so
    for _ in range(_GL_MAX_STEPS):
        p_prev, p = _gegenbauer_last_two(n, 2, x)
        one_minus = (1.0 - x) * (1.0 + x)  # no cancellation next to x = 1
        dp = n * (p_prev - x * p) / one_minus
        dx = p / dp
        w = 2.0 / (one_minus * dp * dp) * (1.0 + 2.0 * x * dx / one_minus)
        x -= dx
        if np.max(np.abs(dx)) <= _GL_TOL:
            break
    else:
        raise RuntimeError(f"Gauss-Legendre nodes for n={n} did not converge in {_GL_MAX_STEPS} Newton steps")
    return np.concatenate([-x[:half], x[::-1]]), np.concatenate([w[:half], w[::-1]])


def gegenbauer_eval_many(ell: int, d: int, t):
    """Normalized Gegenbauer polynomial of degree ell on S^d (the
    covariance kernel, 1 at t = 1 by construction) at t in [-1, 1].

    Accepts a scalar (returns a numpy scalar) or an array, which is left
    untouched.  Arguments within _T_TOL outside [-1, 1] are clipped,
    farther ones raise.  Relative error grows like ell * eps.
    """
    if ell < 0:
        raise ValueError(f"degree must be >= 0, got {ell}")
    if d < 2:
        raise ValueError(f"sphere dimension must be >= 2, got {d}")
    t = np.asarray(t, dtype=float)
    lo, hi = t.min(initial=0.0), t.max(initial=0.0)  # initial: empty t passes
    if lo < -1.0 - _T_TOL or hi > 1.0 + _T_TOL:
        raise ValueError(f"argument out of [-1, 1]: |t| = {max(-lo, hi)}")
    g = _gegenbauer_last_two(ell, d, np.clip(np.atleast_1d(t), -1.0, 1.0))[1]
    return g if t.ndim else g[0]


def hermite_eval(q: int, t):
    """Probabilists' Hermite H_q at t (scalar or array), via
    H_{k+1} = t H_k - k H_{k-1} on three rotating rows of one (3, *t.shape) array.

    No scaling is applied; q stays small (<= ~12) in every experiment so
    the values remain well inside double range.
    """
    if q < 0:
        raise ValueError(f"Hermite order must be >= 0, got {q}")
    arr = np.asarray(t, dtype=float)
    work = np.empty((3, *arr.shape))
    h_prev, h, tmp = work[0, ...], work[1, ...], work[2, ...]
    h_prev[...], h[...] = 1.0, arr
    for k in range(1, q):
        np.multiply(arr, h, out=tmp)
        h_prev *= k
        np.subtract(tmp, h_prev, out=h_prev)  # t H_k - k H_{k-1}
        h_prev, h, tmp = h, h_prev, tmp
    h = h_prev if q == 0 else h
    return float(h) if arr.ndim == 0 else h


def _bessel_series(nu: float, x: np.ndarray) -> np.ndarray:
    """Ascending series, any order nu >= 0; accurate for x <= ~12."""
    out = np.zeros_like(x)
    nz = x > 0
    # leading term (x/2)^nu / Gamma(nu+1) in log space to dodge under/overflow
    half = 0.5 * x[nz]
    term = np.exp(nu * np.log(half) - math.lgamma(nu + 1.0))
    acc = term.copy()
    hh = half * half
    for k in range(1, 200):
        term = term * (-hh) / (k * (nu + k))
        acc += term
        if np.all(np.abs(term) <= 1e-18 * (1.0 + np.abs(acc))):
            break
    out[nz] = acc
    if np.any(~nz):
        out[~nz] = 1.0 if nu == 0.0 else 0.0
    return out


def _bessel_asymptotic_int(n: int, x: np.ndarray) -> np.ndarray:
    """Hankel large-argument expansion for integer order, x > ~12.

    P/Q sums are truncated at their smallest term; the attainable error
    bottoms out around exp(-2x).
    """
    mu = 4.0 * n * n
    inv8x = 1.0 / (8.0 * x)
    p = np.ones_like(x)
    q = np.zeros_like(x)
    term = np.ones_like(x)
    active = np.ones_like(x, dtype=bool)
    for k in range(1, 60):
        term = term * (mu - (2.0 * k - 1.0) ** 2) / k * inv8x
        contrib = np.where(active, term, 0.0)
        if k % 2 == 1:
            q += np.where(k % 4 == 1, contrib, -contrib)
        else:
            p += np.where(k % 4 == 0, contrib, -contrib)
        # freeze lanes whose terms started growing (past the optimal cut)
        if k > 2:
            active &= np.abs(term) < np.abs(prev_term)
        prev_term = term.copy()
        if not np.any(active):
            break
    chi = x - (0.5 * n + 0.25) * math.pi
    return np.sqrt(2.0 / (math.pi * x)) * (p * np.cos(chi) - q * np.sin(chi))


def _bessel_halfint_trig(nu: float, x: np.ndarray) -> np.ndarray:
    """Closed trigonometric forms for half-integer order (upward recurrence
    from J_{-1/2}, J_{1/2}); unstable where x < nu, so only used above."""
    pref = np.sqrt(2.0 / (math.pi * x))
    j_minus = pref * np.cos(x)  # J_{-1/2}
    j = pref * np.sin(x)  # J_{+1/2}
    order = 0.5
    while order < nu:
        j_minus, j = j, (2.0 * order / x) * j - j_minus
        order += 1.0
    return j


def bessel_j(nu: float, x):
    """Bessel J_nu for nu a nonnegative integer or half-integer up to 8, x >= 0."""
    two_nu = 2.0 * nu
    if nu < 0 or two_nu != int(two_nu):
        raise ValueError(f"order must be a nonnegative half-integer, got {nu}")
    if nu > _BESSEL_MAX_ORDER:
        raise ValueError(f"order {nu:g} is above {_BESSEL_MAX_ORDER:g}, where bessel_j is inaccurate")
    arr = np.asarray(x, dtype=float)
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr)
    if np.any(arr < 0):
        raise ValueError("bessel_j requires x >= 0")
    out = np.empty_like(arr)
    # half-integer orders: closed trigonometric forms except below max(1, nu),
    # where the upward recurrence cancels and the series is exact instead
    small = arr <= (_BESSEL_SWITCH if float(nu).is_integer() else max(1.0, nu))
    if np.any(small):
        out[small] = _bessel_series(float(nu), arr[small])
    if np.any(~small):
        big = arr[~small]
        if float(nu).is_integer():
            out[~small] = _bessel_asymptotic_int(int(nu), big)
        else:
            out[~small] = _bessel_halfint_trig(float(nu), big)
    return float(out[0]) if scalar else out


def bessel_j_derivative(nu: float, x):
    """J_nu'(x) = (nu/x) J_nu(x) - J_{nu+1}(x) (used by zero refinement), or
    J_{nu-1}(x) - (nu/x) J_nu(x) where nu + 1 is past bessel_j's orders."""
    arr = np.asarray(x, dtype=float)
    if nu == 0.0:
        return -bessel_j(1.0, arr)
    if nu + 1.0 > _BESSEL_MAX_ORDER:
        return bessel_j(nu - 1.0, arr) - (nu / arr) * bessel_j(nu, arr)
    return (nu / arr) * bessel_j(nu, arr) - bessel_j(nu + 1.0, arr)


_SQRT2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


def gauss_pdf_cdf(z: float) -> tuple[float, float]:
    """Standard Gaussian density and distribution function at z.

    The cdf goes through erfc so both tails keep full absolute accuracy.
    """
    zf = float(z)
    pdf = _INV_SQRT_2PI * math.exp(-0.5 * zf * zf)
    cdf = 0.5 * math.erfc(-zf / _SQRT2)
    return pdf, cdf


def gauss_cdf_array(z: np.ndarray) -> np.ndarray:
    """Vectorized Phi(z) (erfc-based, loop kept in C via frompyfunc)."""
    out = np.frompyfunc(math.erfc, 1, 1)(-np.asarray(z, dtype=float) / _SQRT2)
    return 0.5 * out.astype(float)
