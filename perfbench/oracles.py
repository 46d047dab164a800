"""Independent oracles for the benchmark's output checks.

Nothing here imports eigensphere.  Every value comes from a closed form,
from scipy, or from a quadrature written here, so agreement with the
program is evidence, not a copy of its own arithmetic.

Sphere conventions: S^d is the unit sphere in R^(d+1), mu_d its surface
measure, n(ell, d) the dimension of the degree-ell eigenspace and
G_ell the covariance polynomial normalised to G_ell(1) = 1.
I(ell, q, d) = int_0^{pi/2} G_ell(cos t)^q sin(t)^(d-1) dt.
"""
from __future__ import annotations

import functools
import math

import numpy as np
from scipy import special, stats


def sphere_measure(d: int) -> float:
    """mu_d = 2 pi^((d+1)/2) / Gamma((d+1)/2), in log space."""
    return math.exp(math.log(2.0) + 0.5 * (d + 1) * math.log(math.pi) - math.lgamma(0.5 * (d + 1)))


def eigenspace_dim(ell: int, d: int) -> int:
    """n(ell, d) = C(ell+d, d) - C(ell+d-2, d): 2 ell + 1 on S^2, (ell+1)^2 on S^3."""
    return math.comb(ell + d, d) - (math.comb(ell + d - 2, d) if ell >= 2 else 0)


def moment_q2(ell: int, d: int) -> float:
    """I(ell, 2, d) = mu_d / (2 mu_{d-1} n): orthogonality of the eigenspace."""
    return sphere_measure(d) / (2.0 * sphere_measure(d - 1) * eigenspace_dim(ell, d))


def threej_zero(l1, l2, l3) -> np.ndarray:
    """Wigner (l1 l2 l3; 0 0 0) from its closed form, vectorised over the
    arguments; zero when l1 + l2 + l3 is odd or the triangle fails."""
    l1, l2, l3 = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in (l1, l2, l3)))
    big = l1 + l2 + l3
    g = 0.5 * big
    ok = (big % 2 == 0) & (l3 <= l1 + l2) & (l3 >= np.abs(l1 - l2))
    lf = special.gammaln
    b, a1, a2, a3 = (np.where(ok, v, 0.0) for v in (big, l1, l2, l3))
    gg = 0.5 * b
    log_abs = (
        0.5 * (lf(b - 2 * a1 + 1) + lf(b - 2 * a2 + 1) + lf(b - 2 * a3 + 1) - lf(b + 2))
        + lf(gg + 1) - lf(gg - a1 + 1) - lf(gg - a2 + 1) - lf(gg - a3 + 1)
    )
    sign = np.where(g % 2 == 0, 1.0, -1.0)
    return np.where(ok, sign * np.exp(log_abs), 0.0)


def moment_q3_s2(ell: int) -> float:
    """I(ell, 3, 2) = (ell ell ell; 0 0 0)^2 (even ell)."""
    return float(threej_zero(ell, ell, ell) ** 2)


def moment_q4_s2(ell: int) -> float:
    """I(ell, 4, 2) = sum_L (2L+1) (ell ell L; 0 0 0)^4, from the
    linearisation of P_ell^2 (even ell)."""
    big_l = np.arange(0, 2 * ell + 1)
    return float(np.sum((2 * big_l + 1) * threej_zero(ell, ell, big_l) ** 4))


def exact_moment(ell: int, q: int, d: int) -> float | None:
    """The exact forms above where one applies, else None."""
    if q == 2:
        return moment_q2(ell, d)
    if d == 2 and q == 3:
        return moment_q3_s2(ell)
    if d == 2 and q == 4:
        return moment_q4_s2(ell)
    return None


def covariance_poly(ell: int, d: int, t: np.ndarray) -> np.ndarray:
    """G_ell(cos t) on S^d from scipy (d = 2, 4) or the Chebyshev closed
    form sin((ell+1) t) / ((ell+1) sin t) (d = 3)."""
    x = np.cos(t)
    if d == 2:
        return special.eval_legendre(ell, x)
    if d == 3:
        s = np.sin(t)
        safe = np.where(s > 1e-300, s, 1.0)
        return np.where(s > 1e-300, np.sin((ell + 1) * t) / ((ell + 1) * safe), 1.0)
    alpha = 0.5 * (d - 1)
    return special.eval_gegenbauer(ell, alpha, x) / special.eval_gegenbauer(ell, alpha, 1.0)


def _theta_panels(ell: int, a: float, b: float, per_wave: int = 8, nodes: int = 20):
    """Composite Gauss-Legendre in the angle, ``per_wave`` panels per
    oscillation wavelength 2 pi / ell."""
    n_panels = max(8, int(math.ceil(per_wave * (b - a) * (ell + 1) / (2 * math.pi))))
    xg, wg = np.polynomial.legendre.leggauss(nodes)
    edges = np.linspace(a, b, n_panels + 1)
    half = 0.5 * np.diff(edges)[:, None]
    mid = 0.5 * (edges[1:] + edges[:-1])[:, None]
    return (mid + half * xg).ravel(), (half * wg).ravel()


@functools.lru_cache(maxsize=16)
def _moment_table(ell: int, d: int):
    """Weights times sin^(d-1), and G_ell, on the nodes of [0, pi/2]."""
    t, w = _theta_panels(ell, 0.0, 0.5 * math.pi)
    return w * np.sin(t) ** (d - 1), covariance_poly(ell, d, t)


def moment_quadrature(ell: int, q: int, d: int) -> float:
    """I(ell, q, d) by dense angle quadrature of ``covariance_poly``."""
    w, g = _moment_table(ell, d)
    return float(np.sum(w * g**q))


def closed_form_constant(q: int, d: int) -> float | None:
    """Limits with a closed form: (d-1)! mu_d / (4 mu_{d-1}) for q = 2,
    3 / (2 pi^2) for (q, d) = (4, 2), pi / 4 for (3, 3) and (4, 3)."""
    if q == 2:
        return math.factorial(d - 1) * sphere_measure(d) / (4.0 * sphere_measure(d - 1))
    if (q, d) == (4, 2):
        return 3.0 / (2.0 * math.pi**2)
    if (q, d) in ((3, 3), (4, 3)):
        return math.pi / 4.0
    return None


def scaled_moment(ell: int, q: int, d: int, integral: float) -> float:
    """ell^d I (ell^(d-1) I for q = 2, divided by log ell for (4, 2))."""
    power = d - 1 if q == 2 else d
    value = float(ell) ** power * integral
    return value / math.log(ell) if (q, d) == (4, 2) else value


def projection_variance(ell: int, q: int, d: int, integral: float) -> float:
    """Var h_q = 2 q! mu_d mu_{d-1} I(ell, q, d) (even ell)."""
    return 2.0 * math.factorial(q) * sphere_measure(d) * sphere_measure(d - 1) * integral


class Chi2Law:
    """The exact law of h_2 on a grid exact at degree 2 ell:
    h_2 = (mu_d / n) (chi^2_n - n), with scipy's chi2 as reference."""

    def __init__(self, ell: int, d: int):
        self.n = eigenspace_dim(ell, d)
        self.scale = sphere_measure(d) / self.n
        self.chi2 = stats.chi2(self.n)

    @property
    def variance(self) -> float:
        return self.scale**2 * float(self.chi2.var())

    @property
    def cum4(self) -> float:
        # chi2_n has fourth cumulant 48 n
        return self.scale**4 * 48.0 * self.n

    def variance_se(self, replicates: int) -> float:
        """Standard error of the sample variance: sqrt((m4 - m2^2) / N)."""
        m2 = self.variance
        m4 = self.cum4 + 3.0 * m2 * m2
        return math.sqrt((m4 - m2 * m2) / replicates)

    def _std_cdf(self, x):
        return self.chi2.cdf(self.n + x * math.sqrt(2.0 * self.n))

    def ks_to_normal(self) -> float:
        """sup_x |F(x) - Phi(x)| of the standardised law, on a fine mesh."""
        x = np.linspace(-8.0, 8.0, 200_001)
        return float(np.max(np.abs(self._std_cdf(x) - stats.norm.cdf(x))))

    def w1_to_normal(self) -> float:
        """int |F(x) - Phi(x)| dx of the standardised law."""
        x = np.linspace(-12.0, 12.0, 400_001)
        return float(np.trapezoid(np.abs(self._std_cdf(x) - stats.norm.cdf(x)), x))


def excursion_mean(z: float, d: int) -> float:
    """E[excursion volume] = mu_d (1 - Phi(z)) on every grid."""
    return sphere_measure(d) * float(stats.norm.sf(z))


def indicator_hermite_coeffs(z: float, order: int) -> list[float]:
    """J_q of 1{x > z}: J_0 = 1 - Phi(z), J_q = He_{q-1}(z) phi(z)."""
    pdf = float(stats.norm.pdf(z))
    return [float(stats.norm.sf(z))] + [
        float(special.eval_hermitenorm(q - 1, z)) * pdf for q in range(1, order + 1)
    ]


def expansion_variance(z: float, order: int, ell: int, d: int) -> float:
    """sum_{q=2}^{order} J_q^2 Var[h_q] / q!^2, each Var[h_q] from the
    exact moment where one exists, else from ``moment_quadrature``."""
    coeffs = indicator_hermite_coeffs(z, order)
    total = 0.0
    for q in range(2, order + 1):
        integral = exact_moment(ell, q, d)
        if integral is None:
            integral = moment_quadrature(ell, q, d)
        total += coeffs[q] ** 2 * projection_variance(ell, q, d, integral) / math.factorial(q) ** 2
    return total


def defect_variance(ell: int) -> float:
    """Continuum Var[defect] on S^2 = 16 pi int_{-1}^{1} arcsin(P_ell(t)) dt
    (orthant identity), integrated in the angle t = cos(theta)."""
    theta, w = _theta_panels(ell, 0.0, math.pi)
    p = np.clip(special.eval_legendre(ell, np.cos(theta)), -1.0, 1.0)
    return 16.0 * math.pi * float(np.sum(w * np.arcsin(p) * np.sin(theta)))
