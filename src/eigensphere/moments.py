"""Moment integrals of the covariance polynomial and their high-degree limits.

``moment_integral`` evaluates

    I(ell, q, d) = int_0^{pi/2} G(cos theta)^q (sin theta)^(d-1) dtheta

by one of two routes, chosen by (q, ell):

* q in {2, 3, 4} with ell*q even: exactly, from Rogers' (Dougall's)
  linearization of G_ell^2 in O(ell) operations (O(1) for q = 2);
* every other case (q = 1, q >= 5, odd q at odd ell): panel-wise
  Gauss-Legendre quadrature with panels commensurate with the oscillation
  wavelength pi/ell, in O(ell^2) operations.

The quadrature also gives the exact defect variance ``defect_variance`` and
serves the tests as the independent check of the exact route.
``asymptotic_constant`` evaluates the limiting constants of ell^d * I from
an oscillatory Bessel integral, chunked between consecutive Bessel zeros
with Euler acceleration for the conditionally convergent cases.  The moment
and constant routes share no code beyond the Bessel evaluator, which is what
makes their agreement a real check.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .specfun import (
    _BESSEL_MAX_ORDER,
    bessel_j,
    bessel_j_derivative,
    gauss_legendre,
    gegenbauer_eval_many,
    sphere_measure,
)

__all__ = [
    "ScalingLaw",
    "NonConvergedError",
    "moment_integral",
    "asymptotic_constant",
    "projection_variance",
    "defect_variance",
    "scaling_law",
    "closed_form_law",
]


class NonConvergedError(RuntimeError):
    """The Bessel integral is out of reach: its order is past bessel_j's
    range, or the tail acceleration missed its tolerance."""


_PANEL_NODES = 16


def _gauss_legendre_panels(edges: np.ndarray, nodes: int):
    """Gauss-Legendre nodes/weights on each panel [edges[i], edges[i+1]],
    one row per panel, mapped from the ``specfun.gauss_legendre`` rule."""
    xg, wg = gauss_legendre(nodes)
    lo = edges[:-1, None]
    hi = edges[1:, None]
    return 0.5 * (hi - lo) * xg + 0.5 * (hi + lo), 0.5 * (hi - lo) * wg + np.zeros_like(lo)


def _kernel_quadrature(ell: int, d: int, f) -> float:
    """int_0^{pi/2} f(G_ell(cos theta)) sin^(d-1) theta dtheta by panel
    Gauss-Legendre quadrature, for an elementwise ``f`` of the kernel.

    Panel width is pi/(4*(ell+1)), a quarter of the oscillation
    wavelength, so fixed-order quadrature per panel is spectrally
    accurate.  Each of the 2*(ell+1)*_PANEL_NODES nodes runs the
    ell-step degree recurrence, so the cost grows like ell^2.
    """
    edges = np.linspace(0.0, 0.5 * math.pi, 2 * (ell + 1) + 1)
    theta, w = (a.ravel() for a in _gauss_legendre_panels(edges, _PANEL_NODES))
    g = gegenbauer_eval_many(ell, d, np.cos(theta))
    return float(np.sum(w * f(g) * np.sin(theta) ** (d - 1)))


def _eigenspace_dim(n, d: int):
    """Dimension of the degree-n eigenspace of S^d, (2n+d-1)/(d-1) *
    binom(n+d-2, d-2), as a float (elementwise for an array n)."""
    dim = (2.0 * n + d - 1) / (d - 1)
    for i in range(1, d - 1):
        dim = dim * (n + i) / i
    return dim


def _linearization_weights(ell: int, d: int) -> np.ndarray:
    """Weights b_k, k = 0..ell, of G_ell^2 = sum_k b_k G_(2ell-2k).

    Rogers' (Dougall's) formula for C_ell^lam C_ell^lam, lam = (d-1)/2,
    divided by the values at 1.  Consecutive weights have the ratio below,
    and they sum to G_ell(1)^2 = 1, which fixes b_0.
    """
    lam = 0.5 * (d - 1)
    n = 2 * ell
    k = np.arange(ell, dtype=float)
    ratio = (
        (lam + k) * (ell - k) ** 2 * (n + lam - k) * (n + lam - 2 * k - 2)
        / ((k + 1) * (lam + ell - k - 1) ** 2 * (2 * lam + n - k - 1) * (n + lam - 2 * k))
    )
    b = np.concatenate([[1.0], np.cumprod(ratio)])
    return b / np.sum(b)


def moment_integral(ell: int, q: int, d: int) -> float:
    """Gegenbauer moment integral over [0, pi/2].

    For q in {2, 3, 4} with ell*q even the integrand is even, so I is half
    the integral over [-1, 1] against (1-x^2)^((d-2)/2), which the
    linearization weights b_k and the norms int G_n^2 = (mu_d/mu_(d-1)) /
    dim(n) give exactly: q = 2 is the norm of G_ell (O(1)), q = 3 is
    b_(ell/2) times it and q = 4 is sum_k b_k^2 times the norm of
    G_(2ell-2k) (both O(ell)).  Every other case is integrated by
    ``_kernel_quadrature`` at a cost that grows like ell^2.
    """
    if ell < 0 or q < 1 or d < 2:
        raise ValueError(f"need ell >= 0, q >= 1, d >= 2, got {(ell, q, d)}")
    if q not in (2, 3, 4) or ell * q % 2:
        return _kernel_quadrature(ell, d, lambda g: g**q)
    half_mass = 0.5 * sphere_measure(d) / sphere_measure(d - 1)
    if q == 2:
        return half_mass / _eigenspace_dim(ell, d)
    b = _linearization_weights(ell, d)
    if q == 3:
        return float(b[ell // 2]) * half_mass / _eigenspace_dim(ell, d)
    return half_mass * float(np.sum(b**2 / _eigenspace_dim(np.arange(2 * ell, -1, -2.0), d)))


_C42 = 3.0 / (2.0 * math.pi**2)

# Gauss-Legendre nodes per chunk between consecutive Bessel zeros, the
# number of zeros (chunks), and the largest accepted error estimate of the
# accelerated tail.
_CHUNK_NODES = 32
_MAX_ZEROS = 480
_CONSTANT_TOL = 1e-6


def _bessel_zeros(nu: float, count: int) -> np.ndarray:
    """First ``count`` positive zeros of J_nu: McMahon expansion refined by
    Newton steps on the module's own Bessel evaluator."""
    k = np.arange(1, count + 1, dtype=float)
    beta = (k + 0.5 * nu - 0.25) * math.pi
    mu = 4.0 * nu * nu
    z = (
        beta
        - (mu - 1.0) / (8.0 * beta)
        - 4.0 * (mu - 1.0) * (7.0 * mu - 31.0) / (3.0 * (8.0 * beta) ** 3)
    )
    for _ in range(4):
        z = z - bessel_j(nu, z) / bessel_j_derivative(nu, z)
    return z


def _euler_limit(partial_sums: np.ndarray) -> tuple[float, float]:
    """Iterated pairwise averaging of an (eventually) alternating sequence
    of partial sums; returns (limit estimate, error estimate)."""
    s = np.asarray(partial_sums, dtype=float)
    while len(s) > 1:
        nxt = 0.5 * (s[:-1] + s[1:])
        if len(nxt) == 1:
            return float(nxt[0]), float(abs(nxt[0] - s[-1]))
        s = nxt
    return float(s[0]), math.inf


def asymptotic_constant(q: int, d: int) -> float:
    """Limiting constant of ell^d (or ell^(d-1) for q=2) times the moment
    integral.

    The pairs of ``closed_form_law`` return their closed forms; there the
    Bessel integral below diverges and the decay law carries an extra
    factor.  Every other pair evaluates

        pref * int_0^inf J_nu(psi)^q psi^(-q*nu + d - 1) dpsi,
        nu = d/2 - 1,  pref = (2^nu * Gamma(nu+1))^q,

    chunked between consecutive zeros of J_nu.  Odd q gives alternating
    chunk sums (zero-mean oscillation): Euler acceleration of the partial
    sums handles the conditionally convergent pairs.  Even q adds the
    analytic tail of the envelope mean beyond the last zero.
    """
    if q < 2:
        raise ValueError(f"asymptotic constant undefined for q < 2, got q={q}")
    if d < 2:
        raise ValueError(f"need d >= 2, got d={d}")
    law = closed_form_law(q, d)
    if law is not None:
        return law.constant
    nu = 0.5 * d - 1.0
    if nu > _BESSEL_MAX_ORDER:  # d >= 19
        raise NonConvergedError(f"(q={q}, d={d}) needs J of order {nu:g}, past bessel_j's {_BESSEL_MAX_ORDER:g}")
    pref = (2.0**nu * math.gamma(nu + 1.0)) ** q
    a = -q * nu + d - 1.0
    zeros = _bessel_zeros(nu, _MAX_ZEROS)
    edges = np.concatenate([[0.0], zeros])
    x, w = _gauss_legendre_panels(edges, _CHUNK_NODES)
    j = bessel_j(nu, x.ravel()).reshape(x.shape)
    chunks = np.sum(w * pref * j**q * x**a, axis=1)
    seq = np.cumsum(chunks)
    if q % 2 == 0:
        # even q: J_nu^q has a strictly positive envelope mean, so the bare
        # partial sums converge only like 1/X; close each one with the
        # analytic tail of the leading asymptotic term, after which the
        # residual alternates and the same acceleration applies
        mean_q = math.comb(q, q // 2) / 2.0**q
        beta = a - 0.5 * q  # tail integrand exponent: psi^beta, beta < -1
        tail_pref = pref * (2.0 / math.pi) ** (0.5 * q) * mean_q / (-(beta + 1.0))
        seq = seq + tail_pref * edges[1:] ** (beta + 1.0)
    value, err = _euler_limit(seq[-64:])
    if not math.isfinite(value) or err > _CONSTANT_TOL:
        raise NonConvergedError(
            f"accelerated tail for (q={q}, d={d}) estimated error {err:.2e} > {_CONSTANT_TOL:.0e}"
        )
    return value


@dataclass(frozen=True)
class ScalingLaw:
    """Decay law of the moment integral: constant * log(ell)^log_power *
    ell^exponent; ``constant`` is None when no numeric value is available."""

    exponent: int
    log_power: int
    constant: float | None


def closed_form_law(q: int, d: int) -> ScalingLaw | None:
    """Decay law of the pairs whose constant has a closed form, None for
    every other pair: q = 2, where the bare integral decays like
    c / ell^(d-1) with c = (d-1)! mu_d / (4 mu_{d-1}), and (q, d) = (4, 2),
    where ell^2 I grows like (3 / (2 pi^2)) log(ell)."""
    if q == 2:
        c2 = math.factorial(d - 1) * sphere_measure(d) / (4.0 * sphere_measure(d - 1))
        return ScalingLaw(-(d - 1), 0, c2)
    if (d, q) == (2, 4):
        return ScalingLaw(-2, 1, _C42)
    return None


def scaling_law(q: int, d: int) -> ScalingLaw:
    """Decay law selected solely by (d, q); constants filled when known.

    Closed-form pairs as in ``closed_form_law`` (the order-2 projection
    variance then carries a further 2 * q! * mu_d * mu_{d-1}, see
    ``projection_variance``); every other pair decays like ell^(-d).
    """
    if q < 2 or d < 2:
        raise ValueError(f"scaling law needs q >= 2 and d >= 2, got {(q, d)}")
    law = closed_form_law(q, d)
    if law is not None:
        return law
    try:
        c = asymptotic_constant(q, d)
    except NonConvergedError:
        c = None
    return ScalingLaw(-d, 0, c)


def projection_variance(ell: int, q: int, d: int) -> float:
    """Variance of the order-q chaos projection of the degree-ell field:
    2 * q! * mu_d * mu_{d-1} * moment_integral(ell, q, d).

    Restricted to even ell; the closed-form reduction of the sphere-pair
    integral to [0, pi/2] uses the kernel's symmetry, which flips sign for
    odd degrees.
    """
    if ell % 2 != 0:
        raise ValueError(f"projection variance requires even ell, got {ell}")
    if ell < 2 or q < 2:
        raise ValueError(f"need ell >= 2 and q >= 2, got {(ell, q)}")
    return (
        2.0
        * math.factorial(q)
        * sphere_measure(d)
        * sphere_measure(d - 1)
        * moment_integral(ell, q, d)
    )


def defect_variance(ell: int, d: int) -> float:
    """Variance of the defect of the degree-ell field on S^d: 0 at odd ell
    (an odd field), else the orthant identity E[sign X sign Y] = (2/pi)
    arcsin(rho) reduced as in ``projection_variance`` to [0, pi/2]."""
    if ell < 0 or d < 2:
        raise ValueError(f"need ell >= 0 and d >= 2, got {(ell, d)}")
    if ell % 2:
        return 0.0
    pair = _kernel_quadrature(ell, d, lambda g: np.arcsin(np.clip(g, -1.0, 1.0)))
    return 4.0 / math.pi * sphere_measure(d) * sphere_measure(d - 1) * pair
