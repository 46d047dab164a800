"""Nonlinear functionals of a stack of sampled fields (excursion volume, defect,
chaos projections), each one quadrature integral per draw of a pointwise
function of the field by ``field.integrate``, and the Hermite coefficients of
the level indicator."""
from __future__ import annotations

import math

import numpy as np

from .field import FieldSample, integrate
from .specfun import gauss_pdf_cdf, hermite_eval, sphere_measure

__all__ = ["indicator_coeffs", "excursion_volume", "defect", "hermite_projection"]


def indicator_coeffs(z: float, truncation: int = 8) -> tuple[float, ...]:
    """Hermite coefficients J_0..J_Q of the level-z indicator: J_0 = 1 - Phi(z)
    and J_q = H_{q-1}(z) phi(z) for q >= 1.  Refuses a truncation whose last
    coefficient is heavy (J_Q^2 / Q! above 1e-2)."""
    if truncation < 2:
        raise ValueError(f"truncation must be >= 2, got {truncation}")
    pdf, cdf = gauss_pdf_cdf(z)
    coeffs = (1.0 - cdf, *(hermite_eval(q - 1, z) * pdf for q in range(1, truncation + 1)))
    tail = coeffs[truncation] ** 2 / math.factorial(truncation)
    if tail > 1e-2:
        raise ValueError(f"last retained coefficient too heavy: J_Q^2/Q! = {tail:.3e} > 1.0e-02")
    return coeffs


def excursion_volume(sample: FieldSample, z: float) -> np.ndarray:
    """Quadrature measure of the region where the field exceeds z, one float64
    per draw (mean mu_d * (1 - Phi(z))).  Capped at mu_d: the weights may sum
    to mu_d plus a few ulps, and no subset of S^d is larger than the sphere."""
    return np.minimum(integrate(sample, lambda v: v > z), sphere_measure(sample.grid.d))


def defect(sample: FieldSample) -> np.ndarray:
    """Positive-region volume minus negative-region volume, one float64 per
    draw.  Exact zeros contribute nothing (a probability-zero event, tolerated
    so reruns are bitwise stable)."""
    return integrate(sample, np.sign)


def hermite_projection(sample: FieldSample, q: int) -> np.ndarray:
    """Order-q chaos projection, one float64 per draw: quadrature integral of H_q(field)."""
    if q < 0:
        raise ValueError(f"projection order must be >= 0, got {q}")
    return integrate(sample, lambda v: hermite_eval(q, v))
