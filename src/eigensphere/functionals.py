"""Nonlinear functionals of a sampled field: excursion volume, defect,
chaos projections, and truncated Hermite expansions of a generic
nonlinearity."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .field import FieldSample
from .specfun import gauss_pdf_cdf, hermite_eval, sphere_measure

__all__ = [
    "ChaosCoefficients",
    "indicator_coeffs",
    "excursion_volume",
    "defect",
    "hermite_projection",
    "generic_functional",
]


# Largest J_Q^2 / Q! a truncated expansion may end on.
_TAIL_TOL = 1e-2


@dataclass(frozen=True)
class ChaosCoefficients:
    """Truncated Hermite coefficients J_0..J_Q of a square-integrable
    nonlinearity.  J_0 is kept for mean bookkeeping only; expansions use
    the centered series starting at the rank."""

    coeffs: tuple[float, ...]

    def __post_init__(self):
        if len(self.coeffs) < 3:
            raise ValueError("need coefficients at least up to order 2")
        q = self.truncation
        tail = self.coeffs[q] ** 2 / math.factorial(q)
        if tail > _TAIL_TOL:
            raise ValueError(
                f"last retained coefficient too heavy: J_Q^2/Q! = {tail:.3e} > {_TAIL_TOL:.1e}"
            )

    @property
    def truncation(self) -> int:
        return len(self.coeffs) - 1

    @property
    def rank(self) -> int | None:
        """Smallest q >= 1 with J_q != 0, or None when all vanish."""
        for q in range(1, len(self.coeffs)):
            if self.coeffs[q] != 0.0:
                return q
        return None


def indicator_coeffs(z: float, truncation: int = 8) -> ChaosCoefficients:
    """Hermite coefficients of the level-z indicator: J_0 = 1 - Phi(z) and
    J_q = H_{q-1}(z) phi(z) for q >= 1."""
    if truncation < 2:
        raise ValueError(f"truncation must be >= 2, got {truncation}")
    pdf, cdf = gauss_pdf_cdf(z)
    coeffs = [1.0 - cdf]
    coeffs += [hermite_eval(q - 1, z) * pdf for q in range(1, truncation + 1)]
    return ChaosCoefficients(tuple(coeffs))


def excursion_volume(sample: FieldSample, z: float) -> float:
    """Quadrature measure of the region where the field exceeds z (mean
    mu_d * (1 - Phi(z))).  Capped at mu_d: the weights may sum to mu_d
    plus a few ulps, and no subset of S^d is larger than the sphere."""
    mu = sphere_measure(sample.grid.d)
    return min(float(np.sum(sample.grid.weights * (sample.values > z))), mu)


def defect(sample: FieldSample) -> float:
    """Positive-region volume minus negative-region volume.  Exact zeros
    contribute nothing (a probability-zero event, tolerated so reruns are
    bitwise stable)."""
    return float(np.sum(sample.grid.weights * np.sign(sample.values)))


def hermite_projection(sample: FieldSample, q: int) -> float:
    """Order-q chaos projection: quadrature integral of H_q(field)."""
    if q < 0:
        raise ValueError(f"projection order must be >= 0, got {q}")
    return float(np.sum(sample.grid.weights * hermite_eval(q, sample.values)))


def generic_functional(sample: FieldSample, coeffs: ChaosCoefficients) -> float:
    """Centered truncated expansion sum_{q=1}^{Q} (J_q / q!) integral of
    H_q(field); cross-checks direct evaluation of the nonlinearity."""
    rank = coeffs.rank
    if rank is None:
        raise ValueError("all J_q vanish for q >= 1: Hermite rank undefined")
    w = sample.grid.weights
    value = 0.0
    for q in range(1, coeffs.truncation + 1):
        if coeffs.coeffs[q] != 0.0:
            h = hermite_eval(q, sample.values)
            value += coeffs.coeffs[q] / math.factorial(q) * float(np.sum(w * h))
    return value
