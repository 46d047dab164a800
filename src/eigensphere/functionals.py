"""Nonlinear functionals of a sampled field (excursion volume, defect,
chaos projections), each one quadrature integral of a pointwise function of
the field that builds no field-sized array on S^2, and the Hermite
coefficients of the level indicator."""
from __future__ import annotations

import math

import numpy as np

from .field import FieldSample, ring_blocks, scratch
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


def _integrate(sample: FieldSample, f) -> float:
    """Quadrature integral of f(field): node weights times f(values) on the
    dense route; on an S^2 product grid, ring weights times the per-ring sums
    of f, taken a block of northern rings at a time.  Each northern ring also
    stands for its mirror, which holds its values rolled half a turn (a roll
    keeps the ring sum) times (-1)^ell: twice its sum at even ell, its sum plus
    the sum of f(-v) at odd ell, so an odd f integrates to exactly 0 there.
    The equator of an odd res is its own mirror, so it takes half that."""
    w = sample.grid.weights
    if sample.coef is None:
        return float(np.sum(w * f(sample.values)))
    odd = sample.ell % 2
    sums = np.empty(len(w))
    for rings, block in ring_blocks(sample):
        np.sum(f(block), axis=1, out=sums[rings])
        if odd:
            sums[rings] += np.sum(f(np.negative(block, out=scratch("mirror", block.shape))), axis=1)
    half = len(w) // 2
    if len(w) % 2:
        sums[half] *= 0.5
    return (1.0 if odd else 2.0) * float(np.sum(w[half:] * sums[half:]))


def excursion_volume(sample: FieldSample, z: float) -> float:
    """Quadrature measure of the region where the field exceeds z (mean
    mu_d * (1 - Phi(z))).  Capped at mu_d: the weights may sum to mu_d
    plus a few ulps, and no subset of S^d is larger than the sphere."""
    mu = sphere_measure(sample.grid.d)
    return min(_integrate(sample, lambda v: v > z), mu)


def defect(sample: FieldSample) -> float:
    """Positive-region volume minus negative-region volume.  Exact zeros
    contribute nothing (a probability-zero event, tolerated so reruns are
    bitwise stable)."""
    return _integrate(sample, np.sign)


def hermite_projection(sample: FieldSample, q: int) -> float:
    """Order-q chaos projection: quadrature integral of H_q(field)."""
    if q < 0:
        raise ValueError(f"projection order must be >= 0, got {q}")
    return _integrate(sample, lambda v: hermite_eval(q, v, scratch("hermite", (3, *v.shape))))
