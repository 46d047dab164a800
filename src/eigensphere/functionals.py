"""Nonlinear functionals of a sampled field (excursion volume, defect,
chaos projections), each one quadrature integral of a pointwise function of
the field that builds no field-sized array on S^2, and the Hermite
coefficients of the level indicator."""
from __future__ import annotations

import math

import numpy as np

from .field import FieldSample, block_weights, ring_blocks, scratch
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


def _integrate(sample: FieldSample, f) -> float | np.ndarray:
    """Quadrature integral of f(field), a float (an array for a stack, with each draw's
    bits alone): the weights of ``block_weights`` times the row sums of f over the blocks
    of ``ring_blocks``, plus the row sums of f(-v) where a row stands for its mirror too."""
    w, mirrored = block_weights(sample)
    sums = np.empty((*sample.coef.shape[:-1], len(w)))
    for rows, block in ring_blocks(sample):
        np.sum(f(block), axis=-1, out=sums[..., rows])
        if mirrored:
            sums[..., rows] += np.sum(f(np.negative(block, out=scratch("mirror", block.shape))), axis=-1)
    total = np.sum(w * sums, axis=-1)
    return float(total) if total.ndim == 0 else total


def excursion_volume(sample: FieldSample, z: float) -> float | np.ndarray:
    """Quadrature measure of the region where the field exceeds z (mean
    mu_d * (1 - Phi(z))).  Capped at mu_d: the weights may sum to mu_d
    plus a few ulps, and no subset of S^d is larger than the sphere."""
    mu, volume = sphere_measure(sample.grid.d), _integrate(sample, lambda v: v > z)
    return min(volume, mu) if isinstance(volume, float) else np.minimum(volume, mu)


def defect(sample: FieldSample) -> float | np.ndarray:
    """Positive-region volume minus negative-region volume.  Exact zeros
    contribute nothing (a probability-zero event, tolerated so reruns are
    bitwise stable)."""
    return _integrate(sample, np.sign)


def hermite_projection(sample: FieldSample, q: int) -> float | np.ndarray:
    """Order-q chaos projection: quadrature integral of H_q(field)."""
    if q < 0:
        raise ValueError(f"projection order must be >= 0, got {q}")
    return _integrate(sample, lambda v: hermite_eval(q, v, scratch("hermite", (3, *v.shape))))
