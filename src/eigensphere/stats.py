"""Monte Carlo ensemble engine and distributional diagnostics.

Replicates are simulated on counter-based per-replicate streams hashed
from (master seed, replicate index), hashed once per ensemble, so results
are bit-identical no matter how the loop is scheduled or blocked; all
reductions run in replicate-index order.
"""
from __future__ import annotations

import math
import statistics as _pystats
from dataclasses import dataclass

import numpy as np

from .field import BLOCK_DRAWS, DENSE_NODE_BUDGET, SphereGrid, build_grid, replicate_seed, simulate
from .functionals import defect, excursion_volume, hermite_projection
from .specfun import gauss_cdf_array

__all__ = [
    "ExperimentSpec",
    "EnsembleSummary",
    "TooFewSamplesError",
    "ReplicateError",
    "default_resolution",
    "shared_grid",
    "run_ensemble",
    "ks_distance",
    "w1_distance",
    "empirical_cum4",
]

MIN_DISTANCE_SAMPLES = 100


class TooFewSamplesError(ValueError):
    """Distance/cumulant diagnostics need at least 100 samples."""


class ReplicateError(RuntimeError):
    """Failure inside a block of replicates, tagged with its first replicate's index."""

    def __init__(self, index: int, message: str):
        super().__init__(f"replicate {index}: {message}")
        self.index = index


@dataclass(frozen=True)
class ExperimentSpec:
    """What to simulate and evaluate: dimension, degree, functional kind
    ('excursion' with level z, 'projection' with order q, or 'defect'),
    and the grid resolution."""

    d: int
    ell: int
    functional: str
    grid_resolution: int
    z: float | None = None
    q: int | None = None

    def __post_init__(self):
        if self.functional not in ("excursion", "defect", "projection"):
            raise ValueError(f"unknown functional kind {self.functional!r}")
        if self.functional == "excursion" and self.z is None:
            raise ValueError("excursion experiments need a level z")
        if self.functional == "projection" and self.q is None:
            raise ValueError("projection experiments need an order q")


@dataclass(frozen=True)
class EnsembleSummary:
    """Replicate statistics of one functional.  Distances to N(0,1) and the
    fourth cumulant are filled only when the ensemble has at least 100
    replicates.  When every replicate is the same float (on S^2: the defect,
    odd-order projections and the level-0 excursion at odd ell) the variance
    is 0 and they are nan."""

    replicates: int
    values: np.ndarray
    mean: float
    variance: float
    mean_stderr: float  # sqrt(variance / replicates)
    variance_stderr: float  # sqrt((m4 - m2^2) / replicates), plug-in central moments
    standardized: np.ndarray
    ks_to_normal: float | None
    w1_to_normal: float | None
    cum4: float | None


def default_resolution(d: int, kind: str, ell: int, q: int = 2) -> int:
    """Grid resolution rule used when a run does not pin one.

    Indicator functionals on S^2 are bias-limited by nodal-boundary
    quantization (variance inflation scales like (ell/resolution)^3), so
    the defect gets 6*ell; smooth projections only need the quadrature to
    be exact at degree q*ell.  For d >= 3 the node-set budget caps the node
    count at DENSE_NODE_BUDGET = 6000, i.e. resolution isqrt(6000) = 77 (5929
    nodes), and a draw needs at least dim_d(ell) nodes, so that grid admits
    ell <= 76 at d = 3 and ell <= 24 at d = 4.
    """
    if d != 2:
        return math.isqrt(DENSE_NODE_BUDGET)
    if kind == "defect":
        return max(64, 6 * ell)
    if kind == "excursion":
        return max(64, 2 * ell)
    return max(64, (q * ell) // 2 + 8)


_GRID_CACHE: dict[tuple[int, int], SphereGrid] = {}


def shared_grid(d: int, resolution: int) -> SphereGrid:
    """Process-wide grid reuse so repeated ensembles share Legendre
    tables and harmonic factors."""
    key = (d, resolution)
    if key not in _GRID_CACHE:
        _GRID_CACHE[key] = build_grid(d, resolution)
    return _GRID_CACHE[key]


def _apply(spec: ExperimentSpec, sample):
    if spec.functional == "excursion":
        return excursion_volume(sample, spec.z)
    if spec.functional == "defect":
        return defect(sample)
    return hermite_projection(sample, spec.q)


def run_ensemble(spec: ExperimentSpec, replicates: int, master_seed: int) -> EnsembleSummary:
    """Simulate independent replicates, BLOCK_DRAWS at a time, apply the functional, summarize."""
    if replicates < 2:
        raise ValueError(f"need at least 2 replicates, got {replicates}")
    grid = shared_grid(spec.d, spec.grid_resolution)
    values = np.empty(replicates)
    seeds = replicate_seed(master_seed, np.arange(replicates))
    for r in range(0, replicates, BLOCK_DRAWS):
        try:
            values[r : r + BLOCK_DRAWS] = _apply(spec, simulate(spec.ell, grid, seeds[r : r + BLOCK_DRAWS]))
        except Exception as exc:  # tag the failing block by its first replicate, keep the cause
            raise ReplicateError(r, str(exc)) from exc
    # every replicate the same float: the variance is 0, not the roundoff of np.mean
    constant = bool(np.all(values == values[0]))
    mean = float(values[0]) if constant else float(np.mean(values))
    variance = 0.0 if constant else float(np.var(values, ddof=1))
    sdev = math.sqrt(variance) if variance > 0 else 1.0
    standardized = (values - mean) / sdev
    if replicates < MIN_DISTANCE_SAMPLES:
        diagnostics = (None, None, None)
    elif constant:  # no law to compare
        diagnostics = (math.nan, math.nan, math.nan)
    else:
        diagnostics = (ks_distance(standardized), w1_distance(standardized), empirical_cum4(values))
    m2, m4 = _central_moments(values)
    return EnsembleSummary(replicates, values, mean, variance, math.sqrt(variance / replicates),
                           math.sqrt(max(m4 - m2 * m2, 0.0) / replicates), standardized, *diagnostics)


def ks_distance(standardized) -> float:
    """sup_z |empirical CDF - Phi(z)|, both one-sided gaps at the sorted
    sample points."""
    x = np.sort(np.asarray(standardized, dtype=float))
    n = len(x)
    if n < MIN_DISTANCE_SAMPLES:
        raise TooFewSamplesError(f"need >= {MIN_DISTANCE_SAMPLES} samples, got {n}")
    cdf = gauss_cdf_array(x)
    i = np.arange(1, n + 1)
    return float(max(np.max(i / n - cdf), np.max(cdf - (i - 1) / n)))


def w1_distance(standardized) -> float:
    """1-d Wasserstein-1 distance to N(0,1) by quantile coupling: mean
    |x_(i) - Phi^{-1}((i - 1/2)/n)|."""
    x = np.sort(np.asarray(standardized, dtype=float))
    n = len(x)
    if n < MIN_DISTANCE_SAMPLES:
        raise TooFewSamplesError(f"need >= {MIN_DISTANCE_SAMPLES} samples, got {n}")
    dist = _pystats.NormalDist()
    quantiles = np.array([dist.inv_cdf((i - 0.5) / n) for i in range(1, n + 1)])
    return float(np.mean(np.abs(x - quantiles)))


def _central_moments(x: np.ndarray) -> tuple[float, float]:
    """Central moments (m2, m4) of the sample."""
    c = x - x.mean()
    return float(np.mean(c * c)), float(np.mean(c**4))


def empirical_cum4(values) -> float:
    """Fourth cumulant m4 - 3 m2^2 of the centered sample (plain plug-in
    moments, no bias correction)."""
    x = np.asarray(values, dtype=float)
    if len(x) < MIN_DISTANCE_SAMPLES:
        raise TooFewSamplesError(f"need >= {MIN_DISTANCE_SAMPLES} samples, got {len(x)}")
    m2, m4 = _central_moments(x)
    return m4 - 3.0 * m2 * m2
