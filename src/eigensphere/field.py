"""Sampling of single-multipole Gaussian fields on discretized spheres.

``simulate`` is the one sampler; the grid picks the route.  An S^2 product grid
(``cos_colat`` set) synthesizes exactly, one inverse real FFT per ring, and stores
only its ring weights and colatitude cosines; a draw keeps its coefficients and is
synthesized a cache-sized block of rings at a time, northern rings only: the grid
is mirrored and f(-x) = (-1)^ell f(x), so a southern ring is its mirror rolled half
a turn, times (-1)^ell.  A node set (d >= 3, N <= 6000) draws through its exact harmonic
factor Y (dim_d(ell) x N, Y^T Y the kernel), built by recursion in dimension: a draw is
one mat-vec, and Y, at most N^2 doubles (200 MB at ell = 64 on 5929 nodes), is its peak;
the grid keeps at most N^2 doubles of factors.  Both routes take the associated functions
sin^j G^(d+2j) of S^d from one degree-major recurrence, ``_associated_rows``: the S^2
Legendre table at d = 2, and the W_(ell,k) of every level of the factor.
"""
from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .specfun import gauss_legendre, gegenbauer_eval_many, sphere_measure

__all__ = [
    "SphereGrid",
    "FieldSample",
    "GridTooLargeError",
    "build_grid",
    "simulate",
    "replicate_seed",
    "ring_blocks",
    "dump_field",
    "load_field",
]

DENSE_NODE_BUDGET = 6000
S2_NODE_BUDGET = 2**25  # 2 res^2 nodes, so res <= 4096: 256 MiB of node values
_TABLE_DOUBLES = 2**17  # an order group's three Legendre row buffers: 1 MiB, kept in cache
_BLOCK_DOUBLES = 2**16  # one block of synthesized rings: 512 KiB, kept in cache


class GridTooLargeError(ValueError):
    """Node count exceeds the S^2 grid budget or the node-set budget."""


@dataclass(eq=False)
class SphereGrid:
    """Quadrature grid on S^d: positive weights whose node total is the surface
    measure, and what ``simulate`` routes by: ``cos_colat`` and one weight per
    ring on an S^2 product grid (ring synthesis), ``nodes`` and one weight per
    node on a node set (the harmonic factor)."""

    d: int
    weights: np.ndarray  # (res,) per ring on a product grid, (N,) per node otherwise
    nodes: np.ndarray | None = None  # (N, d+1), the dense route
    cos_colat: np.ndarray | None = None  # (res,), the S^2 product route
    _cache: dict = field(default_factory=dict, repr=False)

    @property
    def size(self) -> int:
        """Number of nodes."""
        if self.cos_colat is not None:
            return 2 * len(self.cos_colat) ** 2
        return len(self.weights)


class FieldSample:
    """One realization of the degree-ell field on a grid: its node values on
    the dense route; on an S^2 product grid its harmonic coefficients ``coef``
    (one per order, scaled for the ring FFT), which ``ring_blocks`` synthesizes
    a block of rings at a time and ``values`` in full, only when read."""

    def __init__(self, grid: SphereGrid, ell: int, values=None, coef=None):
        self.grid, self.ell, self.coef = grid, ell, coef
        if values is not None:
            self.values = values

    @cached_property
    def values(self) -> np.ndarray:
        res = len(self.grid.cos_colat)
        half = res // 2
        out = np.empty((res, 2 * res))
        for rings, block in ring_blocks(self):
            out[rings] = block
        # southern ring i is northern ring res - 1 - i, half a turn on, times (-1)^ell
        south = np.roll(out[: res - half - 1 : -1], res, axis=1)
        np.multiply(south, -1.0 if self.ell % 2 else 1.0, out=out[:half])
        return out.ravel()


def replicate_seed(master_seed: int, index: int) -> int:
    """64-bit stream key for one replicate, hashed from (master, index) so
    ensembles are order-independent and reproducible."""
    ss = np.random.SeedSequence((int(master_seed), int(index)))
    return int(ss.generate_state(1, np.uint64)[0])


def _rng_for(seed: int) -> np.random.Generator:
    # Philox is counter-based: streams for distinct keys never collide
    return np.random.Generator(np.random.Philox(key=int(seed)))


def build_grid(d: int, resolution: int) -> SphereGrid:
    """Quadrature grid on S^d.

    d = 2: Gauss-Legendre nodes in cos(theta) (``resolution`` of them, from
    ``specfun.gauss_legendre``, kept as ``cos_colat``) crossed with the
    2*resolution longitudes 2*pi*j/(2*resolution), which no grid stores
    (``simulate`` synthesizes each ring by an FFT of that length); the ring
    weights are the GL weights times 2*pi/(2*resolution).  Exact for spherical
    polynomials of degree <= 2*resolution - 1.  The rule costs O(res^2) flops
    and O(res) memory, and the grid keeps O(res) numbers.  Over S2_NODE_BUDGET
    nodes (res > 4096), whose whole-field values would pass 256 MiB, it raises
    GridTooLargeError before allocating anything.

    d >= 3: Kronecker low-discrepancy sequence of resolution^2 points in
    the unit cube mapped to hyperspherical angles by inverting each
    sin-power marginal; equal weights mu_d / N.
    """
    if d < 2:
        raise ValueError(f"need d >= 2, got {d}")
    if resolution < 4:
        raise ValueError(f"resolution must be >= 4, got {resolution}")
    if d == 2:
        if 2 * resolution * resolution > S2_NODE_BUDGET:
            raise GridTooLargeError(
                f"{2 * resolution * resolution} nodes exceeds the S^2 grid budget {S2_NODE_BUDGET}"
                " (resolution <= 4096)"
            )
        x, w = gauss_legendre(resolution)
        return SphereGrid(2, w * (2.0 * math.pi / (2 * resolution)), cos_colat=x)
    n = resolution * resolution
    u = _kronecker_sequence(n, d)
    nodes = _angles_to_sphere(u, d)
    weights = np.full(n, sphere_measure(d) / n)
    return SphereGrid(d, weights, nodes=nodes)


def _kronecker_sequence(n: int, dims: int) -> np.ndarray:
    """Rank-1 lattice points frac(0.5 + i * alpha) with alpha built from the
    generalized golden ratio (positive root of x^(dims+1) = x + 1)."""
    phi = 1.5
    for _ in range(64):
        phi = phi - (phi ** (dims + 1) - phi - 1.0) / ((dims + 1) * phi**dims - 1.0)
    alpha = (1.0 / phi) ** np.arange(1, dims + 1)
    i = np.arange(1, n + 1)[:, None]
    return np.mod(0.5 + i * alpha, 1.0)


def _sin_power_cdf(theta: np.ndarray, k: int) -> np.ndarray:
    """int_0^theta sin^k, by the stable reduction formula."""
    if k == 0:
        return theta
    if k == 1:
        return 1.0 - np.cos(theta)
    return (
        -np.cos(theta) * np.sin(theta) ** (k - 1) + (k - 1) * _sin_power_cdf(theta, k - 2)
    ) / k


def _invert_sin_power(u: np.ndarray, k: int) -> np.ndarray:
    """theta in [0, pi] with normalized int_0^theta sin^k = u (bisection;
    the CDF is monotone and cheap, so 60 halvings reach roundoff)."""
    total = _sin_power_cdf(np.pi, k)
    lo = np.zeros_like(u)
    hi = np.full_like(u, np.pi)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        below = _sin_power_cdf(mid, k) < u * total
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    return 0.5 * (lo + hi)


def _angles_to_sphere(u: np.ndarray, d: int) -> np.ndarray:
    """Map unit-cube points to S^d: d-1 polar angles plus one azimuth."""
    n = len(u)
    nodes = np.empty((n, d + 1))
    sin_prod = np.ones(n)
    for j in range(d - 1):
        theta = _invert_sin_power(u[:, j], d - 1 - j)
        nodes[:, j] = sin_prod * np.cos(theta)
        sin_prod = sin_prod * np.sin(theta)
    phi = 2.0 * math.pi * u[:, d - 1]
    nodes[:, d - 1] = sin_prod * np.cos(phi)
    nodes[:, d] = sin_prod * np.sin(phi)
    return nodes


def _associated_rows(top: int, d: int, x: np.ndarray, s: np.ndarray, lo: int = 0, hi: int | None = None):
    """Yield, for k = lo..top, the orthonormal associated functions V^(d)_(k,j) of S^d at
    the cosines x and sines s, orders j = lo..min(k, hi - 1) (every order by default):
    V_(k,j) = c sin^j G^(d+2j)_(k-j), sum_j V_(k,j)^2 = dim_d(k).  On S^2 these are the
    4pi-normalised associated Legendre functions, sum_j V^2 = 2k + 1.

    Degree-major: with lam = (d - 1)/2, a sectoral row V_(k,k) = V_(k-1,k-1) s times
    sqrt(dim_(d-1)(k) / dim_(d-1)(k-1) (k + lam) / (k + lam - 1/2)); an order's first
    step V_(k,k-1) = x sqrt(2k + d - 1) V_(k-1,k-1); then one vectorised step per degree,
    V_(k,j) = a x V_(k-1,j) - b V_(k-2,j), over every order started, on three rotating row
    buffers updated in place.  A yielded array is valid until the next one is asked for.
    """
    hi = top + 1 if hi is None else min(hi, top + 1)
    dims = np.array([_harmonic_dim(k, d - 1) for k in range(top + 1)], dtype=float)
    k_lam = np.arange(1, top + 1) + 0.5 * (d - 1)
    sectoral = np.sqrt(dims[1:] / dims[:-1] * k_lam / (k_lam - 0.5))  # V_(k,k) / (s V_(k-1,k-1))
    prev, curr, scratch = (np.empty((hi - lo, len(x))) for _ in range(3))
    sect = np.ones(len(x))  # V_(k,k), the sectoral chain every order starts from
    for k in range(top + 1):
        j = np.arange(lo, min(k - 1, hi))  # orders that step from degrees k - 1 and k - 2
        if len(j):
            kj = (k - j) * (k + j + d - 2)
            a = np.sqrt((2.0 * k + d - 3.0) * (2.0 * k + d - 1.0) / kj)
            b = np.sqrt((2.0 * k + d - 1.0) * (k + j + d - 3.0) * (k - j - 1.0) / (kj * (2.0 * k + d - 5.0)))
            m = len(j)
            step = np.multiply(a[:, None], x, out=scratch[:m])
            step *= curr[:m]
            prev[:m] *= b[:, None]
            np.subtract(step, prev[:m], out=prev[:m])  # (a x) V_(k-1) - b V_(k-2)
        if lo <= k - 1 < hi:  # order k - 1 takes its first step
            np.multiply(x, math.sqrt(2.0 * k + d - 1.0), out=prev[k - 1 - lo])
            prev[k - 1 - lo] *= sect
        if k:
            sect *= s
            sect *= sectoral[k - 1]
        if lo <= k < hi:
            prev[k - lo] = sect
        prev, curr = curr, prev
        if k >= lo:
            yield curr[: min(k + 1, hi) - lo]


def _associated_last(ell: int, d: int, x: np.ndarray, s: np.ndarray):
    """Yield V^(d)_(ell,j) of ``_associated_rows`` for j = 0..ell, one row at a time, from
    groups of _TABLE_DOUBLES // (3 * len(x)) orders, whose row buffers stay in cache: about
    ell Python steps per group where an order-by-order loop makes ell^2 / 2, and the same
    operations per value in the same order as that loop, so the same bits."""
    group = max(1, _TABLE_DOUBLES // (3 * len(x)))
    for lo in range(0, ell + 1, group):
        for rows in _associated_rows(ell, d, x, s, lo, lo + group):
            pass
        yield from rows


def _associated_table(ell: int, d: int, x: np.ndarray) -> np.ndarray:
    """The rows of ``_associated_last`` at the cosines x (sines sqrt(1 - x^2)), shape
    (ell + 1, len(x)); sum_j V^2 = dim_d(ell) pointwise."""
    rows = _associated_last(ell, d, x, np.sqrt(np.clip(1.0 - x * x, 0.0, 1.0)))
    return np.fromiter(rows, dtype=(float, len(x)), count=ell + 1)


def _draw_rings(ell: int, grid: SphereGrid, seed: int) -> FieldSample:
    """Exact harmonic synthesis of the degree-ell field on a product grid.

    Draws 2*ell + 1 independent N(0,1) coefficients on the real
    orthonormal harmonic basis (equal in law to the complex-coefficient
    convention with a_{l,-m} = (-1)^m conj(a_{lm})); by the addition
    theorem the node covariance is exactly the degree-ell Legendre
    polynomial of the cosine of geodesic distance, and pointwise variance
    is exactly 1.

    The sample keeps the coefficients: ``ring_blocks`` makes each northern ring
    of ``build_grid(2, res)`` (cos_colat >= 0) one inverse real FFT of length
    2*res over the orders m = 0..ell (for ell >= res, the ring's Nyquist order, a
    k-fold finer ring keeping every k-th sample).  The southern rings are never
    synthesized: the cosines are mirrored, P_ell^m(-x) = (-1)^(ell+m) P_ell^m(x),
    and half a turn multiplies order m by (-1)^m, so the ring at -x is the ring
    at x rolled by res samples, times (-1)^ell.  The cached Legendre table holds
    (ell + 1) * ceil(res / 2) doubles; off its sum rule by 1e-9 on a ring (from
    ell ~ 2000, where subnormal sectoral starts lose bits), it raises ValueError.
    """
    key = ("legendre", ell)
    if key not in grid._cache:  # ring-major: one row of orders per northern colatitude
        north = grid.cos_colat[len(grid.cos_colat) // 2 :]
        norm = 2.0 * ell + 1.0
        with np.errstate(over="ignore", invalid="ignore"):  # a table that overflows is refused below
            table = _associated_table(ell, 2, north)
            off = np.abs(np.sum(table**2, axis=0) - norm)
        if not np.all(off <= 1e-9 * norm):  # nan fails too
            raise ValueError(f"Legendre table breaks its sum rule at ell={ell}, res={len(grid.cos_colat)}")
        grid._cache[key] = np.ascontiguousarray((table / math.sqrt(norm)).T)
    n = 2 * (ell // len(grid.cos_colat) + 1) * len(grid.cos_colat)
    g = _rng_for(seed).standard_normal(2 * ell + 1)
    coef = np.empty(ell + 1, dtype=complex)  # g[2m-1], g[2m]: cos, sin pair of order m
    coef[0] = n * g[0]
    coef[1:] = (0.5 * n) * (g[1::2] - 1j * g[2::2])
    return FieldSample(grid, ell, coef=coef)


_SCRATCH: dict[str, np.ndarray] = {}


def scratch(name: str, shape: tuple[int, ...], dtype=float) -> np.ndarray:
    """A view of the process-wide buffer ``name``, grown on demand: every draw
    reuses it, so the ring loop allocates no block after the first draw."""
    size = math.prod(shape)
    if name not in _SCRATCH or _SCRATCH[name].size < size:
        _SCRATCH[name] = np.empty(size, dtype)
    return _SCRATCH[name][:size].reshape(shape)


def ring_blocks(sample: FieldSample):
    """Yield (ring slice, values) over the northern rings of an S^2 product-grid
    sample, the equator of an odd res first, in blocks of about _BLOCK_DOUBLES:
    irfft(table[rings] * coef) in scratch, valid until the next block.  The
    slices index the grid's rings, res // 2 to res - 1."""
    table = sample.grid._cache[("legendre", sample.ell)]
    res = len(sample.grid.cos_colat)
    first, k = res - len(table), sample.ell // res + 1
    rows = max(1, min(len(table), _BLOCK_DOUBLES // (2 * k * res)))
    spectra = scratch("spectra", (rows, sample.ell + 1), complex)
    rings = scratch("rings", (rows, 2 * k * res))
    for r0 in range(0, len(table), rows):
        n = min(rows, len(table) - r0)
        np.multiply(table[r0 : r0 + n], sample.coef, out=spectra[:n])
        np.fft.irfft(spectra[:n], n=2 * k * res, out=rings[:n])
        yield slice(first + r0, first + r0 + n), rings[:n, ::k]


def _harmonic_dim(ell: int, d: int) -> int:
    """Dimension of the degree-ell harmonics on S^d: 2 ell + 1 on S^2, (ell + 1)^2 on S^3."""
    return math.comb(ell + d, d) - (math.comb(ell + d - 2, d) if ell >= 2 else 0)


def _polar_chart(nodes: np.ndarray, ell: int):
    """Hyperspherical coordinates of the unit vectors ``nodes`` (N, d + 1): row i of
    ``cos`` and ``sin`` is the cosine and sine of the i-th polar angle,
    x_i / |x_i..x_d| and |x_(i+1)..x_d| / |x_i..x_d| (i = 0..d-2), and ``trig`` holds
    the rows 1, cos(j phi), sin(j phi) of the harmonics of S^1, j = 1..ell, with phi
    the angle of (x_(d-1), x_d).  Where a tail x_i..x_d vanishes, the sine one level up
    is 0, so every row of positive degree there is 0 and the angle is immaterial."""
    d = nodes.shape[1] - 1
    x = np.ascontiguousarray(nodes.T)
    tail = np.sqrt(np.cumsum(x[::-1] ** 2, axis=0))[::-1]
    norm = np.where(tail > 0.0, tail, 1.0)[: d - 1]
    cos, sin = x[: d - 1] / norm, tail[1:d] / norm
    turn = np.exp(1j * np.arctan2(x[d], x[d - 1]))
    e_j = turn.copy()
    trig = np.empty((2 * ell + 1, len(nodes)))
    trig[0] = 1.0
    for j in range(1, ell + 1):  # e^(i j phi) by repeated turns, off by <= j eps
        trig[2 * j - 1], trig[2 * j] = e_j.real, e_j.imag
        e_j *= turn
    return cos, sin, trig


def _rows_by_degree(top: int, cos: np.ndarray, sin: np.ndarray, trig: np.ndarray):
    """Yield, for k = 0..top, the harmonic rows of degree k on S^(len(cos) + 1) as (pairs, c):
    (rows of S^1, weight) pairs whose products times c, stacked, are those rows.  For
    j = 0..k, V_(k,j) of the first polar angle times the pairs of degree j one dimension
    down, which are kept, and c = 1 / sqrt(dim_d(k)), so that V c is W_(k,j).  One
    ``_associated_rows`` stream steps every order once per degree: O(k N) steps for
    degree k.  A weight may be a row of that stream, valid until the next degree."""
    if not len(cos):  # S^1
        yield [(trig[:1], 1.0)], 1.0
        for k in range(1, top + 1):
            yield [(trig[2 * k - 1 : 2 * k + 1], 1.0)], 1.0
        return
    d = len(cos) + 1
    inner = []
    stream = _associated_rows(top, d, cos[0], sin[0])
    for k, ((pairs, c), v) in enumerate(zip(_rows_by_degree(top, cos[1:], sin[1:], trig), stream, strict=True)):
        inner.append([(rows, u * c) for rows, u in pairs])  # fresh: the stream's rows move on
        # on S^2 each order has one S^1 pair, of weight 1, so V_(k,j) is its weight
        pairs = [(rows, v[j] if d == 2 else u * v[j]) for j in range(k + 1) for rows, u in inner[j]]
        yield pairs, 1.0 / math.sqrt(_harmonic_dim(k, d))


def _dense_factor(grid: SphereGrid, ell: int) -> np.ndarray:
    """Cached harmonic factor Y of a node set, shape (dim_d(ell), N): real harmonics
    of degree ell scaled so that Y^T Y is the kernel [G(<x_i, x_j>)] to rounding, with
    unit columns (the addition theorem, DLMF 18.18(ii)).  Block k = 0..ell of Y is
    W_(ell,k) = V^(d)_(ell,k) / sqrt(dim_d(ell)) of x_0 (``_associated_last``) times the
    rows of degree k on S^(d-1) at the remaining coordinates over sin(chi), down to S^1
    (``_rows_by_degree``).  Peak: Y plus O(ell N) doubles at d = 3 (at d >= 4, plus the
    kept pairs of ``_rows_by_degree``).

    Refused before anything is allocated: over DENSE_NODE_BUDGET nodes
    (GridTooLargeError), and with fewer nodes than dim_d(ell) (ValueError), where no
    positive-weight rule on the nodes is exact at degree 2 ell, so h_2 is biased.  A
    built Y whose Y^T Y is over 1e-10 off ``gegenbauer_eval_many`` on 64 fixed node
    pairs (16 of them i = j) is refused too (ValueError) and not cached.

    The grid keeps at most N^2 doubles of factors, the largest one it admits: the least
    recently used are dropped before a build that would pass that."""
    cache = grid._cache  # a node set caches its factors only, least recently used first
    key = ("factor", ell)
    if key in cache:
        cache[key] = cache.pop(key)
        return cache[key]
    d, n = grid.d, grid.size
    if n > DENSE_NODE_BUDGET:
        raise GridTooLargeError(f"{n} nodes exceeds the node-set budget {DENSE_NODE_BUDGET}")
    dim = _harmonic_dim(ell, d)
    if dim > n:
        raise ValueError(
            f"degree {ell} on S^{d} needs at least {dim} nodes (its harmonic dimension), the grid has {n}"
        )
    while cache and sum(f.size for f in cache.values()) + dim * n > n * n:
        del cache[next(iter(cache))]
    cos, sin, trig = _polar_chart(grid.nodes, ell)
    top = _associated_last(ell, d, cos[0], sin[0])
    factor, weight = np.empty((dim, n)), np.empty(n)
    r = 0
    for (pairs, c), v_top in zip(_rows_by_degree(ell, cos[1:], sin[1:], trig), top, strict=True):
        w = v_top * (c / math.sqrt(dim))  # W_(ell,k) and the normalisation one level down
        for rows, u in pairs:
            np.multiply(u, w, out=weight)
            np.multiply(rows, weight, out=factor[r : r + len(rows)])
            r += len(rows)
    i = np.arange(64) * n // 64
    j = np.where(np.arange(64) % 4, i[::-1], i)  # every fourth pair on the diagonal
    kernel = gegenbauer_eval_many(ell, d, np.einsum("ik,ik->i", grid.nodes[i], grid.nodes[j]))
    off = np.max(np.abs(np.einsum("ri,ri->i", factor[:, i], factor[:, j]) - kernel))
    if not off <= 1e-10:  # nan fails too
        raise ValueError(f"harmonic factor at ell={ell} on S^{d} is {off:.3g} off its kernel")
    cache[key] = factor
    return factor


def _draw_dense(ell: int, grid: SphereGrid, seed: int) -> FieldSample:
    """Node-set sampling through the cached harmonic factor: values = g Y with
    g i.i.d. N(0,1), one per harmonic, so the covariance is Y^T Y, the kernel."""
    factor = _dense_factor(grid, ell)
    g = _rng_for(seed).standard_normal(len(factor))
    return FieldSample(grid, ell, values=g @ factor)


def simulate(ell: int, grid: SphereGrid, seed: int) -> FieldSample:
    """One draw of the degree-ell field on ``grid``: ring synthesis on an S^2
    product grid (``cos_colat`` set), the harmonic factor on a node set."""
    if ell < 0:
        raise ValueError(f"degree must be >= 0, got {ell}")
    if grid.cos_colat is not None:
        return _draw_rings(ell, grid, seed)
    return _draw_dense(ell, grid, seed)


# Binary dump layout: 8-byte little-endian header (d: u16, ell: u16, N: u32)
# followed by N node-ordered float64 values.
_HEADER = struct.Struct("<HHI")


def dump_field(sample: FieldSample, path) -> None:
    """Write the sample for external visualization (format above)."""
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(sample.grid.d, sample.ell, len(sample.values)))
        fh.write(np.ascontiguousarray(sample.values, dtype="<f8").tobytes())


def load_field(path) -> tuple[int, int, np.ndarray]:
    """Read a dump back as (d, ell, values)."""
    with open(path, "rb") as fh:
        d, ell, n = _HEADER.unpack(fh.read(_HEADER.size))
        values = np.frombuffer(fh.read(8 * n), dtype="<f8")
        if len(values) != n:
            raise ValueError(f"truncated field dump: expected {n} values, got {len(values)}")
    return d, ell, values.copy()
