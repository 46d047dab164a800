"""Sampling of single-multipole Gaussian fields on discretized spheres.

A draw is the same on every grid: ``simulate`` builds (or refuses) the grid's cached basis,
then draws a stack, the dim_d(ell) N(0,1) coefficients on the real orthonormal harmonics of
each Philox key.  Only this module synthesizes, by ``ring_blocks``, a block of rows at a time
for every draw of the stack at once, and only it knows how rows stand for nodes: ``integrate``
reduces the blocks to one quadrature integral per draw, ``FieldSample.values`` assembles them.
An S^2 product grid (``cos_colat`` set) synthesizes exactly, one inverse real FFT per northern
ring from its Legendre table: the grid is mirrored and f(-x) = (-1)^ell f(x), so a southern ring
is its mirror rolled half a turn, times (-1)^ell, which ``integrate`` folds into its weights.  A
node set (d >= 3, N <= 6000) synthesizes through its exact harmonic factor Y (dim_d(ell) x N,
Y^T Y the kernel), from the same ``_associated_rows`` as the S^2 table: one mat-vec g Y per
draw; Y (200 MB at ell = 64 on 5929 nodes) is its peak, and the grid keeps at most N^2 doubles.
"""
from __future__ import annotations

import itertools
import math
import operator
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
    "integrate",
    "BLOCK_DRAWS",
    "dump_field",
    "load_field",
]

DENSE_NODE_BUDGET = 6000
S2_NODE_BUDGET = 2**25  # 2 res^2 nodes, so res <= 4096: 256 MiB of node values
_TABLE_DOUBLES = 2**17  # an order group's three Legendre row buffers: 1 MiB, kept in cache
_BLOCK_DOUBLES = 2**16  # one block of synthesized rings, 512 KiB, and its padded spectra, as large
BLOCK_DRAWS = 32  # draws an ensemble makes and reduces at once, one ring block serving them all


class GridTooLargeError(ValueError):
    """Node count exceeds the S^2 grid budget or the node-set budget."""


@dataclass(eq=False)
class SphereGrid:
    """Quadrature grid on S^d: positive weights whose node total is the surface
    measure, and what the synthesis routes by: ``cos_colat`` and one weight per
    ring on an S^2 product grid (ring synthesis), ``nodes`` and one weight per
    node on a node set (the harmonic factor)."""

    d: int
    weights: np.ndarray  # (res,) per ring on a product grid, (N,) per node otherwise
    nodes: np.ndarray | None = None  # (N, d+1), the node-set route
    cos_colat: np.ndarray | None = None  # (res,), the S^2 product route
    _cache: dict = field(default_factory=dict, repr=False)

    @property
    def size(self) -> int:
        """Number of nodes."""
        if self.cos_colat is not None:
            return 2 * len(self.cos_colat) ** 2
        return len(self.weights)


class FieldSample:
    """A stack of B realizations of the degree-ell field on a grid: ``coef``, (B, dim), row i the
    dim_d(ell) N(0,1) coefficients of draw i on the real orthonormal harmonics (on S^2, g[0] then
    the cos, sin pair of each order m = 1..ell).  ``values``, (B, N) in node order, assembles the
    blocks of ``ring_blocks``, only when read."""

    def __init__(self, grid: SphereGrid, ell: int, coef: np.ndarray):
        self.grid, self.ell, self.coef = grid, ell, coef

    @cached_property
    def values(self) -> np.ndarray:
        n = len(self.grid.weights)  # rows: the rings of an S^2 grid, the nodes of a node set
        half = 0 if self.grid.cos_colat is None else n // 2
        out = np.empty((len(self.coef), n, self.grid.size // n))
        for rows, block in ring_blocks(self):
            out[:, half:][:, rows] = block
        if half:  # southern ring i is northern ring n - 1 - i, half a turn on, times (-1)^ell
            south = np.roll(out[:, : n - half - 1 : -1], n, axis=-1)
            np.multiply(south, -1.0 if self.ell % 2 else 1.0, out=out[:, :half])
        return out.reshape(len(self.coef), self.grid.size)


def replicate_seed(master_seed: int, index) -> np.ndarray:
    """64-bit stream keys of replicates, hashed from (master, index) so ensembles are order-
    independent and reproducible: for a 1-D integer array of indices in [0, 2^32), the uint64 array
    of numpy's SeedSequence((master, index)).generate_state(1, uint64)[0], hashed in uint32 at once."""
    index, master = np.asarray(index), int(master_seed)
    if index.ndim != 1 or index.dtype.kind not in "iu":  # astype(uint32) would truncate 0.5 to 0
        raise ValueError(f"indices must be a 1-D integer array, got {index.ndim}-D {index.dtype}")
    if master < 0 or index.size and not 0 <= index.min() <= index.max() <= 0xFFFFFFFF:
        raise ValueError(f"need master seed >= 0 and indices in [0, 2**32), got {master}")
    words = [master >> s & 0xFFFFFFFF for s in range(0, max(master.bit_length(), 1), 32)]
    entropy = [np.full(index.shape, w, np.uint32) for w in words] + [index.astype(np.uint32)]
    const = [0x43B0D7E5]

    def hashmix(v, mult=0x931E8875):
        const.append(const[-1] * mult & 0xFFFFFFFF)
        v = (v ^ np.uint32(const[-2])) * np.uint32(const[-1])
        return v ^ v >> 16

    pool = [hashmix(v) for v in (entropy + [np.zeros(index.shape, np.uint32)] * 3)[:4]]
    # mix each pool word into the other three, then each entropy word past the pool into all 4
    for src, dst in [*itertools.permutations(range(4), 2), *itertools.product(range(4, len(entropy)), range(4))]:
        word = pool[src] if src < 4 else entropy[src]
        v = np.uint32(0xCA01F9DD) * pool[dst] - np.uint32(0x4973F715) * hashmix(word)
        pool[dst] = v ^ v >> 16
    const.append(0x8B51F9DD)
    low, high = (hashmix(v, 0x58F38DED).astype(np.uint64) for v in pool[:2])
    return low | high << np.uint64(32)


def build_grid(d: int, resolution: int) -> SphereGrid:
    """Quadrature grid on S^d.

    d = 2: Gauss-Legendre nodes in cos(theta) (``resolution`` of them, from
    ``specfun.gauss_legendre``, kept as ``cos_colat``) crossed with the
    2*resolution longitudes 2*pi*j/(2*resolution), which no grid stores
    (``ring_blocks`` synthesizes each ring by an FFT of that length); the ring
    weights are the GL weights times 2*pi/(2*resolution).  Exact for spherical
    polynomials of degree <= 2*resolution - 1.  The rule costs O(res^2) flops
    and O(res) memory, and the grid keeps O(res) numbers.  Over S2_NODE_BUDGET
    nodes (res > 4096), whose whole-field values would pass 256 MiB, it raises
    GridTooLargeError before allocating anything.

    d >= 3: Kronecker low-discrepancy sequence of resolution^2 points in
    the unit cube mapped to hyperspherical angles by inverting each
    sin-power marginal; equal weights mu_d / N.  Over DENSE_NODE_BUDGET
    nodes (res > 77) it raises GridTooLargeError before allocating anything.
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
    if n > DENSE_NODE_BUDGET:
        raise GridTooLargeError(f"{n} nodes exceeds the node-set budget {DENSE_NODE_BUDGET}")
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
    prev, curr, tmp = (np.empty((hi - lo, len(x))) for _ in range(3))
    sect = np.ones(len(x))  # V_(k,k), the sectoral chain every order starts from
    for k in range(top + 1):
        j = np.arange(lo, min(k - 1, hi))  # orders that step from degrees k - 1 and k - 2
        if len(j):
            kj = (k - j) * (k + j + d - 2)
            a = np.sqrt((2.0 * k + d - 3.0) * (2.0 * k + d - 1.0) / kj)
            b = np.sqrt((2.0 * k + d - 1.0) * (k + j + d - 3.0) * (k - j - 1.0) / (kj * (2.0 * k + d - 5.0)))
            m = len(j)
            step = np.multiply(a[:, None], x, out=tmp[:m])
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


def ring_blocks(sample: FieldSample):
    """Yield (rows, values) blocks that make the field, each valid until the next: values[b, i]
    holds draw b's nodes of row ``rows``[i].  A node set is one block, g Y as a column (row i is
    node i), one mat-vec per draw (a GEMM has other last bits).  An S^2 grid yields its northern
    rings (row i is ring res // 2 + i) in blocks of about _BLOCK_DOUBLES: one irfft of length n =
    2 k res, k = ell // res + 1 (ell >= res: every k-th sample), for all draws, of n // 2 + 1 bins:
    table[rings] * spectrum in bins 0..ell, and zeros past them set once per call, so irfft pads nothing."""
    basis, g = _basis(sample.grid, sample.ell), sample.coef
    if sample.grid.cos_colat is None:
        gy = np.fromiter((row @ basis for row in g), dtype=(float, basis.shape[1]), count=len(g))
        yield slice(0, basis.shape[1]), gy[:, :, None]
        return
    ell, res = sample.ell, len(sample.grid.cos_colat)
    k = ell // res + 1
    n = 2 * k * res
    spectrum = np.empty((len(g), 1, ell + 1), dtype=complex)  # g[2m-1], g[2m]: cos, sin pair of order m
    spectrum[:, 0, 0] = n * g[:, 0]
    spectrum[:, 0, 1:] = (0.5 * n) * (g[:, 1::2] - 1j * g[:, 2::2])
    rows = max(1, min(len(basis), _BLOCK_DOUBLES // (n * max(1, len(g)))))
    spectra, rings = np.zeros((len(g), rows, n // 2 + 1), dtype=complex), np.empty((len(g), rows, n))
    for r0 in range(0, len(basis), rows):
        m = min(rows, len(basis) - r0)
        np.multiply(basis[r0 : r0 + m], spectrum, out=spectra[:, :m, : ell + 1])
        np.fft.irfft(spectra[:, :m], n=n, out=rings[:, :m])
        yield slice(r0, r0 + m), rings[:, :m, ::k]


def integrate(sample: FieldSample, f) -> np.ndarray:
    """Quadrature integral of f(field), one float64 per draw, each with the bits it has in a stack
    of one, and no field-sized array on S^2: the row weights times the row sums of f over the
    blocks of ``ring_blocks``.  A node set weighs each node.  On S^2 a northern ring stands for
    its southern mirror too, its values rolled half a turn (same sum) times (-1)^ell: twice its
    weight at even ell; at odd ell its weight and the sums of f(-v) as well, so an odd f
    integrates to exactly 0.  The equator of an odd res is its own mirror: half that."""
    w = sample.grid.weights
    mirrored = sample.grid.cos_colat is not None and sample.ell % 2 == 1
    if sample.grid.cos_colat is not None:
        w = w[len(w) // 2 :] * (1.0 if mirrored else 2.0)
        if len(sample.grid.weights) % 2:
            w[0] *= 0.5
    sums = np.empty((len(sample.coef), len(w)))
    for rows, block in ring_blocks(sample):
        np.sum(f(block), axis=-1, out=sums[:, rows])
        if mirrored:
            sums[:, rows] += np.sum(f(-block), axis=-1)
    return np.sum(w * sums, axis=-1)


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

    Refused before anything is allocated with fewer nodes than dim_d(ell) (ValueError),
    where no positive-weight rule on the nodes is exact at degree 2 ell, so h_2 is biased.  A
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


def _basis(grid: SphereGrid, ell: int) -> np.ndarray:
    """The grid's cached basis at degree ell, built (or refused) on first use: a node set's
    harmonic factor Y; on S^2 the Legendre table V_(ell,m) / sqrt(2 ell + 1), one row of
    orders per northern cosine, (ell + 1) * ceil(res / 2) doubles, refused (ValueError, not
    cached) off its sum rule by 1e-9 on a ring (from ell ~ 2000: subnormal sectoral starts)."""
    if grid.cos_colat is None:
        return _dense_factor(grid, ell)
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
    return grid._cache[key]


def simulate(ell: int, grid: SphereGrid, seeds) -> FieldSample:
    """A stack of draws of the degree-ell field on ``grid``, one per integer Philox key in [0, 2^128)
    of the 1-D sequence ``seeds``, row i with the bits of Generator(Philox(key=seeds[i])): keys (a
    float refused, not truncated) and basis (built or refused) are checked before any draw; then
    dim_d(ell) i.i.d. N(0,1) coefficients a draw, so the node covariance is the degree-ell kernel."""
    if ell < 0:
        raise ValueError(f"degree must be >= 0, got {ell}")
    keys = [operator.index(key) for key in seeds]
    if not all(0 <= key < 2**128 for key in keys):
        raise ValueError(f"Philox keys must be in [0, 2**128), got {min(keys)} to {max(keys)}")
    _basis(grid, ell)
    dim = _harmonic_dim(ell, grid.d)
    rng, coef = np.random.Generator(np.random.Philox(key=0)), np.empty((len(keys), dim))
    fresh = rng.bit_generator.state  # counter 0, empty buffer
    for row, key in zip(coef, keys):  # one Philox re-keyed with both key words
        fresh["state"]["key"][:] = key & 0xFFFFFFFFFFFFFFFF, key >> 64
        rng.bit_generator.state = fresh
        rng.standard_normal(out=row)
    return FieldSample(grid, ell, coef)


# Binary dump layout: 8-byte little-endian header (d: u16, ell: u16, N: u32)
# followed by N node-ordered float64 values.
_HEADER = struct.Struct("<HHI")


def dump_field(sample: FieldSample, path) -> None:
    """Write a stack of one draw for external visualization (format above); refuse any other."""
    if len(sample.coef) != 1:
        raise ValueError(f"a field dump holds one draw, got a stack of {len(sample.coef)}")
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(sample.grid.d, sample.ell, sample.grid.size))
        fh.write(np.ascontiguousarray(sample.values[0], dtype="<f8").tobytes())


def load_field(path) -> tuple[int, int, np.ndarray]:
    """Read a dump back as (d, ell, values); a short file or bytes past the N values are refused."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < _HEADER.size:
        raise ValueError(f"truncated field dump: {len(raw)} of {_HEADER.size} header bytes")
    d, ell, n = _HEADER.unpack_from(raw)
    extra = len(raw) - _HEADER.size - 8 * n
    if extra < 0:
        raise ValueError(f"truncated field dump: expected {n} values, got {(len(raw) - _HEADER.size) // 8}")
    if extra > 0:
        raise ValueError(f"field dump has {extra} extra bytes past its {n} values")
    return d, ell, np.frombuffer(raw, dtype="<f8", offset=_HEADER.size).copy()
