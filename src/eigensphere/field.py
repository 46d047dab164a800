"""Sampling of single-multipole Gaussian fields on discretized spheres.

A draw is the same on every grid: ``simulate`` builds (or refuses) the grid's cached basis,
then draws the dim_d(ell) N(0,1) coefficients on the real orthonormal harmonics.  Only this
module synthesizes: ``ring_blocks`` a block at a time, with the weights of ``block_weights``,
and ``FieldSample.values`` whole.  An S^2 product grid (``cos_colat`` set) synthesizes
exactly, one inverse real FFT per northern ring from its Legendre table: the grid is
mirrored and f(-x) = (-1)^ell f(x), so a southern ring is its mirror rolled half a turn,
times (-1)^ell, which the weights fold in.  A node set (d >= 3, N <= 6000) synthesizes
through its exact harmonic factor Y (dim_d(ell) x N, Y^T Y the kernel), built by recursion in
dimension: the field is one mat-vec g Y, and Y, at most N^2 doubles (200 MB at ell = 64 on
5929 nodes), is its peak; the grid keeps at most N^2 doubles of factors.  Both bases take
sin^j G^(d+2j) of S^d from one degree-major recurrence, ``_associated_rows``.
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
    "block_weights",
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
    measure, and what the synthesis routes by: ``cos_colat`` and one weight per
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
    """One realization of the degree-ell field on a grid, on every grid the same: ``coef``,
    its dim_d(ell) N(0,1) coefficients on the real orthonormal harmonics (on S^2, g[0] then
    the cos, sin pair of each order m = 1..ell).  ``ring_blocks`` synthesizes it a block at
    a time, ``values`` (every node, in node order) whole, only when read."""

    def __init__(self, grid: SphereGrid, ell: int, coef: np.ndarray):
        self.grid, self.ell, self.coef = grid, ell, coef

    @cached_property
    def values(self) -> np.ndarray:
        if self.grid.cos_colat is None:
            return self.coef @ _basis(self.grid, self.ell)
        res = len(self.grid.cos_colat)
        half = res // 2
        out = np.empty((res, 2 * res))
        for rows, block in ring_blocks(self):
            out[half:][rows] = block
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
    (``ring_blocks`` synthesizes each ring by an FFT of that length); the ring
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


_SCRATCH: dict[str, np.ndarray] = {}


def scratch(name: str, shape: tuple[int, ...], dtype=float) -> np.ndarray:
    """A view of the process-wide buffer ``name``, grown on demand: every draw
    reuses it, so the ring loop allocates no block after the first draw."""
    size = math.prod(shape)
    if name not in _SCRATCH or _SCRATCH[name].size < size:
        _SCRATCH[name] = np.empty(size, dtype)
    return _SCRATCH[name][:size].reshape(shape)


def ring_blocks(sample: FieldSample):
    """Yield (rows, values) blocks that make the field, each valid until the next: ``rows``
    slices the weights of ``block_weights``, values[i] holds the nodes of row i.  A node set
    is one block, g Y as a column (row i is node i).  An S^2 grid yields its northern rings
    (row i is ring res // 2 + i) in blocks of about _BLOCK_DOUBLES: irfft(table[rings] *
    spectrum) in scratch, of length n = 2 k res, k = ell // res + 1 (for ell >= res, a
    k-fold finer ring keeps every k-th sample)."""
    basis = _basis(sample.grid, sample.ell)
    if sample.grid.cos_colat is None:
        yield slice(0, basis.shape[1]), (sample.coef @ basis)[:, None]
        return
    g, ell, res = sample.coef, sample.ell, len(sample.grid.cos_colat)
    k = ell // res + 1
    n = 2 * k * res
    spectrum = np.empty(ell + 1, dtype=complex)  # g[2m-1], g[2m]: cos, sin pair of order m
    spectrum[0] = n * g[0]
    spectrum[1:] = (0.5 * n) * (g[1::2] - 1j * g[2::2])
    rows = max(1, min(len(basis), _BLOCK_DOUBLES // n))
    spectra = scratch("spectra", (rows, ell + 1), complex)
    rings = scratch("rings", (rows, n))
    for r0 in range(0, len(basis), rows):
        m = min(rows, len(basis) - r0)
        np.multiply(basis[r0 : r0 + m], spectrum, out=spectra[:m])
        np.fft.irfft(spectra[:m], n=n, out=rings[:m])
        yield slice(r0, r0 + m), rings[:m, ::k]


def block_weights(sample: FieldSample) -> tuple[np.ndarray, bool]:
    """Quadrature weights of the rows of ``ring_blocks``, and whether each row also stands
    for its mirror -v.  A node set: its node weights.  On S^2 a northern ring stands for its
    southern mirror too, its values rolled half a turn (same sum) times (-1)^ell: twice its
    weight at even ell; at odd ell its weight and the f(-v) sums, so an odd f integrates to
    exactly 0.  The equator of an odd res is its own mirror: half that."""
    w = sample.grid.weights
    if sample.grid.cos_colat is None:
        return w, False
    odd = sample.ell % 2 == 1
    north = w[len(w) // 2 :] * (1.0 if odd else 2.0)
    if len(w) % 2:
        north[0] *= 0.5
    return north, odd


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


def simulate(ell: int, grid: SphereGrid, seed: int) -> FieldSample:
    """One draw of the degree-ell field on ``grid``: its basis is built or refused first,
    so a refusal draws nothing; then dim_d(ell) i.i.d. N(0,1) coefficients, so that by the
    addition theorem the node covariance is exactly the degree-ell kernel."""
    if ell < 0:
        raise ValueError(f"degree must be >= 0, got {ell}")
    _basis(grid, ell)
    return FieldSample(grid, ell, _rng_for(seed).standard_normal(_harmonic_dim(ell, grid.d)))


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
