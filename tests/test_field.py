import math
import struct
import tracemalloc

import numpy as np
import pytest

from eigensphere import field
from eigensphere.field import (
    DENSE_NODE_BUDGET,
    S2_NODE_BUDGET,
    GridTooLargeError,
    SphereGrid,
    _dense_factor,
    _harmonic_dim,
    _associated_table,
    build_grid,
    dump_field,
    load_field,
    replicate_seed,
    simulate,
)
from eigensphere.specfun import gegenbauer_eval_many, sphere_measure


@pytest.fixture(scope="module")
def grid64():
    return build_grid(2, 64)


def _s2_coordinates(grid):
    """Longitudes and (N, 3) unit-vector nodes of a build_grid(2, res) grid,
    ring-major, as its docstring states them: the grid stores neither."""
    x = grid.cos_colat
    res, m = len(x), 2 * len(x)
    phi = 2.0 * math.pi * np.arange(m) / m
    sin_colat = np.sqrt(1.0 - x * x)
    nodes = np.empty((res * m, 3))
    nodes[:, 0] = np.repeat(sin_colat, m) * np.tile(np.cos(phi), res)
    nodes[:, 1] = np.repeat(sin_colat, m) * np.tile(np.sin(phi), res)
    nodes[:, 2] = np.repeat(x, m)
    return phi, nodes


def _philox_normals(key, dim):
    """The normals a new Generator(Philox(key=key)) draws first: row i of a stack."""
    return np.random.Generator(np.random.Philox(key=int(key))).standard_normal(dim)


def _stacks(ell, grid, master, reps, block=500):
    """Replicates 0..reps-1 of ``master``, drawn in stacks of at most ``block``."""
    seeds = replicate_seed(master, np.arange(reps))
    return (simulate(ell, grid, seeds[r : r + block]) for r in range(0, reps, block))


def _dense_copy(grid):
    """The same S^2 grid for the dense route: every node with its coordinates
    and its ring's weight."""
    res = len(grid.cos_colat)
    return SphereGrid(2, np.repeat(grid.weights, 2 * res), nodes=_s2_coordinates(grid)[1])


# ---------------------------------------------------------------------- grids
def test_product_grid(grid64):
    assert grid64.size == 64 * 128
    assert grid64.nodes is None
    assert grid64.weights.shape == (64,)  # one per ring, shared by its 128 nodes
    assert abs(128 * grid64.weights.sum() - 4.0 * math.pi) < 1e-10
    assert np.max(np.abs(np.linalg.norm(_s2_coordinates(grid64)[1], axis=1) - 1.0)) < 1e-12
    assert np.all(grid64.weights > 0)


def test_product_grid_peak_memory():
    # an S^2 grid keeps and builds O(res) numbers, never one per node
    res = 512
    tracemalloc.start()
    try:
        build_grid(2, res)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 16 * 8 * res, peak / (8 * res)


def test_s2_grid_budget():
    # 2 * 4096^2 nodes is the largest grid admitted; one more ring is refused
    # before anything is allocated
    assert 2 * 4096**2 == S2_NODE_BUDGET
    tracemalloc.start()
    try:
        with pytest.raises(GridTooLargeError, match="S\\^2 grid budget"):
            build_grid(2, 4097)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_quasi_uniform_grid():
    g = build_grid(3, 40)
    assert g.size == 1600
    assert g.weights.sum() == pytest.approx(2.0 * math.pi**2, abs=1e-12)
    assert np.max(np.abs(np.linalg.norm(g.nodes, axis=1) - 1.0)) < 1e-12
    # quasi-uniformity sanity: the kernel mean over nodes approximates the
    # analytic mean 0 of the degree-2 covariance
    cos_tau = np.clip(g.nodes @ g.nodes[0], -1.0, 1.0)
    val = np.sum(g.weights * gegenbauer_eval_many(2, 3, cos_tau))
    assert abs(val) < 0.05


def test_grid_validation():
    with pytest.raises(ValueError):
        build_grid(2, 3)
    with pytest.raises(ValueError):
        build_grid(1, 16)


def test_quadrature_exactness(grid64):
    # eigenfunctions have zero mean; Gauss-Legendre integrates the degree-4
    # kernel exactly; the cosine of the distance to the north pole is z
    val = np.sum(np.repeat(grid64.weights, 128) * gegenbauer_eval_many(4, 2, _s2_coordinates(grid64)[1][:, 2]))
    assert abs(val) < 1e-9


# ------------------------------------------------------------------ synthesis
def _order_major_table(ell, x):
    """The Legendre table by one order at a time: the sectoral seed, then the
    upward recurrence in the degree for that order alone (ell^2 / 2 steps)."""
    n = len(x)
    u = np.sqrt(np.clip(1.0 - x * x, 0.0, 1.0))
    out = np.empty((ell + 1, n))
    if ell == 0:
        out[0] = 1.0
        return out
    pmm = np.ones(n)
    for m in range(ell + 1):
        if m == 1:
            pmm = math.sqrt(3.0) * u
        elif m > 1:
            pmm = pmm * u * math.sqrt((2.0 * m + 1.0) / (2.0 * m))
        if m == ell:
            out[m] = pmm
            break
        p_prev = pmm
        p_curr = x * math.sqrt(2.0 * m + 3.0) * pmm
        for deg in range(m + 2, ell + 1):
            a = math.sqrt((2.0 * deg - 1.0) * (2.0 * deg + 1.0) / ((deg - m) * (deg + m)))
            b = math.sqrt(
                (2.0 * deg + 1.0)
                * (deg + m - 1.0)
                * (deg - m - 1.0)
                / ((deg - m) * (deg + m) * (2.0 * deg - 3.0))
            )
            p_prev, p_curr = p_curr, a * x * p_curr - b * p_prev
        out[m] = p_curr
    return out


@pytest.mark.parametrize("ell", [0, 1, 2, 33, 128])
@pytest.mark.parametrize("res", [4, 5, 64, 65, 257])
def test_legendre_table_matches_order_major_loop(ell, res):
    # same operations in the same order per value, so the same bits; GL
    # cosines and an asymmetric set with both poles and the equator
    x_gl = build_grid(2, res).cos_colat
    x_any = np.concatenate([np.cos(np.linspace(0.01, 3.1, res)), [1.0, -1.0, 0.0]])
    for x in (x_gl, x_any):
        assert np.array_equal(_associated_table(ell, 2, x), _order_major_table(ell, x))


@pytest.mark.parametrize("rows", [1, 7])
def test_legendre_table_order_groups(monkeypatch, rows):
    # orders in groups of 1 and of 7 (the last one partial at ell = 33), as
    # wide grids run them, give the same bits
    x = build_grid(2, 65).cos_colat
    monkeypatch.setattr(field, "_TABLE_DOUBLES", 3 * len(x) * rows)
    for ell in (2, 3, 33):
        assert np.array_equal(_associated_table(ell, 2, x), _order_major_table(ell, x))


def test_legendre_table_addition_theorem():
    x = np.linspace(-0.95, 0.95, 9)
    for ell in (1, 2, 5, 40, 128):
        table = _associated_table(ell, 2, x)
        np.testing.assert_allclose(
            np.sum(table**2, axis=0), 2.0 * ell + 1.0, rtol=1e-11
        )


def _zonal_reference(ell, d, j, x):
    """W_(ell,j) = c sin^j G^(d+2j)_(ell-j)(x), the normalised associated function of
    S^d, from c^2 = mu_d dim_(d-1)(j) C^(j+lam)_(ell-j)(1)^2 / (mu_(d-1) dim_d(ell)
    h^(j+lam)_(ell-j)), lam = (d - 1)/2, h the Gegenbauer norm (DLMF 18.3), in lgamma
    form: the reference for the degree recurrence of field._associated_rows."""
    a, n = j + 0.5 * (d - 1), ell - j
    log_c2 = (
        math.log(sphere_measure(d) / sphere_measure(d - 1))
        + math.log(_harmonic_dim(j, d - 1)) - math.log(_harmonic_dim(ell, d))
        + math.lgamma(n + 2.0 * a) - math.lgamma(n + 1.0) + math.log(n + a)
        + 2.0 * math.lgamma(a) - 2.0 * math.lgamma(2.0 * a) - math.log(math.pi) + (2.0 * a - 1.0) * math.log(2.0)
    )
    s = np.sqrt((1.0 - x) * (1.0 + x))
    return math.exp(0.5 * log_c2) * s**j * gegenbauer_eval_many(n, d + 2 * j, x)


@pytest.mark.parametrize("d", [3, 4, 5])
def test_associated_rows_match_lgamma_normalisation(d):
    # the generic table against c sin^j G^(d+2j) (poles and equator included), its
    # sum rule sum_j V^2 = dim_d(ell), and the stream yields the table at every degree
    theta = np.concatenate([np.linspace(0.0, math.pi, 61), [1e-3, math.pi - 1e-3]])
    x, s = np.cos(theta), np.sin(theta)
    stream = field._associated_rows(40, d, x, s)
    for ell in range(41):
        table = np.array(list(field._associated_last(ell, d, x, s)))
        assert np.array_equal(next(stream), table)
        dim = _harmonic_dim(ell, d)
        ref = np.array([_zonal_reference(ell, d, j, x) for j in range(ell + 1)])
        assert np.max(np.abs(table / math.sqrt(dim) - ref)) <= 1e-12, ell
        np.testing.assert_allclose(np.sum(table**2, axis=0), dim, rtol=1e-12, atol=0)


def test_draw_refuses_table_off_its_sum_rule():
    # from about ell = 2000 the table's subnormal sectoral starts break the sum
    # rule (1e-4 off at ell = 2000 on 16 rings, nan at 4000): a draw must refuse
    # the table rather than synthesize from it, and must not cache it
    grid = build_grid(2, 16)
    for ell in (2000, 4000):
        with np.errstate(all="ignore"), pytest.raises(ValueError, match=f"ell={ell}, res=16"):
            simulate(ell, grid, [0])
        assert ("legendre", ell) not in grid._cache
    simulate(1900, build_grid(2, 8), [0])  # 1.6e-13 off on these rings


def _direct_rows(ell, grid):
    """Real harmonic basis at every node by the direct sum over orders: the
    Legendre table times cos/sin of m phi, in the coefficient order of
    the ring route of simulate (g[0], then the cos/sin pair of each order m)."""
    phi = _s2_coordinates(grid)[0]
    a = _associated_table(ell, 2, grid.cos_colat) / math.sqrt(2.0 * ell + 1.0)
    mphi = np.arange(1, ell + 1)[:, None] * phi[None, :]
    rows = np.empty((2 * ell + 1, len(grid.cos_colat), len(phi)))
    rows[0] = a[0][:, None]
    rows[1::2] = a[1:, :, None] * np.cos(mphi)[:, None, :]
    rows[2::2] = a[1:, :, None] * np.sin(mphi)[:, None, :]
    return rows.reshape(2 * ell + 1, -1)


def test_synthesis_covariance_is_exact(grid64):
    # dot products of synthesis rows must reproduce the covariance kernel
    ell = 8
    rows = _direct_rows(ell, grid64)
    nodes = _s2_coordinates(grid64)[1]
    rng = np.random.default_rng(3)
    for _ in range(25):
        n1, n2 = rng.integers(0, grid64.size, 2)
        target = gegenbauer_eval_many(ell, 2, nodes[n1] @ nodes[n2])
        assert rows[:, n1] @ rows[:, n2] == pytest.approx(target, abs=1e-12)


@pytest.mark.parametrize("ell, res", [(8, 64), (12, 12), (13, 12), (40, 12), (5, 200)])
def test_fft_synthesis_matches_direct_sum(ell, res):
    # k = ell // res + 1 is 1, 2 (ell = res is the ring's Nyquist order), 2 and 4;
    # the 200 rings of (5, 200) are synthesized in two blocks, of 163 and 37
    grid = build_grid(2, res)
    for seed in (0, 11):
        direct = _philox_normals(seed, 2 * ell + 1) @ _direct_rows(ell, grid)
        np.testing.assert_allclose(simulate(ell, grid, [seed]).values[0], direct, rtol=0, atol=1e-12)


@pytest.mark.parametrize(
    "ell, res, draws", [(40, 60, 32), (60, 30, 32), (50, 45, 32), (10, 300, 1), (301, 301, 1)]
)
def test_ring_blocks_pad_as_irfft_pads(ell, res, draws):
    # each ring has the bits of numpy's own zero-padding of its ell + 1 bins to length n, though
    # ring_blocks hands irfft n // 2 + 1 bins whose tail it zeroes once per call: k = 1, 3, 2, 1
    # and 2, odd res at 45 and 301, stacks of 32 and 1, and every case ends in a partial block,
    # which reads the zero tail of the reused buffer again
    grid = build_grid(2, res)
    sample = simulate(ell, grid, replicate_seed(4, np.arange(draws)))
    basis, g = field._basis(grid, ell), sample.coef
    k = ell // res + 1
    n = 2 * k * res
    spectrum = np.concatenate([n * g[:, :1], (0.5 * n) * (g[:, 1::2] - 1j * g[:, 2::2])], axis=1)
    sizes = []
    for rows, block in field.ring_blocks(sample):
        sizes.append(rows.stop - rows.start)
        for i, r in enumerate(range(len(basis))[rows]):
            for b in range(draws):
                assert np.array_equal(block[b, i], np.fft.irfft(basis[r] * spectrum[b], n=n)[::k]), (r, b)
    assert sum(sizes) == len(basis) and sizes[-1] < sizes[0], sizes


def test_seed_determinism(grid64):
    s1 = simulate(8, grid64, [987654321])
    s2 = simulate(8, grid64, [987654321])
    assert np.array_equal(s1.values, s2.values)
    g3 = build_grid(3, 12)
    t1 = simulate(4, g3, [42])
    t2 = simulate(4, g3, [42])
    assert np.array_equal(t1.values, t2.values)


def test_replicate_seed_derivation():
    assert np.array_equal(replicate_seed(7, np.arange(200)), replicate_seed(7, np.arange(200)))
    assert len(set(replicate_seed(7, np.arange(200)))) == 200
    assert replicate_seed(7, [0])[0] != replicate_seed(8, [0])[0]


@pytest.mark.parametrize("master", [0, 1, 2**32 - 1, 2**32, 2**64 + 1, 12345678901234567890, 2**127 + 3])
def test_replicate_seed_is_numpy_seed_sequence(master):
    # the vectorised hash is numpy's SeedSequence((master, index)).generate_state(1, uint64)[0]
    # bit for bit: 1 to 4 words of master, so the pool of 4 words pads or overflows
    index = np.arange(5000)
    expected = [np.random.SeedSequence((master, i)).generate_state(1, np.uint64)[0] for i in range(5000)]
    seeds = replicate_seed(master, index)
    assert seeds.dtype == np.uint64
    assert np.array_equal(seeds, np.array(expected, dtype=np.uint64))


def test_replicate_seed_refuses_out_of_range():
    with pytest.raises(ValueError):
        replicate_seed(-1, np.arange(3))
    with pytest.raises(ValueError):
        replicate_seed(5, np.array([0, 2**32]))
    with pytest.raises(ValueError, match="1-D integer array"):  # not truncated to 0, 0
        replicate_seed(1, np.array([0.5, 0.0]))
    with pytest.raises(ValueError, match="1-D integer array"):  # no scalar form
        replicate_seed(1, 3)


@pytest.mark.parametrize("d, res, ell", [(2, 64, 8), (2, 7, 14), (3, 20, 6)])
def test_stacked_draw_rows_are_single_draws(d, res, ell):
    # one Philox re-keyed per seed draws row i with the bits of Generator(Philox(key=seeds[i]))
    grid = build_grid(d, res)
    seeds = replicate_seed(9, np.arange(40))
    stack = simulate(ell, grid, seeds)
    dim = _harmonic_dim(ell, d)
    assert stack.coef.shape == (40, dim)
    for i, seed in enumerate(seeds):
        assert np.array_equal(stack.coef[i], _philox_normals(seed, dim)), i
    assert np.array_equal(simulate(ell, grid, seeds[:0]).coef, np.empty((0, dim)))


@pytest.mark.parametrize("d, res, ell", [(2, 16, 8), (3, 12, 4)])
def test_stack_rows_take_both_key_words(d, res, ell):
    # a key past 2^64 re-keys both Philox key words; keys outside [0, 2^128) are refused
    # before the basis is built or a normal drawn, as Philox(key=...) refuses them
    keys = [0, 2**64 - 1, 2**64 + 5, 2**127 + 3, 2**128 - 1]
    grid, dim = build_grid(d, res), _harmonic_dim(ell, d)
    for bad in (-1, 2**128):
        with pytest.raises(ValueError, match=r"\[0, 2\*\*128\)"):
            simulate(ell, grid, [5, bad])
        with pytest.raises(ValueError, match=r"less than 2\*\*128"):
            np.random.Philox(key=bad)
    assert not grid._cache
    stack = simulate(ell, grid, keys)
    for i, key in enumerate(keys):
        assert np.array_equal(stack.coef[i], _philox_normals(key, dim)), key


@pytest.mark.parametrize("d, res, ell", [(2, 16, 8), (3, 12, 4)])
def test_simulate_refuses_keys_that_are_not_integers(d, res, ell):
    # a float key is refused before the basis is built or a normal drawn, not truncated; numpy
    # integer keys (replicate_seed's uint64) and Python ints past 2^64 keep their bits
    grid, dim = build_grid(d, res), _harmonic_dim(ell, d)
    for bad in ([0.5], [3, np.float64(1.9)], np.array([1.9])):
        with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
            simulate(ell, grid, bad)
    assert not grid._cache
    keys = [7, 2**63 + 1, 2**64 + 5]
    as_numpy = [np.int64(7), np.uint64(2**63 + 1), 2**64 + 5]
    for stack in (simulate(ell, grid, as_numpy), simulate(ell, grid, np.array(keys[:2], dtype=np.uint64))):
        for i, row in enumerate(stack.coef):
            assert np.array_equal(row, _philox_normals(keys[i], dim)), i
    assert np.array_equal(simulate(ell, grid, keys).coef[2], _philox_normals(2**64 + 5, dim))


@pytest.mark.parametrize("d, res", [(2, 16), (3, 12), (2, 7)])
def test_stack_values_are_one_row_per_draw(d, res):
    # a stack's values come from the blocks that reduce it, row i with the bits of draw i
    # alone: an odd res and, on it, ell >= res (a finer ring); an empty stack has no rows
    grid = build_grid(d, res)
    seeds = replicate_seed(2, np.arange(3))
    for ell in (9, 14) if res == 7 else (4,):
        stack = simulate(ell, grid, seeds)
        assert stack.values.shape == (3, grid.size)
        for i, seed in enumerate(seeds):
            assert np.array_equal(stack.values[i], simulate(ell, grid, [seed]).values[0]), (ell, i)
        assert simulate(ell, grid, seeds[:0]).values.shape == (0, grid.size)


def test_pointwise_variance():
    grid = build_grid(2, 16)
    vals = np.concatenate([s.values[:, 37] for s in _stacks(4, grid, 5, 10_000)])
    assert 0.94 <= vals.var(ddof=1) <= 1.06


def test_mean_zero_and_covariance_law(grid64):
    reps = 3000
    rng = np.random.default_rng(8)
    idx = rng.integers(0, grid64.size, (50, 2))
    tracked = np.unique(idx)
    pos = {node: k for k, node in enumerate(tracked)}
    vals = np.concatenate([s.values[:, tracked] for s in _stacks(8, grid64, 21, reps)])
    # ensemble mean at tracked nodes ~ 0 at 3 sigma
    assert np.max(np.abs(vals.mean(axis=0))) <= 3.0 / math.sqrt(reps) + 0.01
    cov = np.cov(vals.T)
    nodes = _s2_coordinates(grid64)[1]
    worst = 0.0
    for n1, n2 in idx:
        target = gegenbauer_eval_many(8, 2, nodes[n1] @ nodes[n2])
        worst = max(worst, abs(cov[pos[n1], pos[n2]] - target))
    assert worst <= 4.0 / math.sqrt(reps)


@pytest.mark.parametrize("ell", [8, 9])
def test_antipodal_symmetry(ell, grid64):
    # tau = pi gives covariance (-1)^ell exactly, so node values at antipodes
    # are equal (even ell) or opposite (odd ell); the southern rings are built
    # from the northern ones, so exactly, and only those have a Legendre table
    m = len(_s2_coordinates(grid64)[0])
    res = len(grid64.cos_colat)
    s = simulate(ell, grid64, [31415])
    v = s.values.reshape(res, m)
    assert np.array_equal(grid64.cos_colat, -grid64.cos_colat[::-1])  # gauss_legendre mirrors its nodes
    assert grid64._cache[("legendre", ell)].size == (ell + 1) * ((res + 1) // 2)
    flipped = v[::-1, :]
    rolled = np.roll(flipped, m // 2, axis=1)
    sign = 1.0 if ell % 2 == 0 else -1.0
    assert np.array_equal(v, sign * rolled)


def test_covariance_at_right_angle(grid64):
    # pick a pair of near-orthogonal nodes; P_4 has zero slope at 0 so the
    # inner-product offset is second order
    phi, nodes = _s2_coordinates(grid64)
    res, m = len(grid64.cos_colat), len(phi)
    i = int(np.argmin(np.abs(grid64.cos_colat)))
    n1 = i * m
    n2 = (res - 1 - i) * m + m // 4
    assert abs(nodes[n1] @ nodes[n2]) < 1e-3
    reps = 4000
    vals = np.concatenate([s.values[:, [n1, n2]] for s in _stacks(4, grid64, 77, reps)])
    emp = np.cov(vals.T)[0, 1]
    se = math.sqrt((1.0 + 0.375**2) / reps)
    assert abs(emp - 0.375) <= 3.0 * se


def test_spectral_purity(grid64):
    # quadrature inner products against foreign-degree harmonics vanish
    ell = 8
    s = simulate(ell, grid64, [2024])
    phi = _s2_coordinates(grid64)[0]
    m_count = len(phi)
    v = s.values.reshape(-1, m_count)
    w_theta = np.polynomial.legendre.leggauss(len(grid64.cos_colat))[1]
    for k in (6, 11):
        table = _associated_table(k, 2, grid64.cos_colat)
        for m in (0, 3):
            basis = table[m][:, None] * np.cos(m * phi)[None, :]
            inner = np.sum(w_theta[:, None] * (2 * math.pi / m_count) * v * basis)
            assert abs(inner) < 1e-9


# ------------------------------------------------------------------- dense route
def _top_degree(d, n):
    """The largest degree whose harmonic dimension fits on n nodes."""
    ell = 0
    while _harmonic_dim(ell + 1, d) <= n:
        ell += 1
    return ell


def test_dense_factor_diagonal():
    # unit columns, no jitter: S^5 takes four levels of the dimension recursion
    g = build_grid(5, 12)
    for ell in (0, 1, 4):
        factor = _dense_factor(g, ell)
        assert factor.shape == (_harmonic_dim(ell, 5), g.size)
        np.testing.assert_allclose(np.sum(factor * factor, axis=0), 1.0, rtol=0, atol=1e-12)


def _kernel_extended(ell, d, nodes):
    """The kernel on the Gram matrix in long double, by the recurrence of
    specfun.gegenbauer_eval_many: in double, rounding the Gram alone moves G by up to
    eps * G'(1) = eps * ell (ell + d - 1) / d, 1.1e-12 at ell = 143 on S^2."""
    x = nodes.astype(np.longdouble)
    x /= np.sqrt(np.sum(x * x, axis=1))[:, None]
    t = np.clip(x @ x.T, -1, 1)
    g_prev, g = np.ones_like(t), t if ell else np.ones_like(t)
    for k in range(2, ell + 1):
        a = np.longdouble(2 * k + d - 3) / np.longdouble(k + d - 2)
        g_prev, g = g, a * t * g - (a - 1) * g_prev
    return g


@pytest.mark.parametrize("d, res", [(3, 31), (4, 13), (4, 17), (2, 12)])
def test_dense_factor_matches_full_matrix_build(d, res):
    # Y^T Y is the kernel on the Gram matrix, up to the largest degree the grid
    # admits (30 on 961 nodes, 6 on 169, 8 on 289, 143 on 288), against a long
    # double reference: at ell = 143 the double kernel itself is 2.3e-12 off it
    assert np.finfo(np.longdouble).eps < 1e-18
    grid = build_grid(d, res)
    if d == 2:  # the dense route on S^2 needs the coordinates the grid does not keep
        grid = _dense_copy(grid)
    n = grid.size
    top = _top_degree(d, n)
    for ell in sorted({0, 1, min(8, top), top}):
        factor = _dense_factor(grid, ell)
        assert factor.shape == (_harmonic_dim(ell, d), n)
        err = np.max(np.abs(factor.T @ factor - _kernel_extended(ell, d, grid.nodes)))
        assert err <= 1e-12, (d, res, ell, float(err))
        np.testing.assert_allclose(np.sum(factor * factor, axis=0), 1.0, rtol=0, atol=1e-12)
    # the double kernel agrees where its own rounding stays small
    gram = grid.nodes @ grid.nodes.T
    ell = min(8, top)
    factor = _dense_factor(grid, ell)
    assert np.max(np.abs(factor.T @ factor - gegenbauer_eval_many(ell, d, gram))) <= 1e-13


def test_dense_factor_at_poles():
    # nodes on the axes: a polar angle's sine is 0 there, and the next chart
    # level has nothing to normalise; every row of positive degree is 0 at them
    base = build_grid(3, 12)
    axes = np.vstack([np.eye(4), -np.eye(4), [[0.0, 0.0, 0.6, 0.8]]])
    grid = SphereGrid(3, np.ones(len(base.weights) + len(axes)), nodes=np.vstack([base.nodes, axes]))
    factor = _dense_factor(grid, 9)
    assert np.all(np.isfinite(factor))
    err = np.max(np.abs(factor.T @ factor - _kernel_extended(9, 3, grid.nodes)))
    assert err <= 1e-13, err


def test_dense_factor_peak_memory():
    # the factor itself (dim x N doubles) plus O(ell N): the chart, the S^1 rows,
    # one live recurrence and one weight row per order; here dim = N = 900
    grid = build_grid(3, 30)
    n, ell = grid.size, 29
    tracemalloc.start()
    try:
        _dense_factor(grid, ell)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 8 * n * (_harmonic_dim(ell, 3) + 10 * (ell + 1)), peak / (8 * n)


def test_dense_factor_off_its_kernel_is_refused(monkeypatch):
    # one order of the top-level rows scaled by 1.001: Y^T Y leaves the kernel on
    # the fixed node pairs, so the factor is refused and not cached
    grid = build_grid(3, 12)
    rows = field._associated_last

    def corrupted(*args):
        for j, row in enumerate(rows(*args)):
            yield row * 1.001 if j == 3 else row

    monkeypatch.setattr(field, "_associated_last", corrupted)
    with pytest.raises(ValueError, match="off its kernel"):
        _dense_factor(grid, 8)
    assert ("factor", 8) not in grid._cache


def test_dense_factor_cache_is_bounded():
    # at most N^2 doubles of factors per node set: 12 and 20 fit together (169 N +
    # 441 N of 900 N), 25 (676 N) does not, so the least recently used, 20, goes
    grid = build_grid(3, 30)
    n = grid.size
    tracemalloc.start()
    try:
        first = _dense_factor(grid, 12)
        _dense_factor(grid, 20)
        assert _dense_factor(grid, 12) is first  # a hit, and now the most recent
        _dense_factor(grid, 25)
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert list(grid._cache) == [("factor", 12), ("factor", 25)]
    assert current <= 8 * n * n + 2**16, current / (8 * n)
    assert peak <= 8 * n * (n + 10 * 26), peak / (8 * n)


def test_dense_factor_refuses_degree_past_node_count():
    # dim_3(12) = 169 > 144 nodes: refused before the factor is allocated
    grid = build_grid(3, 12)
    _dense_factor(grid, 11)  # dim_3(11) = 144 fits
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="needs at least 169 nodes"):
            simulate(12, grid, [0])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**16
    assert ("factor", 12) not in grid._cache


def test_sd_matches_s2_law():
    # d=2 grid small enough for the dense route: compare empirical
    # covariances from both samplers against the same kernel
    grid = _dense_copy(build_grid(2, 12))
    reps = 3000
    rng = np.random.default_rng(9)
    pairs = rng.integers(0, grid.size, (20, 2))
    tracked = np.unique(pairs)
    pos = {node: k for k, node in enumerate(tracked)}
    vals = np.concatenate([s.values[:, tracked] for s in _stacks(8, grid, 13, reps)])
    cov = np.cov(vals.T)
    for n1, n2 in pairs:
        target = gegenbauer_eval_many(8, 2, grid.nodes[n1] @ grid.nodes[n2])
        assert abs(cov[pos[n1], pos[n2]] - target) <= 4.0 / math.sqrt(reps)


def test_isotropy_residuals():
    # covariance residuals must not regress on a non-geodesic feature
    # (longitude difference) once tau is accounted for
    g = build_grid(2, 12)
    phi, grid = _s2_coordinates(g)[0], _dense_copy(g)
    reps = 4000
    rng = np.random.default_rng(123)
    pairs = rng.integers(0, grid.size, (30, 2))
    tracked = np.unique(pairs)
    pos = {node: k for k, node in enumerate(tracked)}
    vals = np.concatenate([s.values[:, tracked] for s in _stacks(6, grid, 17, reps)])
    cov = np.cov(vals.T)
    resid, feature = [], []
    m = len(phi)
    for n1, n2 in pairs:
        target = gegenbauer_eval_many(6, 2, grid.nodes[n1] @ grid.nodes[n2])
        resid.append(cov[pos[n1], pos[n2]] - target)
        dphi = abs((n1 % m) - (n2 % m)) * 2.0 * math.pi / m
        feature.append(min(dphi, 2.0 * math.pi - dphi))
    slope, _ = np.polyfit(feature, resid, 1)
    n = len(pairs)
    se = np.std(resid, ddof=1) / (np.std(feature, ddof=1) * math.sqrt(n))
    assert abs(slope) <= 3.0 * se


def test_grid_budget():
    # 77^2 = 5929 nodes is the largest node set admitted; 78^2 = 6084 is refused when
    # the grid is built, before anything is allocated
    assert build_grid(3, 77).size == 5929 <= DENSE_NODE_BUDGET < 78**2
    tracemalloc.start()
    try:
        with pytest.raises(GridTooLargeError, match="node-set budget"):
            build_grid(3, 78)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**16


def test_simulate_dispatch(grid64):
    assert simulate(4, grid64, [5]).values.shape == (1, grid64.size)
    g3 = build_grid(3, 12)
    assert simulate(4, g3, [5]).values.shape == (1, g3.size)


def test_simulate_routes_by_grid(grid64):
    # a draw is one N(0,1) per harmonic on every grid; the grid picks the
    # synthesis, not d: an S^2 grid given by its nodes is synthesized through
    # the harmonic factor, the product grid by ring synthesis
    dense = _dense_copy(build_grid(2, 12))
    s = simulate(4, dense, [5])
    assert s.coef.shape == (1, 9)
    assert np.array_equal(s.values[0], _philox_normals(5, 9) @ _dense_factor(dense, 4))
    assert simulate(4, grid64, [5]).coef.shape == (1, 9)


@pytest.mark.parametrize("d", [2, 3])
def test_simulate_rejects_negative_degree(d):
    grid = build_grid(d, 12)
    with pytest.raises(ValueError, match="degree must be >= 0"):
        simulate(-1, grid, [0])


# ---------------------------------------------------------------- binary dump
def test_dump_round_trip(tmp_path, grid64):
    s = simulate(8, grid64, [5])
    path = tmp_path / "sample.field"
    dump_field(s, path)
    d, ell, values = load_field(path)
    assert (d, ell) == (2, 8)
    assert np.array_equal(values, s.values[0])
    raw = path.read_bytes()
    assert len(raw) == 8 + 8 * grid64.size
    assert struct.unpack("<HHI", raw[:8]) == (2, 8, grid64.size)


def test_dump_refuses_a_stack(tmp_path, grid64):
    # the dump format holds one field: a stack of two, or of none, is refused
    path = tmp_path / "stack.field"
    for seeds in (replicate_seed(1, np.arange(2)), []):
        with pytest.raises(ValueError, match="one draw"):
            dump_field(simulate(8, grid64, seeds), path)
    assert not path.exists()


def test_dump_truncation_detected(tmp_path, grid64):
    # a short body, a cut-short header and an empty file; and a body padded past its N values
    s = simulate(8, grid64, [5])
    path = tmp_path / "sample.field"
    dump_field(s, path)
    raw = path.read_bytes()
    for cut, message in [(raw[:-16], "truncated field dump"), (raw[:5], "truncated field dump"),
                         (b"", "truncated field dump"), (raw + bytes(24), "24 extra bytes")]:
        path.write_bytes(cut)
        with pytest.raises(ValueError, match=message):
            load_field(path)
