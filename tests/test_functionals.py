import math
import tracemalloc
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from eigensphere import field
from eigensphere.field import _associated_table, build_grid, integrate, replicate_seed, simulate
from eigensphere.functionals import (
    defect,
    excursion_volume,
    hermite_projection,
    indicator_coeffs,
)
from eigensphere.moments import projection_variance
from eigensphere.specfun import gauss_pdf_cdf, hermite_eval, sphere_measure
from eigensphere.stats import default_resolution

MU2 = sphere_measure(2)


def flat_integral(sample, f):
    """The quadrature integral over every node at once of a stack of one draw:
    each ring's weight repeated over its 2*res nodes, times f of the whole field."""
    w = np.repeat(sample.grid.weights, 2 * len(sample.grid.cos_colat))
    return float(np.sum(w * f(sample.values[0])))


# -------------------------------------------- reference chaos expansion
@dataclass(frozen=True)
class ChaosCoefficients:
    """Truncated Hermite coefficients J_0..J_Q of a square-integrable
    nonlinearity.  J_0 is kept for mean bookkeeping only; expansions use
    the centered series starting at the rank."""

    coeffs: tuple[float, ...]

    def __post_init__(self):
        if len(self.coeffs) < 3:
            raise ValueError("need coefficients at least up to order 2")
        tail = self.coeffs[self.truncation] ** 2 / math.factorial(self.truncation)
        if tail > 1e-2:
            raise ValueError(f"last retained coefficient too heavy: J_Q^2/Q! = {tail:.3e}")

    @property
    def truncation(self) -> int:
        return len(self.coeffs) - 1

    @property
    def rank(self) -> int | None:
        """Smallest q >= 1 with J_q != 0, or None when all vanish."""
        return next((q for q in range(1, len(self.coeffs)) if self.coeffs[q] != 0.0), None)


def generic_functional(sample, coeffs: ChaosCoefficients) -> float:
    """Centered truncated expansion sum_{q=1}^{Q} (J_q / q!) integral of
    H_q(field), by the flat node sum; cross-checks direct evaluation of the
    nonlinearity."""
    if coeffs.rank is None:
        raise ValueError("all J_q vanish for q >= 1: Hermite rank undefined")
    return sum(
        c / math.factorial(q) * flat_integral(sample, lambda v, q=q: hermite_eval(q, v))
        for q, c in enumerate(coeffs.coeffs)
        if q >= 1 and c != 0.0
    )


@pytest.fixture(scope="module")
def grid():
    return build_grid(2, 64)


@pytest.fixture(scope="module")
def sample(grid):
    return simulate(8, grid, [123456])


# --------------------------------------------------------------- coefficients
def test_indicator_coeffs_z0():
    c = indicator_coeffs(0.0)
    phi0 = gauss_pdf_cdf(0.0)[0]
    assert len(c) == 9
    assert c[0] == 0.5  # 1 - Phi(0)
    assert c[1] == pytest.approx(phi0, abs=1e-16)
    assert c[2] == 0.0  # H_1(0) phi(0): the level kills rank 2
    assert ChaosCoefficients(c).rank == 1


def test_indicator_coeffs_z1():
    c = indicator_coeffs(1.0)
    pdf1, cdf1 = gauss_pdf_cdf(1.0)
    assert c[0] == pytest.approx(1.0 - cdf1, abs=1e-16)
    assert c[2] == pytest.approx(1.0 * pdf1, abs=1e-16)  # H_1(1) phi(1)
    for q in range(1, 9):
        assert c[q] == pytest.approx(hermite_eval(q - 1, 1.0) * pdf1, abs=1e-15)
    with pytest.raises(ValueError, match="too heavy"):  # J_2^2 / 2! = 0.029
        indicator_coeffs(1.0, 2)


def test_indicator_mean_link(grid):
    # J_0 = 1 - Phi(z) matches the ensemble-mean formula E[S]/mu_d
    for z in (-1.3, 0.0, 0.7, 2.2):
        c = indicator_coeffs(z)
        assert c[0] == pytest.approx(1.0 - gauss_pdf_cdf(z)[1], abs=1e-15)


def test_chaos_coefficients_validation():
    with pytest.raises(ValueError):
        ChaosCoefficients((1.0, 0.0))  # truncation below 2
    with pytest.raises(ValueError):
        ChaosCoefficients((0.0, 0.0, 2.0))  # heavy final coefficient
    c = ChaosCoefficients((0.0, 0.0, 2.0, 0.0))
    assert c.truncation == 3 and c.rank == 2
    assert ChaosCoefficients((0.5, 0.0, 0.0, 0.0)).rank is None


# ------------------------------------------------------------------ excursion
def test_excursion_extremes(sample):
    assert excursion_volume(sample, -10.0)[0] == pytest.approx(MU2, abs=1e-9)
    assert excursion_volume(sample, 10.0)[0] == 0.0


def test_excursion_mean_small_ensemble(grid):
    reps = 500
    target = MU2 * (1.0 - gauss_pdf_cdf(1.0)[1])
    vals = excursion_volume(simulate(8, grid, replicate_seed(2, np.arange(reps))), 1.0)
    assert abs(vals.mean() - target) <= 3.0 * vals.std(ddof=1) / math.sqrt(reps)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32), z=st.floats(-3, 3))
# every node above z: the res-64 weights sum to 4 pi + 1.8e-15
@example(seed=0, z=-3.0)
@example(seed=37063921, z=-2.0)
def test_excursion_range(grid, seed, z):
    assert 0.0 <= excursion_volume(simulate(6, grid, [seed]), z)[0] <= MU2


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32))
def test_excursion_monotone_in_level(grid, seed):
    s = simulate(6, grid, [seed])
    ladder = [excursion_volume(s, z)[0] for z in np.linspace(-3.5, 3.5, 29)]
    assert all(b <= a for a, b in zip(ladder, ladder[1:]))


# --------------------------------------------------------------------- defect
def test_defect_identity(sample):
    d = defect(sample)[0]
    e0 = excursion_volume(sample, 0.0)[0]
    assert np.all(sample.values != 0.0)
    assert d == pytest.approx(2.0 * e0 - MU2, abs=1e-12)
    assert abs(d) <= MU2


def test_defect_mean_zero(grid):
    reps = 600
    vals = defect(simulate(8, grid, replicate_seed(4, np.arange(reps))))
    assert abs(vals.mean()) <= 3.0 * vals.std(ddof=1) / math.sqrt(reps)


def test_defect_zero_nodes_contribute_nothing():
    # keep only order 0 at odd degree: P_9(0) = 0 exactly, so the equator ring
    # of an odd-resolution grid is exactly zero and no other node is
    grid = build_grid(2, 65)
    s = simulate(9, grid, [777])
    s.coef[:, 1:] = 0.0
    v = s.values.reshape(65, 130)
    rest = np.delete(np.arange(65), 32)
    assert np.all(v[32] == 0.0) and np.all(v[rest] != 0.0)
    expected = float(np.sum(grid.weights[rest, None] * np.sign(v[rest])))
    assert defect(s)[0] == pytest.approx(expected, abs=1e-14)


# ------------------------------------------------------ ring-block streaming
def full_sphere_integral(sample, f):
    """The quadrature integral over every node of an independent synthesis of
    the whole sphere: the Legendre table on all res cosines and one irfft per
    ring, each ring's weight times the sum of f over its 2*res nodes.  The
    spectrum of a ring FFT of length n packs the normals g as n g[0] at order 0
    and (n / 2)(g[2m-1] - i g[2m]) at order m."""
    grid, ell, g = sample.grid, sample.ell, sample.coef[0]
    res, k = len(grid.cos_colat), ell // len(grid.cos_colat) + 1
    n = 2 * k * res
    spectrum = np.concatenate([[n * g[0]], (0.5 * n) * (g[1::2] - 1j * g[2::2])])
    table = _associated_table(ell, 2, grid.cos_colat) / math.sqrt(2.0 * ell + 1.0)
    total = 0.0
    for i in range(res):
        ring = np.fft.irfft(table[:, i] * spectrum, n=n)[::k]
        total += grid.weights[i] * float(np.sum(f(ring)))
    return total


@pytest.mark.parametrize(
    "ell, res", [(8, 64), (40, 201), (41, 201), (250, 201), (251, 201), (128, 768)]
)
def test_streamed_functionals_match_flat_sum(ell, res):
    # the folded ring-block reductions against the whole sphere synthesized ring
    # by ring: (8, 64) is one block; the 101 northern rings of res 201 (odd, the
    # equator its own mirror) make one block at ell = 40, 41 and, on the 2-fold
    # ring of ell >= res, blocks of 81 and 20; the defect grid of ell = 128 makes
    # blocks of 42, the last of 6.  At odd ell the defect and h_3 are exactly 0.
    grid = build_grid(2, res)
    north = (res + 1) // 2
    rows = field._BLOCK_DOUBLES // (2 * (ell // res + 1) * res)
    assert rows >= north or north % rows != 0
    s = simulate(ell, grid, [2718])
    assert grid._cache[("legendre", ell)].size == (ell + 1) * north
    odd = ell % 2 == 1  # an odd f of an odd-degree field: exactly 0
    cases = [
        (defect(s)[0], np.sign, odd),
        (excursion_volume(s, 0.5)[0], lambda v: v > 0.5, False),
        (hermite_projection(s, 2)[0], lambda v: hermite_eval(2, v), False),
        (hermite_projection(s, 3)[0], lambda v: hermite_eval(3, v), odd),
    ]
    for value, f, zero in cases:
        if zero:
            assert value == 0.0
        else:
            assert value == pytest.approx(full_sphere_integral(s, f), rel=1e-13)


def stored_values_integral(sample, f):
    """The reductions of a stack of one draw that stored its node values, written out: on a
    node set np.sum(w * f(values)); on S^2 the per-ring sums of f over the
    northern rings, plus the sums of f(-v) at odd ell, the equator of an odd res
    halved, then the weighted sum, doubled at even ell."""
    w, values = sample.grid.weights, sample.values[0]
    if sample.grid.cos_colat is None:
        return float(np.sum(w * f(values)))
    res, half, odd = len(w), len(w) // 2, sample.ell % 2
    north = values.reshape(res, 2 * res)[half:]
    sums = np.sum(f(north), axis=1)
    if odd:
        sums += np.sum(f(-north), axis=1)
    if res % 2:
        sums[0] *= 0.5
    return (1.0 if odd else 2.0) * float(np.sum(w[half:] * sums))


@pytest.mark.parametrize(
    "d, res, ell",
    [(2, 7, 4), (2, 7, 9), (2, 7, 14), (2, 64, 8), (2, 64, 33), (2, 65, 9), (2, 65, 64),
     (2, 65, 131), (2, 768, 128), (3, 20, 6), (3, 20, 7)],
)
def test_reduction_is_the_stored_values_reduction(d, res, ell):
    # one reduction path for every grid gives the same bits as the reductions of
    # stored node values: odd res (the equator its own mirror), ell >= res (a
    # finer ring), even and odd ell, and a node set
    grid = build_grid(d, res)
    cases = [np.sign, lambda v: v > 1.0, lambda v: hermite_eval(3, v)]
    for seed in (0, 41):
        s = simulate(ell, grid, [seed])
        for f in cases:
            assert integrate(s, f) == [stored_values_integral(s, f)], (seed, f)


@pytest.mark.parametrize(
    "d, res, ell",
    [(2, 7, 4), (2, 7, 9), (2, 7, 14), (2, 64, 8), (2, 64, 33), (2, 65, 9), (2, 65, 64),
     (2, 65, 131), (2, 768, 128), (2, 768, 127), (3, 20, 6), (3, 20, 7)],
)
def test_stack_reduction_is_the_per_draw_reduction(d, res, ell):
    # a stack of draws reduced at once gives each draw the bits it has in a stack of one: odd
    # res (the equator its own mirror), ell >= res (a finer ring), even and odd ell, 32 draws
    # on the 768 grid (one ring a block) and a node set (one mat-vec per draw); an empty
    # stack reduces to an empty float array
    grid = build_grid(d, res)
    seeds = replicate_seed(17, np.arange(32 if res == 768 else 5))
    stack, empty = simulate(ell, grid, seeds), simulate(ell, grid, seeds[:0])
    draws = [simulate(ell, grid, [seed]) for seed in seeds]
    cases = [
        defect,
        lambda s: excursion_volume(s, 1.0),
        lambda s: excursion_volume(s, -40.0),  # capped at mu_d
        lambda s: hermite_projection(s, 2),
        lambda s: hermite_projection(s, 3),
    ]
    for i, f in enumerate(cases):
        values = f(stack)
        alone = np.concatenate([f(s) for s in draws])
        assert values.shape == (len(seeds),) and np.array_equal(values, alone), i
        none = f(empty)
        assert none.shape == (0,) and none.dtype == float, i


def test_defect_replicate_builds_no_field():
    # one replicate, and one block of BLOCK_DRAWS replicates, on the default defect grid of
    # ell = 128 stays far below a single 2 res^2 array (9.4 MB): under its Legendre table
    # plus 2 MiB, the block buffers included
    grid = build_grid(2, 768)
    defect(simulate(128, grid, [0]))  # builds the table
    table = grid._cache[("legendre", 128)]
    for seeds in ([1], replicate_seed(1, np.arange(field.BLOCK_DRAWS))):
        tracemalloc.start()
        try:
            defect(simulate(128, grid, seeds))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < table.nbytes + 2**21, (len(seeds), peak)


# ---------------------------------------------------------------- projections
def test_projection_base_cases(sample):
    assert hermite_projection(sample, 0)[0] == pytest.approx(MU2, rel=1e-15)
    assert abs(hermite_projection(sample, 1)[0]) < 1e-10
    with pytest.raises(ValueError):
        hermite_projection(sample, -1)


@pytest.mark.parametrize("ell", [8, 33, 128])
def test_h2_chi_square_identity(ell):
    # the default projection grid is exact at degree 2 ell, so every draw has
    # h_2 = (4 pi / n)(sum g^2 - n), n = 2 ell + 1, with g its N(0,1) coefficients
    # (coef): the synthesis and the quadrature checked per draw, whatever the seed
    res = default_resolution(2, "projection", ell, q=2)
    grid = build_grid(2, res)
    n = 2 * ell + 1
    s = simulate(ell, grid, replicate_seed(3, np.arange(10)))
    sum_g2 = np.sum(s.coef**2, axis=1)
    exact = MU2 / n * (sum_g2 - n)
    assert np.all(np.abs(hermite_projection(s, 2) - exact) <= 1e-12 * MU2 / n * sum_g2), ell


def test_projection_variance_matches_formula(grid):
    reps = 3000
    vals = hermite_projection(simulate(10, grid, replicate_seed(6, np.arange(reps))), 2)
    target = projection_variance(10, 2, 2)
    se = vals.var(ddof=1) * math.sqrt(2.0 / reps) * 2.0  # generous band
    assert abs(vals.var(ddof=1) - target) <= 3.0 * se


# ------------------------------------------------------------------- generic
def test_generic_single_term(sample):
    coeffs = ChaosCoefficients((0.0, 0.0, 2.0, 0.0))
    assert generic_functional(sample, coeffs) == pytest.approx(
        hermite_projection(sample, 2)[0], rel=1e-12
    )


def test_generic_rank_one_vanishes(sample):
    coeffs = ChaosCoefficients((0.0, 1.0, 0.0, 0.0))
    assert abs(generic_functional(sample, coeffs)) < 1e-10


def test_generic_rank_undefined(sample):
    with pytest.raises(ValueError):
        generic_functional(sample, ChaosCoefficients((0.3, 0.0, 0.0, 0.0)))


def test_expansion_tracks_excursion(grid):
    # truncated expansion of the level-1 indicator correlates > 0.99 with
    # the centered excursion volume at degree 32
    coeffs = ChaosCoefficients(indicator_coeffs(1.0, 8))
    mean = MU2 * (1.0 - gauss_pdf_cdf(1.0)[1])
    reps = 400
    direct = np.empty(reps)
    expanded = np.empty(reps)
    for r, seed in enumerate(replicate_seed(9, np.arange(reps))):
        s = simulate(32, grid, [seed])
        direct[r] = excursion_volume(s, 1.0)[0] - mean
        expanded[r] = generic_functional(s, coeffs)
    corr = np.corrcoef(direct, expanded)[0, 1]
    assert corr > 0.99


def test_expansion_l2_error_within_tail_bound():
    # mean-square truncation error is controlled by the computable bound
    # sum_{q > Q} J_q^2 Var[h_q] / q!^2 (evaluated a few orders out); the
    # grid must be fine enough that indicator-quadrature noise (variance
    # ~ (ell/resolution)^3) sits well below that bound
    fine = build_grid(2, 384)
    coeffs = ChaosCoefficients(indicator_coeffs(1.0, 8))
    ell, reps = 32, 400
    pdf1, cdf1 = gauss_pdf_cdf(1.0)
    tail = sum(
        (hermite_eval(q - 1, 1.0) * pdf1) ** 2
        * projection_variance(ell, q, 2)
        / math.factorial(q) ** 2
        for q in range(9, 17)
    )
    errs = np.empty(reps)
    for r, seed in enumerate(replicate_seed(9, np.arange(reps))):
        s = simulate(ell, fine, [seed])
        errs[r] = excursion_volume(s, 1.0)[0] - MU2 * (1.0 - cdf1) - generic_functional(s, coeffs)
    # 2x headroom: the bound is truncated at order 16 and the MC has noise
    assert np.mean(errs**2) <= 2.0 * tail
