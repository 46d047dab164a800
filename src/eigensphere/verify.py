"""Acceptance battery: every headline claim the package makes, checked at
a pinned tolerance with a pinned seed, one PASS/FAIL line each.

The same functions back ``eigensphere --verify`` and the test suite, so
there is exactly one definition of each criterion.  Stochastic criteria
fix MASTER_SEED for reproducibility; analytic criteria need no seed.
"""
from __future__ import annotations

import math
import time

import numpy as np

from .moments import asymptotic_constant, defect_variance, moment_integral
from .specfun import gauss_pdf_cdf, gegenbauer_eval_many, sphere_measure
from .stats import ExperimentSpec, run_ensemble

MASTER_SEED = 221

_DEFECT_LOWER = 32.0 / math.sqrt(27.0)
_DEFECT_GRID_BIAS = 0.12  # allowance for the 6 ell grid's upward quantization bias, relative

_ENSEMBLES: dict = {}


def _ensemble(d, ell, kind, res, reps, seed, z=None, q=None):
    key = (ExperimentSpec(d, ell, kind, res, z=z, q=q), reps, seed)
    if key not in _ENSEMBLES:
        _ENSEMBLES[key] = run_ensemble(*key)
    return _ENSEMBLES[key]


def check_gegenbauer_closed_forms():
    """Covariance polynomial vs the Legendre (d=2) and Chebyshev-ratio
    (d=3) closed forms, 1e-10 at 100 random arguments for every degree
    up to 100."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(424242)
    worst = 0.0
    for ell in range(101):
        t = rng.uniform(-1.0, 1.0, 100)
        coeff = np.zeros(ell + 1)
        coeff[ell] = 1.0
        ref2 = np.polynomial.legendre.legval(t, coeff)
        worst = max(worst, float(np.max(np.abs(gegenbauer_eval_many(ell, 2, t) - ref2))))
        theta = np.arccos(t)
        ref3 = np.sin((ell + 1) * theta) / ((ell + 1) * np.sin(theta))
        worst = max(worst, float(np.max(np.abs(gegenbauer_eval_many(ell, 3, t) - ref3))))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-10 and elapsed < 1.0
    return ok, f"max |dev| = {worst:.2e} (tol 1e-10), {elapsed:.2f}s (< 1s)"


def check_orthogonality():
    """Moment integral at q=2, d=2 equals 1/(2*ell+1) to 1e-9, even
    degrees up to 200."""
    t0 = time.perf_counter()
    worst = 0.0
    for ell in range(2, 201, 2):
        worst = max(worst, abs(moment_integral(ell, 2, 2) - 1.0 / (2 * ell + 1)))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-9 and elapsed < 10.0
    return ok, f"max |I - 1/(2l+1)| = {worst:.2e} (tol 1e-9), {elapsed:.1f}s (< 10s)"


_RATE_CASES = (
    (3, 2, -2.0, 0.10),
    (5, 2, -2.0, 0.10),
    (3, 3, -3.0, 0.10),
    (4, 3, -3.0, 0.10),
    (2, 2, -1.0, 0.05),
    (2, 3, -2.0, 0.05),
    (2, 4, -3.0, 0.05),
)


def check_decay_rates():
    """Log-log slopes of the moment integral over degrees 64..512 match
    the predicted exponents (-d for q >= 3 cases, -(d-1) for q = 2)."""
    t0 = time.perf_counter()
    details = []
    ok = True
    ells = (64, 128, 256, 512)
    for q, d, target, tol in _RATE_CASES:
        slope = np.polyfit(np.log(ells), np.log([moment_integral(ell, q, d) for ell in ells]), 1)[0]
        good = abs(slope - target) <= tol
        ok &= good
        details.append(f"(q={q},d={d}): {slope:+.3f} vs {target:+.0f}+-{tol}")
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 120.0
    return ok, "; ".join(details) + f", {elapsed:.1f}s (< 2min)"


def check_log_case_constant():
    """Fitted constant of the (q, d) = (4, 2) log law against 3/(2 pi^2)
    within 15%.

    The law ell^2 I(ell) = C log(ell) + B + o(1) carries a finite-size
    term B ~ 0.40 ~ 2.6 C, so the bare ratio ell^2 I / log(ell) is still
    ~38% above C at degree 1024 and would need degrees near 5e7 to reach
    15%.  The check therefore fits ell^2 I = C log(ell) + B + D/ell by
    least squares over degrees 128..1024 and compares the fitted C; the
    bare ratio at 1024 is reported alongside so the finite-size effect
    stays visible.
    """
    t0 = time.perf_counter()
    target = asymptotic_constant(4, 2)  # the closed form 3/(2 pi^2)
    ells = np.array([128.0, 256.0, 512.0, 1024.0])
    scaled = np.array([moment_integral(int(ell), 4, 2) * ell**2 for ell in ells])
    design = np.column_stack([np.log(ells), np.ones_like(ells), 1.0 / ells])
    (c, b, _), *_ = np.linalg.lstsq(design, scaled, rcond=None)
    rel = abs(float(c) - target) / target
    bare = float(scaled[-1]) / math.log(ells[-1])
    elapsed = time.perf_counter() - t0
    ok = rel <= 0.15 and elapsed < 60.0
    return ok, (
        f"fitted C = {c:.6f}, target = {target:.6f}, rel dev = {rel:.2%} (tol 15%); "
        f"fitted B = {b:.4f}; bare l^2 I / log l at 1024 = {bare:.6f} "
        f"({abs(bare - target) / target:.1%} off), {elapsed:.1f}s (< 60s)"
    )


def check_two_route_constants():
    """Bessel-integral constants vs ell^d-scaled moment integrals at
    degree 512, within 5%."""
    t0 = time.perf_counter()
    details = []
    ok = True
    for q, d in ((3, 2), (5, 2), (3, 3), (4, 3)):
        c = asymptotic_constant(q, d)
        if abs(c) < 1e-3:
            details.append(f"(q={q},d={d}): |c| < 1e-3, skipped")
            continue
        rel = abs(512**d * moment_integral(512, q, d) / c - 1.0)
        ok &= rel <= 0.05
        details.append(f"(q={q},d={d}): {rel:.3%}")
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 120.0
    return ok, "; ".join(details) + f", {elapsed:.1f}s (< 2min)"


def check_projection_variance_mc():
    """Monte Carlo variance of the order-2 projection at degree 10 vs the
    analytic 2 q! mu_2 mu_1 I(10,2,2) = 32 pi^2/21, within 3 MC standard
    errors (5000 replicates, resolution 64)."""
    t0 = time.perf_counter()
    target = 32.0 * math.pi**2 / 21.0
    s = _ensemble(2, 10, "projection", 64, 5000, MASTER_SEED, q=2)
    se = s.variance_stderr
    dev = abs(s.variance - target)
    elapsed = time.perf_counter() - t0
    ok = dev <= 3.0 * se and elapsed < 120.0
    return ok, f"var = {s.variance:.4f}, target = {target:.4f}, |dev|/se = {dev/se:.2f} (< 3), {elapsed:.1f}s"


def check_excursion_mean():
    """Ensemble mean of the level-1 excursion volume at degree 8 vs
    mu_2 (1 - Phi(1)), within 3 standard errors (2000 replicates)."""
    t0 = time.perf_counter()
    target = sphere_measure(2) * (1.0 - gauss_pdf_cdf(1.0)[1])
    s = _ensemble(2, 8, "excursion", 64, 2000, MASTER_SEED, z=1.0)
    dev = abs(s.mean - target)
    elapsed = time.perf_counter() - t0
    ok = dev <= 3.0 * s.mean_stderr and elapsed < 60.0
    return ok, f"mean = {s.mean:.5f}, target = {target:.5f}, |dev|/se = {dev/s.mean_stderr:.2f} (< 3), {elapsed:.1f}s"


def check_rank2_equivalence():
    """Var[excursion at z=1] over Var[(J_2/2) h_2] at degree 128 inside
    [0.85, 1.15] (2000 replicates): rank-2 functionals inherit the
    second-chaos variance at high degree."""
    t0 = time.perf_counter()
    ell, res = 128, 256
    exc = _ensemble(2, ell, "excursion", res, 2000, MASTER_SEED, z=1.0)
    h2 = _ensemble(2, ell, "projection", res, 2000, MASTER_SEED, q=2)
    j2 = gauss_pdf_cdf(1.0)[0]  # J_2 of the level-1 indicator = 1 * phi(1)
    ratio = exc.variance / ((j2 / 2.0) ** 2 * h2.variance)
    elapsed = time.perf_counter() - t0
    ok = 0.85 <= ratio <= 1.15 and elapsed < 300.0
    return ok, f"ratio = {ratio:.4f} (in [0.85, 1.15]), {elapsed:.1f}s (< 5min)"


_CLT_KINDS = (("excursion", 1.0, None), ("projection", None, 2), ("projection", None, 3))


def check_clt_battery():
    """Standardized excursion volume (z=1) and order-2/3 projections:
    KS distance to N(0,1) at degree 128 below 0.05 and decreasing along
    degrees 32 -> 64 -> 128 (2000 replicates each)."""
    t0 = time.perf_counter()
    details = []
    ok = True
    for kind, z, q in _CLT_KINDS:
        ks = []
        for ell in (32, 64, 128):
            s = _ensemble(2, ell, kind, 2 * ell, 2000, MASTER_SEED, z=z, q=q)
            ks.append(s.ks_to_normal)
        label = f"{kind}" + (f"(q={q})" if q else f"(z={z})")
        good = ks[0] > ks[1] > ks[2] and ks[2] <= 0.05
        ok &= good
        details.append(f"{label}: " + " > ".join(f"{v:.4f}" for v in ks) + ("" if good else " [FAIL]"))
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 600.0
    return ok, "; ".join(details) + f", {elapsed:.0f}s"


def check_defect_battery():
    """Defect ensembles at degrees 32/64/128 (2000 replicates): mean
    within 3 standard errors of 0, ell^2 Var above 32/sqrt(27) and within
    [exact - 3 se, (1 + grid bias) exact + 3 se] of the exact variance,
    and standardized KS at degree 128 below 0.07."""
    t0 = time.perf_counter()
    details = []
    ok = True
    for ell in (32, 64, 128):
        s = _ensemble(2, ell, "defect", 6 * ell, 2000, MASTER_SEED)
        scaled = ell * ell * s.variance
        exact = ell * ell * defect_variance(ell, 2)
        se = ell * ell * s.variance_stderr
        lo, hi = exact - 3.0 * se, (1.0 + _DEFECT_GRID_BIAS) * exact + 3.0 * se
        ok &= abs(s.mean) <= 3.0 * s.mean_stderr and scaled > _DEFECT_LOWER and lo <= scaled <= hi
        details.append(f"l={ell}: l^2 var = {scaled:.2f} (> {_DEFECT_LOWER:.3f}, in [{lo:.2f}, {hi:.2f}]; "
                       f"exact {exact:.2f}, z = {(scaled - exact) / se:+.2f}), "
                       f"|mean|/se = {abs(s.mean) / s.mean_stderr:.2f}")
    ok &= s.ks_to_normal <= 0.07  # s is the degree-128 ensemble
    details.append(f"ks(128) = {s.ks_to_normal:.4f} (<= 0.07)")
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 600.0
    return ok, "; ".join(details) + f", {elapsed:.0f}s (< 10min)"


def check_cli_determinism():
    """The runner produces byte-identical output files for identical
    configurations."""
    import tempfile
    from pathlib import Path

    from .cli import RunConfig, run

    t0 = time.perf_counter()
    with tempfile.TemporaryDirectory() as tmp:
        pairs = []
        for tag, overrides in (
            ("clt.csv", dict(command="clt", ell_list=[8, 16], fmt="csv")),
            ("moments.json", dict(command="moments", ell_list=[4, 8], fmt="json")),
        ):
            blobs = []
            for attempt in (0, 1):
                path = Path(tmp) / f"{attempt}-{tag}"
                run(RunConfig(d=2, q=2, replicates=200, grid_resolution=64,
                              seed=7, output=str(path), **overrides))
                blobs.append(path.read_bytes())
            pairs.append(blobs[0] == blobs[1])
    elapsed = time.perf_counter() - t0
    ok = all(pairs)
    return ok, f"clt csv and moments json reruns byte-identical: {ok}, {elapsed:.1f}s"


CRITERIA = (
    ("gegenbauer-closed-forms", check_gegenbauer_closed_forms),
    ("orthogonality-1-over-2l+1", check_orthogonality),
    ("moment-decay-rates", check_decay_rates),
    ("log-case-constant-at-1024", check_log_case_constant),
    ("two-route-constants", check_two_route_constants),
    ("projection-variance-mc", check_projection_variance_mc),
    ("excursion-mean", check_excursion_mean),
    ("rank2-variance-equivalence", check_rank2_equivalence),
    ("clt-battery", check_clt_battery),
    ("defect-battery", check_defect_battery),
    ("cli-determinism", check_cli_determinism),
)


def run_battery(verbose: bool = False):
    """Run every criterion; returns [(name, passed, detail)]."""
    results = []
    for name, fn in CRITERIA:
        ok, detail = fn()
        results.append((name, ok, detail))
        if verbose:
            print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    return results
