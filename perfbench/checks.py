"""Output checks: every column of every CSV row a workload produces is
compared with an oracle from ``oracles`` or with an exact property.

A check is a (name, passed, detail) triple.  Monte Carlo checks are
two-sided and allow ``Z`` standard errors (false alarms about 1e-8 per
check for a Gaussian estimator); stated allowances for grid bias are
added on top and listed in README.md.
"""
from __future__ import annotations

import csv
import functools
import io
import math

import oracles as orc

Z = 6.0
# Largest excess kurtosis assumed when no exact law gives the standard
# error of a sample variance: sqrt((2 + KAPPA) / N) relative.
KAPPA_MAX = {"projection": 3.0, "excursion": 2.0, "defect": 1.0}
# Grid-bias allowances, relative to the exact value (README, "Oracles").
DEFECT_GRID_BIAS = 0.12  # 6 ell grid: upward only
EXCURSION_BIAS = 0.05  # 2 ell grid plus truncation at order 8: both ways
SD_GRID_BIAS = 0.03  # d >= 3 Kronecker grid, ell <= 32: both ways
CUM4_UPPER_Z = 30.0  # the sample fourth cumulant has a long right tail
MOMENT_REL = 1e-10
QUADRATURE_REL = 1e-9
CONSTANT_REL = 0.01  # ell^d I(ell) against the constant at ell = 2048
CONSTANT_ELL = 2048
CLOSED_FORM_REL = 1e-6  # the Bessel-integral tolerance of the program
CONSISTENCY_REL = 1e-9


def parse_csv(text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text)))


class Report:
    """Collects the checks of one operation."""

    def __init__(self):
        self.checks: list[tuple[str, bool, str]] = []

    @property
    def passed(self) -> bool:
        return bool(self.checks) and all(ok for _, ok, _ in self.checks)

    def add(self, name: str, ok: bool, detail: str) -> None:
        self.checks.append((name, bool(ok), detail))

    def equal(self, name: str, got, want) -> None:
        self.add(name, got == want, f"{got} == {want}")

    def close(self, name: str, got: float, want: float, rel: float) -> None:
        err = abs(got - want) / abs(want) if want else abs(got)
        self.add(name, math.isfinite(got) and err <= rel, f"{got:.12g} vs {want:.12g}, rel {err:.1e} <= {rel:.0e}")

    def within(self, name: str, got: float, lo: float, hi: float) -> None:
        self.add(name, math.isfinite(got) and lo <= got <= hi, f"{got:.6g} in [{lo:.6g}, {hi:.6g}]")


def expected_resolution(d: int, kind: str, ell: int, q: int = 2) -> int:
    """The documented default grid rule (README, "Command line")."""
    if d != 2:
        return 77
    factor = {"defect": 6 * ell, "excursion": 2 * ell}.get(kind, (q * ell) // 2 + 8)
    return max(64, factor)


@functools.lru_cache(maxsize=None)
def scaled_at_reference(q: int, d: int) -> float:
    """ell^d I(ell, q, d) at the reference degree, from the oracle quadrature."""
    return orc.scaled_moment(CONSTANT_ELL, q, d, orc.moment_quadrature(CONSTANT_ELL, q, d))


def check_constant(rep: Report, name: str, q: int, d: int, value: float) -> None:
    closed = orc.closed_form_constant(q, d)
    if closed is not None:
        rep.close(name, value, closed, CLOSED_FORM_REL)
    else:
        rep.close(name, value, scaled_at_reference(q, d), CONSTANT_REL)


def _echo(rep: Report, row: dict, cfg: dict, keys) -> None:
    for key in keys:
        want = cfg[key]
        got = type(want)(float(row[key])) if isinstance(want, (int, float)) else row[key]
        rep.equal(key, got, want)


def check_moments(rep: Report, row: dict, cfg: dict) -> None:
    ell, q, d = int(row["ell"]), cfg["q"], cfg["d"]
    _echo(rep, row, cfg, ("d", "q"))
    value = float(row["value"])
    exact = orc.exact_moment(ell, q, d)
    if exact is not None:
        rep.close(f"value@{ell}", value, exact, MOMENT_REL)
    else:
        rep.close(f"value@{ell}", value, orc.moment_quadrature(ell, q, d), QUADRATURE_REL)
    scaled, target = float(row["scaled"]), float(row["target"])
    rep.close(f"scaled@{ell}", scaled, orc.scaled_moment(ell, q, d, value), CONSISTENCY_REL)
    check_constant(rep, f"target@{ell}", q, d, target)
    rep.close(f"rel_err@{ell}", float(row["rel_err"]), abs(scaled - target) / abs(target), CONSISTENCY_REL)


def check_constants(rep: Report, row: dict, cfg: dict) -> None:
    q, d = cfg["q"], cfg["d"]
    _echo(rep, row, cfg, ("q", "d"))
    check_constant(rep, "value", q, d, float(row["value"]))
    closed = q == 2 or (q, d) == (4, 2)
    rep.equal("method", row["method"], "closed-form" if closed else "bessel-integral")


def _variance_window(rep: Report, name: str, got: float, exact: float, se: float, lo_bias: float, hi_bias: float) -> None:
    rep.within(name, got, exact * (1.0 - lo_bias) - Z * se, exact * (1.0 + hi_bias) + Z * se)


def check_clt(rep: Report, row: dict, cfg: dict) -> None:
    ell, q, d, n_rep = int(row["ell"]), cfg["q"], cfg["d"], cfg["replicates"]
    _echo(rep, row, cfg, ("d", "q", "replicates", "seed"))
    rep.equal("resolution", int(row["resolution"]), expected_resolution(d, "projection", ell, q))
    value, stderr = float(row["value"]), float(row["stderr"])
    ks, w1, cum4 = float(row["ks"]), float(row["w1"]), float(row["cum4"])
    root_n = math.sqrt(n_rep)
    bias = 0.0 if d == 2 else SD_GRID_BIAS
    if q == 2:
        law = orc.Chi2Law(ell, d)
        se = law.variance_se(n_rep)
        _variance_window(rep, "variance", value, law.variance, se, bias, bias)
        rep.within("stderr", stderr, 0.6 * se, 1.6 * se)
        ks_law = law.ks_to_normal()
        rep.within("ks", ks, ks_law - 3.0 / root_n, ks_law + 3.0 / root_n)
        w1_law = law.w1_to_normal()
        rep.within("w1", w1, w1_law - 4.0 / root_n, w1_law + 4.0 / root_n)
        se4 = math.sqrt(24.0 / n_rep) * law.variance**2
        rep.within("cum4", cum4, law.cum4 - Z * se4, law.cum4 + CUM4_UPPER_Z * se4)
        return
    # q = 3 on S^2: Var h_3 = 2 3! mu_2 mu_1 (ell ell ell; 0 0 0)^2
    exact = orc.projection_variance(ell, q, d, orc.moment_q3_s2(ell))
    rel_se = math.sqrt((2.0 + KAPPA_MAX["projection"]) / n_rep)
    _variance_window(rep, "variance", value, exact, exact * rel_se, 0.0, 0.0)
    rep.within("stderr", stderr, 0.6 * exact * math.sqrt(2.0 / n_rep), 1.6 * exact * rel_se)
    # no closed-form law: asymptotically Gaussian, so range checks only
    rep.within("ks", ks, 0.0, 3.0 / root_n + 0.05)
    rep.within("w1", w1, 0.0, 4.0 / root_n + 0.05)
    # the sample fourth cumulant of a cubic chaos has a long right tail
    se4 = math.sqrt(24.0 / n_rep) * value**2
    rep.within("cum4", cum4, -2.0 * value**2, KAPPA_MAX["projection"] * value**2 + CUM4_UPPER_Z * se4)


def check_excursion(rep: Report, row: dict, cfg: dict) -> None:
    ell, d, z, n_rep = int(row["ell"]), cfg["d"], cfg["z"], cfg["replicates"]
    _echo(rep, row, cfg, ("d", "z", "replicates", "seed"))
    rep.equal("resolution", int(row["resolution"]), expected_resolution(d, "excursion", ell))
    target = orc.excursion_mean(z, d)
    rep.close("target_mean", float(row["target_mean"]), target, 1e-12)
    expansion = orc.expansion_variance(z, 8, ell, d)
    rep.close("expansion_variance", float(row["expansion_variance"]), expansion, 1e-9)
    variance = float(row["variance"])
    rel_se = math.sqrt((2.0 + KAPPA_MAX["excursion"]) / n_rep)
    _variance_window(rep, "variance", variance, expansion, expansion * rel_se, EXCURSION_BIAS, EXCURSION_BIAS)
    mean_se = math.sqrt(expansion * (1.0 + EXCURSION_BIAS) / n_rep)
    rep.within("mean", float(row["value"]), target - Z * mean_se, target + Z * mean_se)
    rep.close("stderr", float(row["stderr"]), math.sqrt(variance / n_rep), CONSISTENCY_REL)
    rep.within("ks", float(row["ks"]), 0.0, 3.0 / math.sqrt(n_rep) + 0.05)


def check_defect(rep: Report, row: dict, cfg: dict) -> None:
    ell, d, n_rep = int(row["ell"]), cfg["d"], cfg["replicates"]
    _echo(rep, row, cfg, ("d", "replicates", "seed"))
    rep.equal("resolution", int(row["resolution"]), expected_resolution(d, "defect", ell))
    exact = ell * ell * orc.defect_variance(ell)
    scaled = float(row["value"])
    rel_se = math.sqrt((2.0 + KAPPA_MAX["defect"]) / n_rep)
    _variance_window(rep, "scaled_variance", scaled, exact, exact * rel_se, 0.0, DEFECT_GRID_BIAS)
    rep.within("stderr", float(row["stderr"]), 0.6 * exact * math.sqrt(2.0 / n_rep), 1.6 * exact * (1.0 + DEFECT_GRID_BIAS) * rel_se)
    mean_se = math.sqrt(exact * (1.0 + DEFECT_GRID_BIAS) / n_rep) / ell
    rep.within("mean", float(row["mean"]), -Z * mean_se, Z * mean_se)
    rep.close("mean_stderr", float(row["mean_stderr"]), math.sqrt(scaled / (ell * ell) / n_rep), CONSISTENCY_REL)
    rep.within("ks", float(row["ks"]), 0.0, 3.0 / math.sqrt(n_rep) + 0.02)


CHECKERS = {
    "moments": check_moments,
    "constants": check_constants,
    "clt": check_clt,
    "excursion": check_excursion,
    "defect": check_defect,
}


def check_output(cfg: dict, text: str) -> Report:
    """Check the CSV text of one ``cli.run`` call made with ``cfg``."""
    rep = Report()
    rows = parse_csv(text)
    rep.equal("rows", len(rows), len(cfg["ell_list"]) if cfg["command"] != "constants" else 1)
    for row in rows:
        CHECKERS[cfg["command"]](rep, row, cfg)
    return rep
