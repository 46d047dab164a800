#!/usr/bin/env python3
"""Defect variance study on S^2: ell^2 * Var[D_ell] against the analytic
finite-degree value from the arcsine (orthant) identity, plus normality
diagnostics.

The exact comparison curve is Var[D_ell] = 16 pi * int_{-1}^{1}
arcsin(G_ell(t)) dt, which the Monte Carlo estimate should match once the
grid is fine enough (the indicator's quantization noise scales like
(ell/resolution)^3).
"""
import argparse
import csv
import math
import sys

import numpy as np

from eigensphere.specfun import gegenbauer_eval_many
from eigensphere.stats import ExperimentSpec, run_ensemble


def exact_defect_variance(ell: int) -> float:
    """Orthant identity: E[sign(X) sign(Y)] = (2/pi) arcsin(rho)."""
    xg, wg = np.polynomial.legendre.leggauss(24)
    edges = np.cos(np.linspace(math.pi, 0.0, 4 * ell + 1))
    total = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        t = 0.5 * (hi - lo) * xg + 0.5 * (hi + lo)
        w = 0.5 * (hi - lo) * wg
        total += float(np.sum(w * np.arcsin(np.clip(gegenbauer_eval_many(ell, 2, t), -1.0, 1.0))))
    return 16.0 * math.pi * total


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--ell", default="32,64,128")
    ap.add_argument("--reps", type=int, default=2000)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--res-factor", type=int, default=6, help="grid resolution = factor * ell")
    ap.add_argument("--out", default="defect_study.csv")
    args = ap.parse_args()

    rows = []
    for ell in (int(tok) for tok in args.ell.split(",")):
        res = args.res_factor * ell
        s = run_ensemble(ExperimentSpec(2, ell, "defect", res), args.reps, args.seed)
        scaled = ell * ell * s.variance
        exact = ell * ell * exact_defect_variance(ell)
        rows.append([ell, res, args.reps, args.seed, scaled, exact, s.ks_to_normal, s.cum4])
        print(f"l={ell:4d}: l^2 var = {scaled:8.4f} (exact {exact:8.4f}, "
              f"lower bound {32/math.sqrt(27):.4f}), ks={s.ks_to_normal:.4f}")

    with open(args.out, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["ell", "resolution", "replicates", "seed",
                    "scaled_variance", "scaled_variance_exact", "ks", "cum4"])
        w.writerows(rows)
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
