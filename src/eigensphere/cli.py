"""Experiment runner: parse a run configuration, execute sweeps, write
machine-readable results.

CSV schemas (JSON mirrors each row as a flat object; column order fixed,
command-key columns first, then the value, then its uncertainty, then
diagnostics):

  constants:  q,d,value,method
  moments:    d,ell,q,value,scaled,target,rel_err
  simulate:   d,ell,resolution,seed,value,node_var,n_nodes
  clt:        d,ell,q,resolution,replicates,seed,value,stderr,ks,w1,cum4
  excursion:  d,ell,z,resolution,replicates,seed,value,stderr,variance,
              expansion_variance,target_mean,ks
  defect:     d,ell,resolution,replicates,seed,value,stderr,mean,mean_stderr,exact,ks

``value`` is the command's headline quantity: the asymptotic constant, the
moment integral, the node mean of one simulated field, the ensemble
variance (clt), the ensemble mean (excursion), or ell^2 times the defect
variance, whose exact value (``moments.defect_variance``) times ell^2 is
``exact``.  Exit codes: 0 success, 2 configuration error, 3 numeric error,
4 I/O error.
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from dataclasses import dataclass, field

import numpy as np

__all__ = ["RunConfig", "run", "main"]


@dataclass
class RunConfig:
    command: str
    d: int = 2
    q: int = 2
    truncation: int = 8
    ell_list: list[int] = field(default_factory=lambda: [8])
    z: float = 1.0
    replicates: int = 2000
    grid_resolution: int = 0  # 0 = per-degree default rule
    seed: int = 1
    output: str | None = None
    fmt: str = "csv"

    def validate(self) -> None:
        if self.command not in _COMMANDS:
            raise ConfigError(f"unknown command {self.command!r}")
        if not self.ell_list:
            raise ConfigError("ell list must be non-empty")
        if any(b <= a for a, b in zip(self.ell_list, self.ell_list[1:])):
            raise ConfigError("ell list must be strictly increasing")
        if self.ell_list[0] < 0:
            raise ConfigError(f"degrees must be >= 0, got {self.ell_list[0]}")
        if self.d < 2:
            raise ConfigError(f"need d >= 2, got {self.d}")
        if self.replicates < 2:
            raise ConfigError(f"need at least 2 replicates, got {self.replicates}")
        if not 0 <= self.seed < 2**128:  # the Philox key bound
            raise ConfigError(f"seed must be in [0, 2**128), got {self.seed}")
        if self.grid_resolution < 0 or 0 < self.grid_resolution < 4:
            raise ConfigError(f"grid resolution must be 0 (default rule) or >= 4, got {self.grid_resolution}")
        if self.q < 2:
            raise ConfigError(f"need q >= 2, got {self.q}")
        if not math.isfinite(self.z):
            raise ConfigError(f"level z must be finite, got {self.z}")
        if self.truncation < 2:
            raise ConfigError(f"truncation must be >= 2, got {self.truncation}")
        if self.fmt not in ("csv", "json"):
            raise ConfigError(f"format must be csv or json, got {self.fmt!r}")


class ConfigError(ValueError):
    pass


def _resolution(cfg: RunConfig, kind: str, ell: int) -> int:
    from .stats import default_resolution

    if cfg.grid_resolution > 0:
        return cfg.grid_resolution
    return default_resolution(cfg.d, kind, ell, q=cfg.q)


def _rows_constants(cfg: RunConfig) -> tuple[list[str], list[list]]:
    from .moments import asymptotic_constant, closed_form_law

    method = "bessel-integral" if closed_form_law(cfg.q, cfg.d) is None else "closed-form"
    value = asymptotic_constant(cfg.q, cfg.d)
    return ["q", "d", "value", "method"], [[cfg.q, cfg.d, value, method]]


def _rows_moments(cfg: RunConfig) -> tuple[list[str], list[list]]:
    from .moments import moment_integral, scaling_law

    law = scaling_law(cfg.q, cfg.d)  # once: the Bessel integral of the target
    target = law.constant if law.constant is not None else math.nan
    rows = []
    for ell in cfg.ell_list:
        integral = moment_integral(ell, cfg.q, cfg.d)
        scale = float(ell) ** (-float(law.exponent)) if ell > 0 else 1.0
        if law.log_power == 1 and ell > 1:
            scale /= math.log(ell)
        scaled = integral * scale
        rel_err = abs(scaled - target) / abs(target) if target and math.isfinite(target) else math.nan
        rows.append([cfg.d, ell, cfg.q, integral, scaled, target, rel_err])
    return ["d", "ell", "q", "value", "scaled", "target", "rel_err"], rows


def _rows_simulate(cfg: RunConfig) -> tuple[list[str], list[list]]:
    from .field import dump_field, simulate
    from .stats import shared_grid

    rows = []
    for ell in cfg.ell_list:
        res = _resolution(cfg, "projection", ell)
        grid = shared_grid(cfg.d, res)
        sample = simulate(ell, grid, [cfg.seed])
        if cfg.output:
            dump_field(sample, f"{cfg.output}.l{ell}.field")
        rows.append(
            [
                cfg.d,
                ell,
                res,
                cfg.seed,
                float(np.mean(sample.values[0])),
                float(np.var(sample.values[0])),
                grid.size,
            ]
        )
    return ["d", "ell", "resolution", "seed", "value", "node_var", "n_nodes"], rows


def _expansion_variance(z: float, truncation: int, ell: int, d: int) -> float:
    """Analytic variance of the truncation-order expansion of the level-z
    indicator: sum_{q>=2} J_q^2 Var[h_q] / q!^2 (even degrees only)."""
    from .functionals import indicator_coeffs
    from .moments import projection_variance

    if ell % 2 != 0 or ell < 2:
        return math.nan
    coeffs = indicator_coeffs(z, truncation)
    return sum(
        coeffs[q] ** 2 * projection_variance(ell, q, d) / math.factorial(q) ** 2
        for q in range(2, truncation + 1)
    )


def _excursion_stats(cfg: RunConfig, ell: int, s) -> list:
    from .specfun import gauss_pdf_cdf, sphere_measure

    target = sphere_measure(cfg.d) * (1.0 - gauss_pdf_cdf(cfg.z)[1])
    return [s.mean, s.mean_stderr, s.variance,
            _expansion_variance(cfg.z, cfg.truncation, ell, cfg.d), target, s.ks_to_normal]


def _clt_stats(cfg: RunConfig, ell: int, s) -> list:
    return [s.variance, s.variance_stderr, s.ks_to_normal, s.w1_to_normal, s.cum4]


def _defect_stats(cfg: RunConfig, ell: int, s) -> list:
    from .moments import defect_variance

    return [ell * ell * s.variance, ell * ell * s.variance_stderr,
            s.mean, s.mean_stderr, ell * ell * defect_variance(ell, cfg.d), s.ks_to_normal]


# command -> (functional kind, its RunConfig parameter, columns, row values)
_ENSEMBLES = {
    "clt": ("projection", "q", ["value", "stderr", "ks", "w1", "cum4"], _clt_stats),
    "excursion": ("excursion", "z",
                  ["value", "stderr", "variance", "expansion_variance", "target_mean", "ks"],
                  _excursion_stats),
    "defect": ("defect", None, ["value", "stderr", "mean", "mean_stderr", "exact", "ks"], _defect_stats),
}


def _rows_ensemble(cfg: RunConfig) -> tuple[list[str], list[list]]:
    from .stats import ExperimentSpec, run_ensemble

    kind, param, columns, row_stats = _ENSEMBLES[cfg.command]
    params = {param: getattr(cfg, param)} if param else {}
    rows = []
    for ell in cfg.ell_list:
        res = _resolution(cfg, kind, ell)
        s = run_ensemble(ExperimentSpec(cfg.d, ell, kind, res, **params), cfg.replicates, cfg.seed)
        rows.append([cfg.d, ell, *params.values(), res, cfg.replicates, cfg.seed,
                     *row_stats(cfg, ell, s)])
    keys = ["d", "ell", *params, "resolution", "replicates", "seed"]
    return keys + columns, rows


# command -> (row builder, help text)
_COMMANDS = {
    "constants": (_rows_constants, "evaluate one asymptotic constant"),
    "moments": (_rows_moments, "moment integrals over a degree sweep"),
    "simulate": (_rows_simulate, "draw one field realization per degree"),
    "clt": (_rows_ensemble, "chaos-projection ensembles with normality diagnostics"),
    "excursion": (_rows_ensemble, "excursion-volume ensembles at a level z"),
    "defect": (_rows_ensemble, "defect ensembles with scaled variance"),
}


def _write(cfg: RunConfig, header: list[str], rows: list[list]) -> str:
    if cfg.fmt == "json":
        # JSON has no NaN or infinity (odd-degree expansion_variance, clt diagnostics): null
        payload = [
            {k: None if isinstance(v, float) and not math.isfinite(v) else v for k, v in zip(header, row)}
            for row in rows
        ]
        text = json.dumps(payload, indent=2, allow_nan=False) + "\n"
    else:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
        text = buf.getvalue()
    if cfg.output:
        with open(cfg.output, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return text


def run(cfg: RunConfig) -> str:
    """Execute one configuration; returns the rendered output text."""
    cfg.validate()
    header, rows = _COMMANDS[cfg.command][0](cfg)
    return _write(cfg, header, rows)


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="eigensphere",
        description="Random spherical eigenfunction experiments: moment "
        "integrals, asymptotic constants, simulation, and CLT diagnostics.",
    )
    p.add_argument("--verify", action="store_true", help="run the acceptance battery and exit")
    sub = p.add_subparsers(dest="command")
    for name, (_, help_text) in _COMMANDS.items():
        # an option not given is left out, so that RunConfig supplies its default
        q = sub.add_parser(name, help=help_text, argument_default=argparse.SUPPRESS)
        q.add_argument("--d", type=int)
        q.add_argument("--q", type=int)
        q.add_argument("--Q", dest="truncation", type=int)
        q.add_argument("--ell", type=str, help="comma-separated increasing degrees")
        q.add_argument("--z", type=float)
        q.add_argument("--reps", dest="replicates", type=int)
        q.add_argument("--grid-resolution", type=int, help="0 = per-degree default")
        q.add_argument("--seed", type=int)
        q.add_argument("--out", dest="output", type=str)
        q.add_argument("--format", dest="fmt", choices=("csv", "json"))
    return p


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.verify:
        from .verify import run_battery

        results = run_battery(verbose=True)
        return 0 if all(ok for _, ok, _ in results) else 1
    if args.command is None:
        _build_parser().print_help()
        return 2
    try:
        # every other parser destination is a RunConfig field of the same name
        opts = {k: v for k, v in vars(args).items() if k not in ("verify", "ell")}
        if "ell" in args:
            try:
                opts["ell_list"] = [int(tok) for tok in args.ell.split(",") if tok]
            except ValueError:
                raise ConfigError(f"--ell must be comma-separated integers, got {args.ell!r}") from None
        run(RunConfig(**opts))
    except (ConfigError, ValueError) as exc:
        # ValueError outside RunConfig.validate means a numeric-domain error
        code = 2 if isinstance(exc, ConfigError) else 3
        print(f"error: {exc}", file=sys.stderr)
        return code
    except (ArithmeticError, RuntimeError) as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
