"""Span tracing of eigensphere's public functions, and the per-layer
metrics read off the spans.

``install`` replaces each function at the names other modules call it by
(``stats.simulate``, ``moments.gegenbauer_eval_many``, ...) with a
wrapper that records a span: name, start, end, parent and a few counts.
Spans stay in memory until ``write``.  Nothing is wrapped unless
``install`` is called, so untraced runs execute the program untouched.
"""
from __future__ import annotations

import json
import os
import time
from pathlib import Path

# (module, attribute) -> span name.  A function imported by two modules is
# wrapped at both names and reported under one.
TARGETS = [
    ("specfun", "bessel_j", "specfun.bessel_j"),
    ("moments", "bessel_j", "specfun.bessel_j"),
    ("moments", "gegenbauer_eval_many", "specfun.gegenbauer_eval_many"),
    ("field", "gegenbauer_eval_many", "specfun.gegenbauer_eval_many"),
    ("functionals", "hermite_eval", "specfun.hermite_eval"),
    ("moments", "moment_integral", "moments.moment_integral"),
    ("moments", "asymptotic_constant", "moments.asymptotic_constant"),
    ("stats", "build_grid", "field.build_grid"),
    ("stats", "simulate", "field.simulate"),
    ("stats", "replicate_seed", "field.replicate_seed"),
    ("stats", "defect", "functionals.defect"),
    ("stats", "excursion_volume", "functionals.excursion_volume"),
    ("stats", "hermite_projection", "functionals.hermite_projection"),
    ("stats", "run_ensemble", "stats.run_ensemble"),
    ("stats", "ks_distance", "stats.ks_distance"),
    ("stats", "w1_distance", "stats.w1_distance"),
    ("stats", "empirical_cum4", "stats.empirical_cum4"),
]

# metric name -> unit, as BENCHMARK.json's per_layer list gives them
METRICS = {
    m["name"]: m["unit"]
    for m in json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())["per_layer"]
}

_PAGE_MB = os.sysconf("SC_PAGE_SIZE") / 2**20


def rss_mb() -> float:
    """Current resident set size of this process."""
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * _PAGE_MB


class Tracer:
    """Records spans as [name, start_ns, end_ns, parent_index, attrs]."""

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []
        self._drawn: set = set()

    def wrap(self, name, fn, before=None, after=None):
        """``before(args)`` runs untimed ahead of the call; its result and
        the call's are passed to ``after``, which returns the span's attrs."""

        def traced(*args, **kwargs):
            ctx = before(args) if before else None
            rec = [name, 0, 0, self._open[-1] if self._open else -1, None]
            self._open.append(len(self.spans))
            self.spans.append(rec)
            rec[1] = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter_ns()
                self._open.pop()
            if after:
                rec[4] = after(ctx, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, package) -> None:
        """Wrap every TARGETS entry of the imported ``package``."""
        hooks = {
            "specfun.gegenbauer_eval_many": (None, lambda _c, a, r: {"arg_steps": int(r.size) * int(a[0])}),
            "field.simulate": (self._before_draw, self._after_draw),
        }
        for module, attr, name in TARGETS:
            mod = getattr(package, module)
            before, after = hooks.get(name, (None, None))
            setattr(mod, attr, self.wrap(name, getattr(mod, attr), before, after))

    def _before_draw(self, args):
        ell, grid = args[0], args[1]
        key = (id(grid), ell)
        if key in self._drawn:
            return None
        self._drawn.add(key)
        return rss_mb()

    def _after_draw(self, rss_before, args, _result):
        attrs = {"nodes": args[1].size}
        if rss_before is not None:
            attrs["first"] = 1
            attrs["rss_mb"] = rss_mb() - rss_before
        return attrs

    def write(self, path: str) -> None:
        t0 = self.spans[0][1] if self.spans else 0
        rows = [[n, (s - t0) / 1e9, (e - t0) / 1e9, p, a] for n, s, e, p, a in self.spans]
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start_s", "end_s", "parent", "attrs"], "spans": rows}, fh, separators=(",", ":"))

    def metrics(self) -> dict:
        return layer_metrics(self.spans)


def _busy_s(intervals) -> float:
    """Length of the union of [start, end) intervals, in seconds."""
    total, reach = 0, None
    for s, e in sorted(intervals):
        if reach is None or s >= reach:
            total += e - s
            reach = e
        elif e > reach:
            total += e - reach
            reach = e
    return total / 1e9


def layer_metrics(spans) -> dict:
    by_name: dict[str, list[int]] = {}
    child_ns = [0] * len(spans)
    for i, (name, s, e, parent, _a) in enumerate(spans):
        by_name.setdefault(name, []).append(i)
        if parent >= 0:
            child_ns[parent] += e - s

    def attr_sum(name, key):
        return sum((spans[i][4] or {}).get(key, 0) for i in by_name.get(name, ()))

    out = {}
    for name in {span for _m, _a, span in TARGETS} | {"cli.run"}:
        idx = by_name.get(name, [])
        out[f"{name}.s"] = _busy_s([(spans[i][1], spans[i][2]) for i in idx])
        out[f"{name}.calls"] = len(idx)
        out[f"{name}.self_s"] = sum(spans[i][2] - spans[i][1] - child_ns[i] for i in idx) / 1e9
    out["specfun.gegenbauer_eval_many.arg_steps"] = attr_sum("specfun.gegenbauer_eval_many", "arg_steps")
    draws = by_name.get("field.simulate", [])
    out["field.simulate.first_s"] = sum(
        spans[i][2] - spans[i][1] for i in draws if (spans[i][4] or {}).get("first")
    ) / 1e9
    busy = out["field.simulate.s"]
    out["field.simulate.nodes_per_s"] = attr_sum("field.simulate", "nodes") / busy if busy else 0.0
    out["field.cache_rss_mb"] = attr_sum("field.simulate", "rss_mb")
    return {m: out[m] for m in METRICS}
