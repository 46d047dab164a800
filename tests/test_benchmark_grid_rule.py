"""The benchmark (``perfbench/``) checks the ``resolution`` column of every
ensemble it runs against its own copy of the default grid rule,
``checks.expected_resolution``.  A change to ``stats.default_resolution``
must therefore land together with a change to the benchmark, or every
ensemble operation there fails; this test says so first."""
import importlib.util
import sys
from pathlib import Path

from eigensphere.cli import _ENSEMBLES, RunConfig, _resolution

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(monkeypatch, name):
    spec = importlib.util.spec_from_file_location(name, PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # registered first: dataclasses and `import oracles` look the module up by name
    monkeypatch.setitem(sys.modules, name, module)
    spec.loader.exec_module(module)
    return module


def test_default_grid_rule_matches_benchmark(monkeypatch):
    workloads = _load(monkeypatch, "workloads")
    _load(monkeypatch, "oracles")
    checks = _load(monkeypatch, "checks")
    compared, mismatched = 0, []
    for wl in workloads.WORKLOADS.values():
        for op in wl.ops:
            if op.config["command"] not in _ENSEMBLES:
                continue
            cfg = RunConfig(**op.config)
            kind = _ENSEMBLES[cfg.command][0]
            for ell in cfg.ell_list:
                got = _resolution(cfg, kind, ell)
                want = checks.expected_resolution(cfg.d, kind, ell, cfg.q)
                compared += 1
                if got != want:
                    mismatched.append((op.name, ell, got, want))
    assert compared >= 10
    assert mismatched == []
