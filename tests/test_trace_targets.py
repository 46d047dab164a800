"""The traced benchmark (``perfbench/run.py --trace 1``) wraps eigensphere
functions at the module attributes listed in ``perfbench/spans.py``.  Each
of them must still exist, and ``cli.run`` must reach each one through that
attribute, or the per-layer metrics silently read zero."""
import importlib.util
from collections import Counter
from pathlib import Path

import pytest

import eigensphere
from eigensphere.cli import RunConfig, run

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


@pytest.fixture(scope="module")
def targets():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return [(module, attr) for module, attr, _ in spans.TARGETS]


def test_traced_targets_resolve(targets):
    missing = [
        f"{module}.{attr}"
        for module, attr in targets
        if not callable(getattr(getattr(eigensphere, module, None), attr, None))
    ]
    assert not missing


def test_cli_reaches_every_traced_target(targets, monkeypatch, tmp_path):
    calls = Counter()
    for module, attr in targets:
        mod = getattr(eigensphere, module)

        def counted(*args, _fn=getattr(mod, attr), _key=f"{module}.{attr}", **kwargs):
            calls[_key] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(mod, attr, counted)
    monkeypatch.setattr(eigensphere.stats, "_GRID_CACHE", {})  # force build_grid
    out = str(tmp_path / "out.csv")
    for cfg in (
        RunConfig("constants", q=3),
        RunConfig("moments", ell_list=[8]),
        RunConfig("clt", ell_list=[4], replicates=100, grid_resolution=8),
        RunConfig("excursion", ell_list=[4], replicates=2, grid_resolution=8),
        RunConfig("defect", ell_list=[4], replicates=2, grid_resolution=8),
        RunConfig("clt", d=3, ell_list=[2], replicates=2, grid_resolution=6),
    ):
        cfg.output = out
        run(cfg)
    assert [f"{m}.{a}" for m, a in targets if not calls[f"{m}.{a}"]] == []
