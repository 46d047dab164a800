import csv
import json
import math
import subprocess
import sys

import numpy as np
import pytest

from eigensphere import cli
from eigensphere.cli import ConfigError, RunConfig, main, run
from eigensphere.field import load_field
from eigensphere.moments import defect_variance


def invoke(*args):
    return subprocess.run(
        [sys.executable, "-m", "eigensphere", *args], capture_output=True, text=True
    )


def test_constants_command():
    out = invoke("constants", "--q", "4", "--d", "2")
    assert out.returncode == 0
    row = list(csv.DictReader(out.stdout.splitlines()))[0]
    assert float(row["value"]) == pytest.approx(3.0 / (2.0 * math.pi**2), rel=1e-12)
    assert row["method"] == "closed-form"


def test_moments_command():
    out = invoke("moments", "--q", "2", "--d", "2", "--ell", "10")
    assert out.returncode == 0
    row = list(csv.DictReader(out.stdout.splitlines()))[0]
    assert float(row["value"]) == pytest.approx(1.0 / 21.0, abs=1e-9)


@pytest.mark.parametrize("ell, q, scale", [(128, 3, 128**2), (64, 4, 64**2 / math.log(64))], ids=["q3", "log-q4"])
def test_moments_rows_scale_and_rel_err(ell, q, scale):
    # scaled = value * ell^-exponent (over log ell in the log case (4, 2)), and
    # rel_err is its distance to the limiting constant in target
    text = run(RunConfig("moments", q=q, ell_list=[ell]))
    row = {k: float(v) for k, v in list(csv.DictReader(text.splitlines()))[0].items()}
    assert row["scaled"] == pytest.approx(scale * row["value"], rel=1e-14)
    assert row["rel_err"] == pytest.approx(abs(row["scaled"] - row["target"]) / row["target"], rel=1e-14)


def test_constants_past_bessel_orders(capsys):
    # d >= 19 needs J of order 8.5 and up, where bessel_j is inaccurate: the
    # constant is refused and the moments target left undefined
    assert main(["constants", "--q", "3", "--d", "20"]) == 3
    assert "past bessel_j" in capsys.readouterr().err
    assert main(["moments", "--q", "3", "--d", "20", "--ell", "8"]) == 0
    row = list(csv.DictReader(capsys.readouterr().out.splitlines()))[0]
    assert (row["target"], row["rel_err"]) == ("nan", "nan") and float(row["value"]) > 0


def test_bare_subcommand_takes_run_config_defaults(monkeypatch):
    # the parser states no defaults: an option not given is RunConfig's
    seen = []
    monkeypatch.setattr(cli, "run", seen.append)
    for name in cli._COMMANDS:
        assert main([name]) == 0
        assert seen.pop() == RunConfig(name)
    assert main(["clt", "--ell", "4,8", "--reps", "5", "--out", "x.csv"]) == 0
    assert seen.pop() == RunConfig("clt", ell_list=[4, 8], replicates=5, output="x.csv")


def test_clt_rerun_byte_identical(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["clt", "--q", "2", "--d", "2", "--ell", "8,16", "--reps", "200",
            "--grid-resolution", "64", "--seed", "7"]
    assert invoke(*args, "--out", str(a)).returncode == 0
    assert invoke(*args, "--out", str(b)).returncode == 0
    assert a.read_bytes() == b.read_bytes()
    header = a.read_text().splitlines()[0]
    assert header == "d,ell,q,resolution,replicates,seed,value,stderr,ks,w1,cum4"


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_clt_odd_order_at_odd_degree_is_exact_zero(fmt):
    # h_3 vanishes identically at odd ell on S^2: the row states 0 and leaves the
    # distribution diagnostics undefined rather than standardizing roundoff
    out = invoke("clt", "--q", "3", "--d", "2", "--ell", "32,33", "--reps", "100", "--format", fmt)
    assert out.returncode == 0
    rows = json.loads(out.stdout) if fmt == "json" else list(csv.DictReader(out.stdout.splitlines()))
    even, odd = rows
    assert float(even["value"]) > 0 and float(even["ks"]) > 0
    assert float(odd["value"]) == 0.0 and float(odd["stderr"]) == 0.0
    undefined = None if fmt == "json" else "nan"
    assert [odd[k] for k in ("ks", "w1", "cum4")] == [undefined] * 3


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("res", ["0", "65"])
@pytest.mark.parametrize(
    "args, value, stderrs",
    [
        (("defect", "--ell", "9,33"), 0.0, ("stderr", "mean_stderr")),
        (("excursion", "--z", "0", "--ell", "33"), None, ("stderr", "variance")),
    ],
    ids=["defect", "excursion-z0"],
)
def test_constant_ensemble_rows(args, value, stderrs, res, fmt):
    # at odd ell the defect is exactly 0 and the level-0 volume one fixed float on
    # every replicate, on even res and on odd res (the equator its own mirror): the
    # spread is 0 and the normality diagnostics are undefined
    out = invoke(*args, "--reps", "100", "--grid-resolution", res, "--format", fmt)
    assert out.returncode == 0
    rows = json.loads(out.stdout) if fmt == "json" else list(csv.DictReader(out.stdout.splitlines()))
    undefined = None if fmt == "json" else "nan"
    for row in rows:
        if value is None:
            assert float(row["value"]) == pytest.approx(2.0 * math.pi, rel=1e-14)
        else:
            assert float(row["value"]) == value and float(row["mean"]) == value
        assert [float(row[k]) for k in stderrs] == [0.0, 0.0]
        assert row["ks"] == undefined
        if args[0] == "defect":
            assert float(row["exact"]) == 0.0


def test_json_output(tmp_path):
    path = tmp_path / "m.json"
    out = invoke("moments", "--q", "3", "--d", "2", "--ell", "4,8", "--format", "json",
                 "--out", str(path))
    assert out.returncode == 0
    rows = json.loads(path.read_text())
    assert [r["ell"] for r in rows] == [4, 8]
    assert set(rows[0]) == {"d", "ell", "q", "value", "scaled", "target", "rel_err"}


def test_simulate_dump(tmp_path):
    base = tmp_path / "sim.csv"
    out = invoke("simulate", "--d", "2", "--ell", "8", "--grid-resolution", "16",
                 "--seed", "5", "--out", str(base))
    assert out.returncode == 0
    d, ell, values = load_field(str(base) + ".l8.field")
    assert (d, ell) == (2, 8)
    assert len(values) == 512
    rerun = tmp_path / "sim2.csv"
    invoke("simulate", "--d", "2", "--ell", "8", "--grid-resolution", "16",
           "--seed", "5", "--out", str(rerun))
    assert np.array_equal(load_field(str(rerun) + ".l8.field")[2], values)


def test_exit_code_config_error():
    out = invoke("moments", "--ell", "16,8")  # not increasing
    assert out.returncode == 2
    assert "error" in out.stderr


def test_exit_code_numeric_error():
    # 78^2 = 6084 nodes exceed the node-set budget: refused when the grid is built
    out = invoke("clt", "--d", "3", "--ell", "2", "--reps", "2", "--grid-resolution", "78")
    assert out.returncode == 3
    assert out.stderr.splitlines() == ["error: 6084 nodes exceeds the node-set budget 6000"]


def test_degree_past_node_count_is_numeric_error():
    # the default d = 3 grid has 77^2 = 5929 nodes: degree 76 has 5929 harmonics,
    # degree 77 has 6084, which no draw on 5929 nodes can carry
    out = invoke("clt", "--d", "3", "--ell", "77", "--reps", "2")
    assert out.returncode == 3
    assert out.stderr.splitlines() == [
        "numeric error: replicate 0: degree 77 on S^3 needs at least 6084 nodes (its harmonic dimension), the grid has 5929"
    ]


def test_table_off_its_sum_rule_is_numeric_error():
    # at ell = 4000 the Legendre table is not finite: refused, not printed as
    # nan, and the overflow on the way warns nothing besides the error line
    out = invoke("clt", "--ell", "4000", "--reps", "2", "--grid-resolution", "16")
    assert out.returncode == 3
    assert out.stderr.splitlines() == [
        "numeric error: replicate 0: Legendre table breaks its sum rule at ell=4000, res=16"
    ]


def test_s2_grid_over_budget_is_numeric_error(capsys):
    # the default defect grid at ell = 2000 has 12000 rings, over the S^2 budget
    assert main(["defect", "--ell", "2000", "--reps", "2"]) == 3
    assert "S^2 grid budget" in capsys.readouterr().err


def test_exit_code_io_error(tmp_path):
    out = invoke("moments", "--ell", "4", "--out", str(tmp_path / "nope" / "f.csv"))
    assert out.returncode == 4


@pytest.mark.parametrize(
    "args", [("clt", "--d", "3", "--ell", "-1"), ("clt", "--d", "2", "--ell", "-2"), ("simulate", "--ell", "-1")]
)
def test_negative_degree_is_config_error(args):
    out = invoke(*args)
    assert out.returncode == 2
    assert "degrees must be >= 0" in out.stderr


@pytest.mark.parametrize(
    "args, message",
    [
        (("clt", "--ell", "8", "--reps", "2", "--grid-resolution", "3"), "grid resolution must be"),
        (("clt", "--ell", "8", "--reps", "2", "--grid-resolution", "-5"), "grid resolution must be"),
        (("excursion", "--ell", "8", "--reps", "2", "--Q", "1"), "truncation must be >= 2"),
        (("moments", "--ell", "8,abc"), "--ell must be comma-separated integers"),
        (("clt", "--q", "0", "--ell", "8", "--reps", "2"), "need q >= 2"),
        (("clt", "--q", "1", "--ell", "8", "--reps", "2"), "need q >= 2"),
        (("clt", "--q", "-1", "--ell", "8", "--reps", "2"), "need q >= 2"),
        (("moments", "--q", "1", "--ell", "8"), "need q >= 2"),
        (("constants", "--q", "1"), "need q >= 2"),
        (("excursion", "--z", "nan", "--ell", "8", "--reps", "2"), "level z must be finite"),
        (("excursion", "--z", "inf", "--ell", "8", "--reps", "2"), "level z must be finite"),
        (("clt", "--ell", "8", "--reps", "2", "--seed", "-1"), "seed must be in [0, 2**128)"),
        (("excursion", "--ell", "8", "--reps", "2", "--seed", str(2**128)), "seed must be in [0, 2**128)"),
        (("simulate", "--ell", "8", "--seed", "-1"), "seed must be in [0, 2**128)"),
        (("simulate", "--ell", "8", "--seed", str(2**128)), "seed must be in [0, 2**128)"),
    ],
    ids=["resolution-3", "resolution-negative", "truncation-1", "ell-not-integer", "clt-q0", "clt-q1",
         "clt-q-negative", "moments-q1", "constants-q1", "excursion-z-nan", "excursion-z-inf",
         "clt-seed-negative", "excursion-seed-2**128", "simulate-seed-negative", "simulate-seed-2**128"],
)
def test_out_of_range_option_is_config_error(args, message):
    out = invoke(*args)
    assert out.returncode == 2
    assert message in out.stderr


def _strict_json(text):
    def reject(token):
        raise ValueError(f"not valid JSON: {token}")

    return json.loads(text, parse_constant=reject)


@pytest.mark.parametrize(
    "overrides",
    [
        dict(command="constants", q=3),
        dict(command="moments", q=4, ell_list=[7, 8]),
        dict(command="simulate", ell_list=[3]),
        dict(command="clt", ell_list=[7, 8]),
        dict(command="excursion", ell_list=[7, 8]),
        dict(command="defect", ell_list=[5]),
    ],
    ids=lambda o: o["command"],
)
def test_json_output_is_strict(tmp_path, overrides):
    path = tmp_path / "out.json"
    text = run(RunConfig(replicates=10, grid_resolution=16, output=str(path), fmt="json", **overrides))
    rows = _strict_json(path.read_text())
    assert path.read_text() == text and len(rows) >= 1
    if overrides["command"] == "excursion":
        # no analytic expansion variance at odd degrees: null, not NaN
        assert rows[0]["expansion_variance"] is None
        assert isinstance(rows[1]["expansion_variance"], float)


def test_unknown_command_exits_2():
    out = invoke("frobnicate")
    assert out.returncode == 2


def test_run_config_validation():
    with pytest.raises(ConfigError):
        run(RunConfig(command="moments", ell_list=[]))
    with pytest.raises(ConfigError):
        run(RunConfig(command="moments", d=1))
    with pytest.raises(ConfigError):
        run(RunConfig(command="moments", fmt="yaml"))
    with pytest.raises(ConfigError):
        run(RunConfig(command="moments", ell_list=[-1, 4]))
    for bad in (dict(grid_resolution=-1), dict(grid_resolution=3), dict(truncation=1), dict(q=1),
                dict(z=math.nan), dict(z=-math.inf), dict(seed=-1), dict(seed=2**128)):
        with pytest.raises(ConfigError):
            run(RunConfig(command="clt", replicates=2, **bad))
    RunConfig(command="clt", grid_resolution=4, truncation=2).validate()
    RunConfig(command="simulate", seed=2**128 - 1).validate()


def test_defect_command_schema(tmp_path):
    path = tmp_path / "d.csv"
    out = invoke("defect", "--d", "2", "--ell", "16", "--reps", "200",
                 "--grid-resolution", "96", "--seed", "3", "--out", str(path))
    assert out.returncode == 0
    row = list(csv.DictReader(path.read_text().splitlines()))[0]
    # value is ell^2 Var and mean_stderr is sqrt(Var / replicates)
    assert float(row["value"]) == pytest.approx(16**2 * 200 * float(row["mean_stderr"]) ** 2, rel=1e-12)
    assert float(row["stderr"]) > 0
    scaled = float(row["value"])
    assert scaled > 32.0 / math.sqrt(27.0)
    assert list(row) == ["d", "ell", "resolution", "replicates", "seed", "value", "stderr",
                         "mean", "mean_stderr", "exact", "ks"]
    assert float(row["exact"]) == 16**2 * defect_variance(16, 2)


def test_excursion_command(tmp_path):
    path = tmp_path / "e.csv"
    out = invoke("excursion", "--z", "1.0", "--d", "2", "--ell", "8", "--reps", "300",
                 "--seed", "11", "--Q", "8", "--out", str(path))
    assert out.returncode == 0
    row = list(csv.DictReader(path.read_text().splitlines()))[0]
    target = float(row["target_mean"])
    assert target == pytest.approx(4.0 * math.pi * (1.0 - 0.8413447460685429), rel=1e-12)
    assert abs(float(row["value"]) - target) <= 4.0 * float(row["stderr"])
    # the truncated-expansion variance tracks the sampled variance closely
    assert float(row["variance"]) == pytest.approx(float(row["expansion_variance"]), rel=0.2)
