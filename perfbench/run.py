"""Benchmark of eigensphere, end to end and per layer.

    python3 perfbench/run.py --workload s2-ensembles --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40 --trace 1

Run from the root of a checkout.  Each workload runs in fresh worker
processes (worker.py) with the BLAS threads pinned; this process then
checks every output against the oracles and prints one line per check
failure, the metrics, and as its last line one JSON object with the keys
correct, attempted, failed and metrics.  --trace 0 reports the end-to-end
metrics, --trace 1 the per-layer metrics of a traced run and writes its
spans to perfbench/results/.  See README.md for the metrics.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
WORKER_TIMEOUT_S = 170
MEASURED_SHARE = 0.85  # of --seconds; set-up-only workers fill the rest
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "EIGENSPHERE_THREADS")


class WorkerError(RuntimeError):
    pass


def _worker(args: list[str], threads: int) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    env.update({var: str(threads) for var in THREAD_VARS})
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), *args],
            env=env, cwd=ROOT, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as exc:
        raise WorkerError(f"worker {args} exceeded {WORKER_TIMEOUT_S} s") from exc
    if proc.returncode != 0:
        raise WorkerError(f"worker {args} exited {proc.returncode}:\n{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _check(proc: dict) -> tuple[int, bool, list[str]]:
    """Check every operation of a worker: (failed, correct, lines)."""
    import checks

    faults = {op.name for wl in WORKLOADS.values() for op in wl.ops if op.known_fault}
    failed = 0
    correct = not proc["setup_errors"]
    lines = [f"setup error: {err}" for err in proc["setup_errors"]]
    for op in proc["ops"]:
        if op["error"]:
            ok, bad = False, [("call", False, op["error"])]
        else:
            rep = checks.check_output(op["config"], op["text"])
            ok, bad = rep.passed, [c for c in rep.checks if not c[1]]
        tag = "PASS" if ok else ("FAIL (known fault)" if op["name"] in faults else "FAIL")
        lines.append(f"check round {op['round']} {op['name']}: {tag}")
        lines += [f"    {name}: {detail}" for name, _ok, detail in bad]
        if not ok:
            failed += 1
            correct = correct and op["name"] in faults
    return failed, correct, lines


def run_workload(name: str, seed: int, seconds: float, trace: bool, threads: int | None) -> dict:
    """Untraced: one measured worker (set-up pass, then whole rounds for
    MEASURED_SHARE of ``seconds``, at least one), its outputs checked, then
    set-up-only workers, each only while it is expected to end within
    ``seconds``.  A round's time is the sum of each operation's fastest
    time over the rounds; set-up is the median of the workers' set-ups.
    Traced: one measured worker with one round."""
    common = ["--workload", name, "--seed", str(seed)]
    threads = threads or min(WORKLOADS[name].threads, os.cpu_count() or 1)
    start = time.perf_counter()
    if trace:
        RESULTS.mkdir(exist_ok=True)
        span_file = RESULTS / f"{name}-seed{seed}.spans.json"
        proc = _worker(common + ["--trace-file", str(span_file)], threads)
    else:
        proc = _worker(common + ["--budget", str(MEASURED_SHARE * seconds)], threads)
    failed, correct, lines = _check(proc)
    for line in lines:
        print(line)
    setups, longest = [proc["setup_s"]], proc["setup_s"]
    while not trace and seconds - (time.perf_counter() - start) >= longest:
        t = time.perf_counter()
        setup_only = _worker(common + ["--setup-only"], threads)
        longest = max(longest, time.perf_counter() - t)
        setups.append(setup_only["setup_s"])
        correct = correct and not setup_only["setup_errors"]
    rounds = len({op["round"] for op in proc["ops"]})
    attempted = len(proc["ops"])
    print(f"{name}: {rounds} round(s), {len(setups)} set-up sample(s), {attempted} operations, "
          f"{failed} failed, {threads} BLAS threads, {time.perf_counter() - start:.1f} s")
    fastest: dict[str, float] = {}
    for op in proc["ops"]:
        fastest[op["name"]] = min(op["seconds"], fastest.get(op["name"], op["seconds"]))
    setup_s, round_s = statistics.median(setups), sum(fastest.values())
    if trace:
        import spans

        print(f"traced wall_s {setup_s + round_s:.4f} s (spans in {span_file.relative_to(ROOT)})")
        metrics = {m: {"value": v, "unit": spans.METRICS[m]} for m, v in proc["layers"].items()}
    else:
        items = sum(op.items for op in WORKLOADS[name].ops)
        metrics = {
            "wall_s": {"value": setup_s + round_s, "unit": "s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "items_per_s": {"value": items / round_s, "unit": "1/s"},
            "peak_rss_mb": {"value": proc["peak_rss_mb"], "unit": "MB"},
        }
    for m, v in metrics.items():
        print(f"  {m} = {v['value']:.6g} {v['unit']}")
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--threads", type=int, default=None, help="BLAS threads (default: the workload's own)")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "eigensphere" / "__init__.py").is_file():
        print(f"error: no eigensphere sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        results = [run_workload(n, args.seed, args.seconds, bool(args.trace), args.threads) for n in names]
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for result in results:
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
