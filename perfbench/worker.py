"""One workload in one fresh process: import eigensphere, make the set-up
pass, then run rounds of ``cli.run`` calls (none with ``--setup-only``):
one round, or with ``--budget`` as many whole rounds as are expected to
end within that many seconds of the start (at least one).

Prints one JSON line with the timings, the CSV text of every call and the
peak RSS.  The parent (run.py) pins the BLAS threads in the environment
and checks the outputs; this process imports nothing but the standard
library before the timed import of eigensphere.

    PYTHONPATH=src python3 perfbench/worker.py --workload s2-ensembles --seed 1 \
        [--budget 34] [--setup-only] [--trace-file perfbench/results/x.spans.json]
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import sys
import time

from workloads import WORKLOADS


def peak_rss_mb() -> float:
    """High-water resident set of this address space (VmHWM).  ru_maxrss
    would also count the spawning parent's high water: Linux carries the
    pre-exec address space's peak into it."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM in /proc/self/status")


def _call(run, cfg: dict, run_config) -> tuple[str | None, str | None]:
    """One program call; returns (csv text, error)."""
    sink = io.StringIO()
    try:
        with contextlib.redirect_stdout(sink):
            return run(run_config(**cfg)), None
    except Exception as exc:  # a failed operation is counted, not fatal
        return None, f"{type(exc).__name__}: {exc}"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--budget", type=float, default=0.0, help="seconds from the start; 0 = one round")
    ap.add_argument("--setup-only", action="store_true", help="stop after the set-up pass")
    ap.add_argument("--trace-file", default=None)
    args = ap.parse_args(argv)
    wl = WORKLOADS[args.workload]

    t0 = time.perf_counter()
    import eigensphere
    from eigensphere import cli

    run = cli.run
    tracer = None
    if args.trace_file:
        from spans import Tracer

        tracer = Tracer()
        tracer.install(eigensphere)
        run = tracer.wrap("cli.run", cli.run)
    setup_errors = [err for cfg in wl.setup if (err := _call(run, cfg, cli.RunConfig)[1])]
    setup_s = time.perf_counter() - t0
    result = {"setup_s": setup_s, "setup_errors": setup_errors, "ops": []}

    r, longest = 0, 0.0
    while not args.setup_only:
        t_round = time.perf_counter()
        for op, cfg in wl.round_ops(args.seed, r):
            t = time.perf_counter()
            text, err = _call(run, cfg, cli.RunConfig)
            result["ops"].append({"name": op.name, "round": r, "config": cfg, "text": text, "error": err,
                                  "seconds": time.perf_counter() - t})
        r, longest = r + 1, max(longest, time.perf_counter() - t_round)
        if time.perf_counter() - t0 + longest > args.budget:
            break
    result["peak_rss_mb"] = peak_rss_mb()
    if tracer:
        result["layers"] = tracer.metrics()
        tracer.write(args.trace_file)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
