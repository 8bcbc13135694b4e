#!/usr/bin/env python3
"""menuforge benchmark: run a workload, check its outputs, print its metrics.

    python3 perfbench/run.py --workload fit_large --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all

Run from the root of a menuforge checkout; the program is imported from
its ``src/``.  Each workload runs in a process of its own (worker.py), with
OpenBLAS and OpenMP pinned to one thread and MENUFORGE_THREADS unset.  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  ``--workload all``
prints one such line per workload, each after a ``# <workload>`` line.

Files go to perfbench/out/: results/ and traces/ are kept, each run's
scratch directory is removed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
WORKLOADS = ("fit_large", "evaluate", "sweep")
# set-ups per untraced run; setup_s is their median
SETUP_REPEATS = 3
# every run must end within 180 s
DEADLINE_S = 170.0

UNITS = {"setup_s": "s", "wall_s": "s", "op_p50_ms": "ms", "peak_rss_mb": "MB", "oos_revenue": "revenue/buyer"}


class BenchError(RuntimeError):
    pass


def worker_env():
    env = dict(os.environ)
    env.pop("MENUFORGE_THREADS", None)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    paths = [os.path.join(ROOT, "src")] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def run_worker(args, deadline, extra):
    """Start worker.py, wait for it, return (spawn time, its JSON report)."""
    work_dir = os.path.join(OUT, f"tmp-{os.getpid()}-{time.monotonic_ns()}")
    os.makedirs(work_dir)
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--work-dir", work_dir] + extra
    try:
        spawned = time.monotonic()
        proc = subprocess.run(cmd, cwd=ROOT, env=worker_env(), stdout=subprocess.PIPE,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{args.workload} did not finish before the deadline") from None
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    lines = proc.stdout.decode().strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{args.workload} worker exited {proc.returncode}")
    return spawned, json.loads(lines[-1])


def run_workload(args, started):
    deadline = started + DEADLINE_S
    tag = f"{args.workload}-seed{args.seed}"
    if args.trace:
        trace_file = os.path.join(OUT, "traces", f"{tag}.json")
        _, report = run_worker(args, deadline, ["--trace-file", trace_file])
        metrics = report["per_layer"]
    else:
        spawned, report = run_worker(args, deadline, [])
        setups = [report["ready"] - spawned]
        for _ in range(SETUP_REPEATS - 1):
            s, r = run_worker(args, deadline, ["--setup-only"])
            setups.append(r["ready"] - s)
        report["setups_s"] = setups
        values = dict(report, setup_s=statistics.median(setups))
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in UNITS.items()}
    result = {"correct": report["correct"], "attempted": report["attempted"],
              "failed": report["failed"], "metrics": metrics}
    os.makedirs(os.path.join(OUT, "results"), exist_ok=True)
    with open(os.path.join(OUT, "results", f"{tag}-trace{int(args.trace)}.json"), "w", encoding="utf-8") as fh:
        json.dump({"result": result, "worker": report}, fh, indent=1)
        fh.write("\n")
    return result


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=int, default=20, help="nominal length of the timed part")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "menuforge", "__init__.py")):
        print(f"perfbench: no menuforge sources under {ROOT}/src", file=sys.stderr)
        return 2
    started = time.monotonic()
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        for name in names:
            if args.workload == "all":
                print(f"# {name}", flush=True)
                started = time.monotonic()
            result = run_workload(argparse.Namespace(**dict(vars(args), workload=name)), started)
            print(json.dumps(result), flush=True)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
