"""One workload in one process; started by run.py, not meant to be run by hand.

Sets up (imports, input generation, warm-up), reports when it is ready,
runs the fixed operation list with the program's stdout and stderr
captured, checks the outputs, and prints its report as one JSON line.
With --setup-only it stops after reporting ready, so run.py can take the
median of several set-ups.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import statistics
import sys
import time
import traceback

import tracing

import checks as ref
import workloads


def run_operations(ops, recorder):
    """Time each call; return (durations, failed count)."""
    durations, failed = [], 0
    for label, call, inspect in ops:
        out, err = io.StringIO(), io.StringIO()
        if recorder is not None:
            recorder.phase = "ops"
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                start = time.perf_counter()
                try:
                    result = call()
                finally:
                    durations.append(time.perf_counter() - start)
        except Exception:
            failed += 1
            print(f"perfbench: operation {label} raised:\n{traceback.format_exc()}", file=sys.stderr)
            continue
        finally:
            if recorder is not None:
                recorder.phase = None
        if not inspect(result, err.getvalue()):
            failed += 1
    return durations, failed


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace-file")
    p.add_argument("--work-dir", required=True)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    recorder = None
    if args.trace_file:
        recorder = tracing.Recorder()
        tracing.install(recorder)
    check = ref.Checks()
    wl = workloads.WORKLOADS[args.workload](args.seed, args.work_dir, check, recorder)

    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        if recorder is not None:
            recorder.phase = "setup"
        wl.prepare()
        if recorder is not None:
            recorder.phase = None
        wl.warm_up()
    ready = time.monotonic()
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return 0

    # a fixed operation list, sized from --seconds by the nominal round length
    rounds = max(1, round(args.seconds / wl.ROUND_S))
    ops = wl.operations(rounds)
    durations, failed = run_operations(ops, recorder)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        oos, oos_se = wl.finish()
    for problem in check.problems:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)

    report = {
        "ready": ready,
        "correct": not check.problems,
        "checks": check.made,
        "problems": check.problems,
        "attempted": len(ops),
        "failed": failed,
        "rounds": rounds,
        "labels": [label for label, _, _ in ops],
        "durations_s": durations,
        "wall_s": sum(durations),
        "op_p50_ms": 1e3 * statistics.median(durations),
        "peak_rss_mb": peak_rss_mb,
        "oos_revenue": oos,
        "oos_revenue_se": oos_se,
        "findings": getattr(wl, "findings", {}),
    }
    if recorder is not None:
        report["per_layer"] = {
            name: {"value": value, "unit": tracing.PER_LAYER_UNITS[name]}
            for name, value in recorder.per_layer().items()
        }
        os.makedirs(os.path.dirname(args.trace_file), exist_ok=True)
        recorder.dump(args.trace_file)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
