"""The benchmark's tracer wraps menuforge functions and methods by name, so
deleting or renaming one of them must fail here, not only in a traced run."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_tracer_finds_every_traced_name():
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")])}
    code = "import tracing; tracing.install(tracing.Recorder())"
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
