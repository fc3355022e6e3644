"""The benchmark still runs against this tree: its smoke mode, end to end.

The benchmark wraps library call sites by name (e.g. lmdistill.model.mos_log_probs),
so a refactor that renames one shows up here. Smoke mode checks the result schema
and the output checks, never timings; it writes only under bench/work and bench/out.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_bench_smoke_passes():
    proc = subprocess.run([sys.executable, "bench/run.py", "--smoke"], cwd=ROOT,
                          capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    assert lines and lines[-1] == "smoke: ok", proc.stdout[-2000:]
