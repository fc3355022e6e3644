"""Runs one workload's commands through lmdistill.cli.dispatch, in a fresh process.

Started by run.py with the path of a JSON spec; writes a JSON result beside
it. Each command's stdout is captured. A spans.Tracer records a span around
each command and around its calls into the entry points (spans.ENTRY_SITES);
with tracing on, it also wraps the module functions in spans.CALL_SITES.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import shutil
import sys
from pathlib import Path
from time import perf_counter


def model_digest(out: Path) -> str | None:
    path = out / "model.dlm"
    digest = hashlib.sha256(path.read_bytes()).hexdigest() if path.is_file() else None
    shutil.rmtree(out, ignore_errors=True)
    return digest


def main(spec_path: str) -> None:
    spec = json.loads(Path(spec_path).read_text())
    sys.path.insert(0, spec["src"])
    from lmdistill import cli
    import spans

    tracer = spans.Tracer()
    tracer.install(spans.ENTRY_SITES)
    runs = Path(spec["runs_dir"])

    def run(argv: list[str], out: Path) -> dict:
        if argv[0].startswith("train-"):
            argv = argv + ["--out", str(out)]
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = tracer.wrap(f"cli.{argv[0]}", cli.dispatch)(argv)
        return {"command": argv[0], "exit": code, "stdout": buf.getvalue(),
                "digest": model_digest(out)}

    setup = []

    def setup_only() -> None:
        """Set-up-only repetitions: each command runs for real up to its first
        entry-point call, which the stub answers at once."""
        tracer.stubbed = True
        for _ in range(spec["setup_reps"]):
            records = [run(argv, runs / "setup") for argv in spec["commands"]]
            setup.append({"commands": [{"command": r["command"], "exit": r["exit"]}
                                       for r in records], "spans": tracer.take()})
        tracer.stubbed = False

    per_call = 0.0
    if spec["trace"]:
        per_call = spans.per_call_cost()
        tracer.install(spans.CALL_SITES)
    # Set-up repetitions run before every timed iteration and after the last,
    # so that they sample the whole run rather than its first second.
    iterations = []
    start = perf_counter()
    while len(iterations) < spec["min_iters"] or perf_counter() - start < spec["seconds"]:
        setup_only()
        records = [run(argv, runs / f"iter{len(iterations)}") for argv in spec["commands"]]
        iterations.append({"commands": records, "spans": tracer.take()})
    setup_only()

    Path(spec["result"]).write_text(json.dumps(
        {"setup": setup, "iterations": iterations, "per_call_s": per_call}))


if __name__ == "__main__":
    main(sys.argv[1])
