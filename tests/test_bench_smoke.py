"""The benchmark still runs against this tree: its smoke mode, end to end.

The benchmark wraps library call sites by name (e.g. lmdistill.model.mos_log_probs),
so a refactor that renames one shows up here. Smoke mode checks the result schema
and the output checks, never timings; it writes only under bench/work and bench/out.
"""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))
import spans  # noqa: E402

# Sites the tracer skips because the functions are gone (dropout masks have
# come from variational_mask since the per-call generator replaced them;
# rescoring scores each utterance as one prefix trie, not per hypothesis;
# each LSTM layer is one lstm_layer op per window, not a cell per step; a
# training step's backward is written by hand, with no tape to walk).
KNOWN_ABSENT = {("lmdistill.model", "drop_connect"), ("lmdistill.model", "embedding_dropout"),
                ("lmdistill.rescore", "score_hypothesis"), ("lmdistill.model", "lstm_step"),
                ("lmdistill.training", "backward")}


SITES = [site[:2] for site in spans.ENTRY_SITES + spans.CALL_SITES]


@pytest.mark.parametrize("owner, attr", SITES, ids=lambda part: part)
def test_bench_call_site_exists(owner, attr):
    # the tracer skips a missing site silently, which would zero its metric
    present = attr in vars(spans._resolve(owner))
    assert present != ((owner, attr) in KNOWN_ABSENT), f"{owner}.{attr}"


def test_bench_smoke_passes():
    proc = subprocess.run([sys.executable, "bench/run.py", "--smoke"], cwd=ROOT,
                          capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    assert lines and lines[-1] == "smoke: ok", proc.stdout[-2000:]
