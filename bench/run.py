#!/usr/bin/env python3
"""lmdistill benchmark: three workloads driven through lmdistill.cli.dispatch.

    python3 bench/run.py --workload distill-v10k --seed 1 --seconds 15 --trace 0
    python3 bench/run.py --workload all --seed 1       # every workload, one after another
    python3 bench/run.py --smoke                       # tiny shapes: schema and output checks

Run it from the root of a checkout; it imports lmdistill from `src/`. Each
run generates its inputs from the seed, runs the workload's commands in a
fresh child process, checks their outputs, and prints one JSON object as the
last line of stdout. See bench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import os

# One BLAS thread, here and in the child, so the figures do not depend on how
# many threads OpenBLAS starts for the core count. Must be set before numpy loads.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import re  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
CHILD_TIMEOUT_S = 170
SETUP_REPS = 5  # set-up-only repetitions before each timed iteration and after the last

MID = {"embed": 64, "layers": 2, "hidden": 128, "bottleneck": 64, "experts": 4}
WORKLOADS = {
    # 25 steps is the fewest at which train.txt holds all 9,997 word types:
    # 12 * (35 * 25 + 1) = 10,512 ids in at most 500 lines of >= 20 words.
    # The one validation per run is eval_tok_s's only sample; at 72 windows
    # it lasts ~7 s, which evens out some of the host's speed swings (36
    # windows, ~3 s, gave a spread of 0.26 over ten seeds).
    "distill-v10k": {**MID, "vocab": 10000, "batch": 12, "bptt": 35, "steps": 25,
                     "valid_windows": 72, "teachers": 2, "min_iters": 1},
    "teacher-lstm": {"embed": 64, "layers": 2, "hidden": 256, "bottleneck": 64, "experts": 2,
                     "vocab": 1000, "batch": 12, "bptt": 70, "steps": 3,
                     "valid_windows": 32, "min_iters": 2,
                     "regularizers": {"input_dropout": 0.4, "output_dropout": 0.29,
                                      "hidden_dropout": 0.225, "embed_dropout": 0.4,
                                      "other_dropout": 0.4, "ar_weight": 2.0,
                                      "tar_weight": 1.0}},
    "score-v2k": {**MID, "vocab": 2000, "eval_windows": 64, "utts": 1, "nbest": 50,
                  "sweep_lm_weight": (0.5, 1.0),
                  "sweep_wip": (0.0, -0.5), "min_iters": 3},
}
TINY = {"embed": 8, "layers": 1, "hidden": 8, "bottleneck": 8, "experts": 2, "vocab": 40}
SMOKE = {
    "distill-v10k": {**WORKLOADS["distill-v10k"], **TINY, "batch": 2, "bptt": 5, "steps": 6,
                     "valid_windows": 1, "min_iters": 2},
    "teacher-lstm": {**WORKLOADS["teacher-lstm"], **TINY, "batch": 2, "bptt": 5, "steps": 6,
                     "valid_windows": 1},
    "score-v2k": {**WORKLOADS["score-v2k"], **TINY, "eval_windows": 1, "nbest": 6},
}


def environment() -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
            "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"],
            "machine": platform.machine()}


def run_child(spec: dict, spec_path: Path) -> tuple[dict, float]:
    """Run child.py on spec; return its result and its peak RSS in MB."""
    spec_path.write_text(json.dumps(spec))
    proc = subprocess.Popen([sys.executable, str(BENCH / "child.py"), str(spec_path)],
                            stdout=sys.stderr)
    killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    killer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        killer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise RuntimeError(f"workload process exited with {proc.returncode}")
    return json.loads(Path(spec["result"]).read_text()), usage.ru_maxrss / 1024


def setup_time(it: dict) -> float | None:
    """Seconds from each command's start to its first entry-point call, summed
    over one iteration's commands; None if a command failed or never got there."""
    import spans
    sp = it["spans"]
    root = spans.roots(sp)
    first: dict[int, float] = {}
    for i, (name, t0, *_) in enumerate(sp):
        if name in spans.SETUP_ENDS:
            first.setdefault(root[i], t0)
    commands = [i for i, s in enumerate(sp) if s[3] < 0]
    if (any(rec["exit"] != 0 for rec in it["commands"])
            or len(commands) != len(it["commands"]) or set(first) != set(commands)):
        return None
    return sum(first[i] - sp[i][1] for i in commands)


def parse_float(stdout: str, key: str) -> float:
    m = re.search(rf"^{key}=(\S+)", stdout, re.M)
    return float(m.group(1)) if m else math.nan


class Checks:
    """Counts operations attempted and failed, with a reason per failure."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def op(self, ok: bool, what: str, n: int = 1) -> None:
        self.attempted += n
        if not ok:
            self.failures += [what] * n


class DigestMemo:
    """model.dlm digests remembered across runs, keyed by workload, seed, shape
    and a hash of the program and benchmark sources."""

    def __init__(self, path: Path, key: list):
        h = hashlib.sha256()
        for src in sorted([*SRC.rglob("*.py"), *BENCH.glob("*.py")]):
            h.update(str(src.relative_to(ROOT)).encode() + b"\0" + src.read_bytes())
        self.key = hashlib.sha256(json.dumps([key, h.hexdigest()]).encode()).hexdigest()
        self.path = path
        self.memo = json.loads(path.read_text()) if path.is_file() else {}

    def get(self) -> str | None:
        return self.memo.get(self.key)

    def put(self, digest: str) -> None:
        if self.key in self.memo:
            return
        self.memo[self.key] = digest
        tmp = self.path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.memo, indent=1))
        os.replace(tmp, self.path)


def check_training(iterations: list[dict], checks: Checks, remembered: str | None) -> bool:
    """Each training run exits 0, reports a finite best_valid_ppl, and writes a
    model.dlm byte-identical to every other run of this workload and seed.

    Returns whether any digest had another to be compared with: a run with a
    single training run and no remembered digest checks nothing here.
    """
    records = [it["commands"][0] for it in iterations]
    reference = remembered or next((r["digest"] for r in records if r["digest"]), None)
    for i, rec in enumerate(records):
        ok = (rec["exit"] == 0 and math.isfinite(parse_float(rec["stdout"], "best_valid_ppl"))
              and rec["digest"] is not None and rec["digest"] == reference)
        checks.op(ok, f"training run {i}: exit {rec['exit']}, model digest {rec['digest']}")
    return remembered is not None or len(records) > 1


def reference_scoring(work: Path, shape: dict) -> dict:
    """Untimed reference for the score-v2k outputs, from a direct model_forward.

    Returns the expected sweep lines and the utterances that fail one of two
    checks of rescore_nbest at the best sweep point: every LM score it hands
    to combine_and_select equals the reference within 1e-9, and it selects
    what the reference selects.
    """
    import numpy as np
    from lmdistill import rescore
    from lmdistill.checkpoint import load_checkpoint
    from lmdistill.data import Vocabulary
    from lmdistill.model import model_forward
    from lmdistill.rescore import RescoreConfig, parse_nbest, parse_refs, wer

    model = load_checkpoint(work / "model" / "model.dlm")
    vocab = Vocabulary.load(work / "model" / "vocab.txt")
    nbest = parse_nbest((work / "nbest.tsv").read_text().splitlines())
    refs = parse_refs((work / "refs.tsv").read_text().splitlines())

    def direct(words):
        ids = [vocab.lookup(w) for w in words]
        inputs = np.asarray([vocab.eos_id] + ids)[None, :]
        targets = np.asarray(ids + [vocab.eos_id])
        log_probs = model_forward(model, inputs, model.init_state(1)).log_probs.data
        return float(log_probs[np.arange(targets.size), targets].sum())

    lm = {(e.utt_id, e.rank): direct(e.words) for es in nbest.values() for e in es}

    def select(lm_w, wip):
        out = {}
        for utt, entries in nbest.items():
            best, best_total = None, -math.inf
            for e in entries:  # rank order; ties keep the lower rank
                total = e.acoustic_score + lm_w * lm[(e.utt_id, e.rank)] + wip * len(e.words)
                if total > best_total:
                    best, best_total = e, total
            out[utt] = best
        return out

    lines, best = [], None
    for lm_w in shape["sweep_lm_weight"]:
        for wip in shape["sweep_wip"]:
            report = wer(refs, {u: e.words for u, e in select(lm_w, wip).items()})
            lines.append(f"lm_weight={lm_w:g} wip={wip:g} {report.line()}")
            if best is None or report.wer_percent < best[0]:
                best = (report.wer_percent, lm_w, wip)
    lines.append(f"best: lm_weight={best[1]:g} wip={best[2]:g} WER={best[0]:.2f}%")

    handed: dict[str, list] = {}
    select_fn = rescore.combine_and_select

    def capture(entries, lm_scores, cfg):
        handed[entries[0].utt_id] = list(zip(entries, lm_scores))
        return select_fn(entries, lm_scores, cfg)

    rescore.combine_and_select = capture
    try:
        got = rescore.rescore_nbest(model, vocab, nbest, RescoreConfig(
            lm_weight=best[1], word_insertion_penalty=best[2]))
    finally:
        rescore.combine_and_select = select_fn
    expected = select(best[1], best[2])
    bad = {u for u in nbest
           if got[u].rank != expected[u].rank or len(handed.get(u, ())) != len(nbest[u])
           or any(abs(s - lm[(e.utt_id, e.rank)]) > 1e-9 for e, s in handed[u])}
    return {"lines": lines, "bad_utts": sorted(bad), "utts": len(nbest)}


def check_scoring(iterations: list[dict], checks: Checks, ref: dict) -> None:
    """eval-ppl exits 0 with a finite ppl that is the same on every run; each
    rescored utterance passes when the sweep's printed lines equal the
    reference lines and the untimed per-utterance checks hold."""
    ppls = {parse_float(it["commands"][0]["stdout"], "ppl") for it in iterations}
    for i, it in enumerate(iterations):
        ev, rs = it["commands"]
        ppl = parse_float(ev["stdout"], "ppl")
        checks.op(ev["exit"] == 0 and math.isfinite(ppl) and len(ppls) == 1,
                  f"eval {i}: exit {ev['exit']}, ppl {ppl}")
        printed = [ln for ln in rs["stdout"].splitlines()
                   if ln.startswith(("lm_weight=", "best:"))]
        if rs["exit"] != 0 or printed != ref["lines"]:
            checks.op(False, f"rescore {i}: exit {rs['exit']}, sweep lines differ", ref["utts"])
            continue
        checks.op(True, "", ref["utts"] - len(ref["bad_utts"]))
        for utt in ref["bad_utts"]:
            checks.op(False, f"rescore {i}: {utt} disagrees with direct model_forward")


def end_to_end(props: dict, child: dict, rss_mb: float) -> tuple[dict, dict]:
    """Medians of the run's samples; also returns the samples themselves."""
    import spans
    iterations = child["iterations"]
    setups = [x for x in map(setup_time, child["setup"] + iterations) if x is not None]
    work, evals = [], []
    for it in iterations:
        if any(rec["exit"] != 0 for rec in it["commands"]):
            continue
        sp = it["spans"]
        root = spans.roots(sp)
        swept = set()
        for i, (name, t0, t1, _, _) in enumerate(sp):
            if name == "training.train":
                work.append(props["train_target_tokens"] / (t1 - t0))
            elif name == "training.valid_ppl":
                evals.append((props["valid_stream_tokens"] - 1) / (t1 - t0))
            elif name == "training.perplexity":
                evals.append((props["eval_stream_tokens"] - 1) / (t1 - t0))
            elif name == "rescore.rescore_nbest" and root[i] not in swept:
                # The sweep runs from its first rescore_nbest() to the command's end.
                swept.add(root[i])
                work.append(props["hypotheses"] / (sp[root[i]][2] - t0))

    def median(xs):
        return statistics.median(xs) if xs else 0.0

    return ({"work_per_s": (median(work), "1/s"), "eval_tok_s": (median(evals), "tok/s"),
             "peak_rss_mb": (rss_mb, "MB"), "setup_s": (median(setups), "s")},
            {"work_per_s": work, "eval_tok_s": evals, "setup_s": setups})


def per_layer(props: dict, child: dict) -> dict:
    import spans
    useful = props.get("trie_nodes", 0)
    summaries = [spans.summarize(it["spans"], useful, child["per_call_s"])
                 for it in child["iterations"]]
    return {k: (v, spans.LAYER_METRICS[k]) for k, v in spans.median_metrics(summaries).items()}


def run_workload(workload: str, shape: dict, seed: int, seconds: int, trace: bool,
                 tag: str = "") -> dict:
    """Generate inputs, run the child, check outputs; return the result record."""
    import inputs
    work = BENCH / "work" / f"{workload}{tag}-s{seed}-{os.getpid()}"
    out_dir = BENCH / "out"
    out_dir.mkdir(parents=True, exist_ok=True)
    if work.exists():
        shutil.rmtree(work)
    try:
        work.mkdir(parents=True)
        commands, props = inputs.build(workload, shape, seed, work)
        (work / "runs").mkdir()
        spec = {"src": str(SRC), "commands": commands, "runs_dir": str(work / "runs"),
                "seconds": seconds, "min_iters": shape["min_iters"],
                "setup_reps": SETUP_REPS, "trace": trace, "result": str(work / "result.json")}
        child, rss_mb = run_child(spec, work / "spec.json")

        checks = Checks()
        for rep in child["setup"]:
            checks.op(setup_time(rep) is not None, "set-up repetition failed")
        compared = None
        if workload == "score-v2k":
            check_scoring(child["iterations"], checks, reference_scoring(work, shape))
        else:
            memo = DigestMemo(out_dir / "model-digests.json", [workload, seed, shape])
            compared = check_training(child["iterations"], checks, memo.get())
            if not checks.failures:
                memo.put(child["iterations"][0]["commands"][0]["digest"])

        if trace:
            metrics, samples = per_layer(props, child), {}
        else:
            metrics, samples = end_to_end(props, child, rss_mb)
        record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
                  "environment": environment(), "inputs": props,
                  "iterations": len(child["iterations"]), "setup_reps": len(child["setup"]),
                  "determinism_compared": compared,
                  "attempted": checks.attempted, "failed": len(checks.failures),
                  "failures": checks.failures[:20],
                  "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
                  "samples": samples}
        if trace:
            record["spans"] = [it["spans"] for it in child["iterations"]]
        (out_dir / f"{workload}{tag}-seed{seed}-trace{int(trace)}.json").write_text(
            json.dumps(record))
        return record
    finally:
        shutil.rmtree(work, ignore_errors=True)


# What work_per_s measures on each workload, by its usual name.
WORK_NAMES = {"distill-v10k": "train_tok_s", "teacher-lstm": "train_tok_s",
              "score-v2k": "rescore_hyps_s"}


def report(record: dict) -> dict:
    """Print the human-readable lines; return the result object for the last line."""
    print(f"# workload={record['workload']} seed={record['seed']} "
          f"seconds={record['seconds']} trace={record['trace']}")
    print(f"# environment: {json.dumps(record['environment'])}")
    print(f"# inputs: {json.dumps(record['inputs'])}")
    print(f"# commands: {record['iterations']} timed iterations, "
          f"{record['setup_reps']} set-up-only repetitions")
    if record["determinism_compared"] is not None:
        print("# determinism: model.dlm " + (
            "compared with another run of this seed and source" if record["determinism_compared"]
            else "not compared: first run of this seed and source"))
    for reason in record["failures"]:
        print(f"# FAILED: {reason}")
    for name, m in record["metrics"].items():
        alias = f"  ({WORK_NAMES[record['workload']]})" if name == "work_per_s" else ""
        print(f"{name} = {m['value']:.6g} {m['unit']}{alias}")
    print(f"error_rate = {record['failed'] / max(record['attempted'], 1):.6g} "
          f"({record['failed']} of {record['attempted']} operations)")
    return {"correct": record["failed"] == 0, "attempted": record["attempted"],
            "failed": record["failed"], "metrics": record["metrics"]}


def smoke() -> int:
    """Tiny shapes, both modes: check the result schema and the output checks only."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if [w["name"] for w in spec["workloads"]] != list(WORKLOADS):
        raise SystemExit(f"BENCHMARK.json workloads differ from {list(WORKLOADS)}")
    for trace, section in ((False, "end_to_end"), (True, "per_layer")):
        units = {m["name"]: m["unit"] for m in spec[section]}
        for workload, shape in SMOKE.items():
            result = report(run_workload(workload, shape, 0, 0, trace, tag="-smoke"))
            problems = []
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"result keys {sorted(result)}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{result['failed']} of {result['attempted']} operations failed")
            got = {k: m["unit"] for k, m in result["metrics"].items()}
            if got != units:
                problems.append(f"metrics {got} != BENCHMARK.json {units}")
            if not all(isinstance(m["value"], (int, float)) for m in result["metrics"].values()):
                problems.append("non-numeric metric value")
            if trace and result["metrics"]["model.mos_head_calls"]["value"] < 1:
                problems.append("no model.mos_head spans recorded")
            if problems:
                print(f"smoke: {workload} trace={int(trace)}: " + "; ".join(problems))
                return 1
    print("smoke: ok")
    return 0


def main(argv: list[str]) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=15)  # BENCHMARK.json run_seconds
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true")
    args = p.parse_args(argv)
    if not (SRC / "lmdistill" / "__init__.py").is_file():
        print(f"error: no lmdistill sources under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.smoke:
        return smoke()
    if args.workload is None:
        p.error("--workload is required unless --smoke is given")
    if args.seconds < 0:
        p.error("--seconds must be >= 0")
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {w: report(run_workload(w, WORKLOADS[w], args.seed, args.seconds, bool(args.trace)))
               for w in names}
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
