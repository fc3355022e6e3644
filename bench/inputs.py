"""Deterministic workload inputs: corpora, checkpoints, N-best lists.

Everything here is a function of (workload shape, seed). The generated files
are what a user would hand to the `lmdistill` command: text corpora, config
files, model checkpoints, vocabularies and N-best/reference TSV files.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from lmdistill.checkpoint import save_checkpoint
from lmdistill.data import EOS, build_vocab
from lmdistill.model import ModelConfig, build_model

ZIPF_EXPONENT = 1.0
LINE_WORDS = (20, 30)  # sentence length range, words; PTB averages ~21, WSJ ~25
# Words in an N-best reference: a WSJ-average sentence. It is fixed, not drawn
# from LINE_WORDS, because hypotheses per second scale with it: drawn, it
# moved rescore_hyps_s by up to 30% between seeds.
REF_WORDS = 25
EVAL_WINDOW = 32  # perplexity()'s default window; eval streams are sized to whole windows


def zipf_counts(n_types: int, n_tokens: int) -> np.ndarray:
    """Counts c_r = max(1, floor(C / r**s)) summing to exactly n_tokens.

    The floor of one occurrence is what makes the corpus reach the full
    vocabulary: every type appears, and the surplus over n_types follows a
    Zipf head. The leftover after choosing C goes to the top ranks.
    """
    if n_tokens < n_types:
        raise ValueError(f"{n_tokens} tokens cannot cover {n_types} types")
    ranks = np.arange(1, n_types + 1, dtype=np.float64)

    def total(c):
        return int(np.maximum(1, np.floor(c / ranks ** ZIPF_EXPONENT)).sum())

    lo, hi = 0.0, float(n_tokens)
    for _ in range(100):
        mid = (lo + hi) / 2
        if total(mid) <= n_tokens:
            lo = mid
        else:
            hi = mid
    counts = np.maximum(1, np.floor(lo / ranks ** ZIPF_EXPONENT)).astype(np.int64)
    counts[: n_tokens - int(counts.sum())] += 1
    assert counts.sum() == n_tokens
    return counts


def type_names(n_types: int) -> list[str]:
    return [f"w{r:05d}" for r in range(n_types)]


def line_lengths(rng, stream_tokens: int) -> list[int]:
    """Sentence lengths whose words plus one eos per line make stream_tokens."""
    lengths: list[int] = []
    used = 0
    while True:
        n = int(rng.integers(LINE_WORDS[0], LINE_WORDS[1] + 1))
        if used + n + 1 >= stream_tokens - LINE_WORDS[0]:
            lengths.append(stream_tokens - used - 1)
            return lengths
        lengths.append(n)
        used += n + 1


def covering_corpus(rng, n_types: int, stream_tokens: int) -> list[str]:
    """Lines whose encoded stream has exactly stream_tokens ids and every type."""
    lengths = line_lengths(rng, stream_tokens)
    words = np.repeat(np.array(type_names(n_types)), zipf_counts(n_types, sum(lengths)))
    words = words[rng.permutation(words.size)]
    lines, pos = [], 0
    for n in lengths:
        lines.append(" ".join(words[pos:pos + n]))
        pos += n
    return lines


def sampled_lines(rng, names: np.ndarray, probs: np.ndarray,
                  stream_tokens: int) -> list[str]:
    """Lines of words drawn i.i.d. from probs, encoding to stream_tokens ids."""
    return [" ".join(names[rng.choice(names.size, size=n, p=probs)])
            for n in line_lengths(rng, stream_tokens)]


def write_lines(path: Path, lines: list[str]) -> None:
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_config(path: Path, values: dict) -> None:
    write_lines(path, [f"{k} = {v}" for k, v in values.items()])


def model_config(shape: dict) -> ModelConfig:
    return ModelConfig(vocab_size=shape["vocab"], embed_dim=shape["embed"],
                       lstm_layers=shape["layers"], hidden_dim=shape["hidden"],
                       bottleneck_dim=shape["bottleneck"], num_experts=shape["experts"])


def config_values(shape: dict, seed: int, **extra) -> dict:
    return {"embed_dim": shape["embed"], "lstm_layers": shape["layers"],
            "hidden_dim": shape["hidden"], "bottleneck_dim": shape["bottleneck"],
            "num_experts": shape["experts"], "vocab_cap": shape["vocab"],
            "batch_size": shape["batch"], "bptt_len": shape["bptt"],
            "epochs": 1, "seed": seed, **extra}


def unigram_properties(lines: list[str]) -> dict:
    counts: dict[str, int] = {}
    for line in lines:
        for w in line.split():
            counts[w] = counts.get(w, 0) + 1
    total = sum(counts.values())
    return {"word_tokens": total, "types": len(counts),
            "top1_share": round(max(counts.values()) / total, 4),
            "hapax_share_of_types": round(sum(c == 1 for c in counts.values()) / len(counts), 4)}


def training_data(out: Path, rng, shape: dict) -> dict:
    """train.txt covering the whole vocabulary, plus valid.txt; both exact-length."""
    b, t = shape["batch"], shape["bptt"]
    train_tokens = b * (t * shape["steps"] + 1)
    n_types = shape["vocab"] - 3  # eos, unk and rnn_unk take three ids
    train = covering_corpus(rng, n_types, train_tokens)
    vocab = build_vocab(train, shape["vocab"])
    if vocab.size != shape["vocab"]:
        raise AssertionError(f"corpus reached {vocab.size} types, wanted {shape['vocab']}")
    probs = zipf_counts(n_types, 50 * n_types).astype(np.float64)
    valid_tokens = EVAL_WINDOW * shape["valid_windows"] + 1
    data = out / "data"
    data.mkdir()
    write_lines(data / "train.txt", train)
    write_lines(data / "valid.txt", sampled_lines(rng, np.array(type_names(n_types)),
                                                  probs / probs.sum(), valid_tokens))
    return {"vocab": vocab.size, "train_stream_tokens": train_tokens,
            "train_target_tokens": b * t * shape["steps"], "steps": shape["steps"],
            "valid_stream_tokens": valid_tokens,
            "train_unigram": unigram_properties(train)}


def nbest_lists(rng, names: np.ndarray, probs: np.ndarray, shape: dict):
    """({utt: reference words}, [(utt, rank, acoustic, firstpass, words)]).

    References have REF_WORDS words. Hypotheses keep a prefix of
    the reference and edit its tail, so an utterance's N-best shares long
    prefixes. The edit model (a geometric tail of mean ~4 words, with
    substitutions, deletions and insertions) and the acoustic scores (1.5 per
    rank plus unit noise) are assumptions, not fitted to a real recognizer's
    output; the measured shared-prefix share is reported with the inputs.
    """
    def words(n):
        return list(names[rng.choice(names.size, size=n, p=probs)])

    refs, rows = {}, []
    for u in range(shape["utts"]):
        utt = f"utt{u:03d}"
        ref = words(REF_WORDS)
        refs[utt] = ref
        hyps, seen = [], set()
        ref_rank = int(rng.integers(0, min(10, shape["nbest"])))
        while len(hyps) < shape["nbest"]:
            if len(hyps) >= ref_rank and tuple(ref) not in seen:
                hyp = list(ref)
            else:
                keep = max(0, len(ref) - 1 - int(rng.geometric(0.3)))
                hyp = ref[:keep]
                tail = ref[keep:]
                for w in tail:
                    r = rng.random()
                    if r < 0.4:
                        hyp += words(1)  # substitution
                    elif r < 0.55:
                        continue  # deletion
                    elif r < 0.7:
                        hyp += [w] + words(1)  # insertion
                    else:
                        hyp.append(w)
            if tuple(hyp) in seen or not hyp:
                continue
            seen.add(tuple(hyp))
            hyps.append(hyp)
        for rank, hyp in enumerate(hyps, 1):
            acoustic = -20.0 - 1.5 * rank + float(rng.normal(0.0, 1.0))
            rows.append((utt, rank, round(acoustic, 4), round(float(rng.normal(-60, 5)), 4), hyp))
    return refs, rows


def prefix_trie_nodes(hyps: list[list[str]]) -> int:
    """Distinct prefixes of the scored target sequences (words + eos)."""
    nodes = set()
    for hyp in hyps:
        seq = tuple(hyp) + (EOS,)
        nodes.update(seq[:i] for i in range(1, len(seq) + 1))
    return len(nodes)


def scoring_data(out: Path, rng, shape: dict, seed: int) -> dict:
    """Mid-shape checkpoint + vocab, held-out text, N-best and references."""
    n_types = shape["vocab"] - 3
    corpus = covering_corpus(rng, n_types, 20 * shape["vocab"])
    vocab = build_vocab(corpus, shape["vocab"])
    if vocab.size != shape["vocab"]:
        raise AssertionError(f"corpus reached {vocab.size} types, wanted {shape['vocab']}")
    model_dir = out / "model"
    model_dir.mkdir()
    vocab.save(model_dir / "vocab.txt")
    save_checkpoint(build_model(model_config(shape), seed), model_dir / "model.dlm")
    # Held-out text and N-best words follow the corpus unigram, all in vocabulary.
    names = np.array(vocab.words[3:])
    probs = np.asarray(vocab.counts[3:], dtype=np.float64)
    probs /= probs.sum()
    eval_tokens = EVAL_WINDOW * shape["eval_windows"] + 1
    write_lines(out / "test.txt", sampled_lines(rng, names, probs, eval_tokens))
    refs, rows = nbest_lists(rng, names, probs, shape)
    write_lines(out / "nbest.tsv",
                [f"{u}\t{r}\t{a!r}\t{f!r}\t{' '.join(w)}" for u, r, a, f, w in rows])
    write_lines(out / "refs.tsv", [f"{u}\t{' '.join(w)}" for u, w in refs.items()])
    by_utt: dict[str, list[list[str]]] = {}
    for u, _, _, _, w in rows:
        by_utt.setdefault(u, []).append(w)
    tokens = sum(len(w) + 1 for *_, w in rows)
    nodes = sum(prefix_trie_nodes(h) for h in by_utt.values())
    return {"vocab": vocab.size, "eval_stream_tokens": eval_tokens,
            "utterances": len(refs), "hypotheses": len(rows),
            "hypothesis_tokens": tokens, "trie_nodes": nodes,
            "shared_prefix_share": round(1 - nodes / tokens, 4),
            "grid_points": len(shape["sweep_lm_weight"]) * len(shape["sweep_wip"]),
            "corpus_unigram": unigram_properties(corpus)}


def build(workload: str, shape: dict, seed: int, out: Path) -> tuple[list[list[str]], dict]:
    """Write one workload's inputs under out; return (command argvs, input properties)."""
    rng = np.random.default_rng([seed, sum(map(ord, workload))])
    model_seed = int(rng.integers(1, 2 ** 31))
    if workload == "score-v2k":
        props = scoring_data(out, rng, shape, model_seed)
        model = str(out / "model" / "model.dlm")
        return [["eval-ppl", "--model", model, "--data", str(out / "test.txt")],
                ["rescore", "--model", model, "--nbest", str(out / "nbest.tsv"),
                 "--refs", str(out / "refs.tsv"),
                 "--sweep-lm-weight", ",".join(map(str, shape["sweep_lm_weight"])),
                 "--sweep-wip", ",".join(map(str, shape["sweep_wip"]))]], props

    props = training_data(out, rng, shape)
    argv = ["--data-dir", str(out / "data"), "--config", str(out / "run.cfg")]
    if workload == "teacher-lstm":
        write_config(out / "run.cfg", config_values(shape, model_seed, **shape["regularizers"],
                                                    lr=2.0, loss_variant="ce_only"))
        return [["train-teacher", *argv]], props

    teachers = []
    for i in range(shape["teachers"]):
        path = out / f"teacher{i}.dlm"
        save_checkpoint(build_model(model_config(shape), model_seed + 1 + i), path)
        teachers.append(str(path))
    write_config(out / "run.cfg", config_values(shape, model_seed,
                                                loss_variant="trust_reg", alpha=0.1))
    props["teachers"] = len(teachers)
    return [["train-student", *argv, "--teacher", ",".join(teachers)]], props

