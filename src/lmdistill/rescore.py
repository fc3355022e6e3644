"""N-best list rescoring and word-error-rate scoring.

N-best files are TSV: utt_id, rank, acoustic_score, firstpass_lm_score, then
the hypothesis words in one space-separated field (possibly empty). Each
hypothesis is scored from a zero LM state: inputs are [eos, w1..wn] and
targets [w1..wn, eos], so an n-word hypothesis contributes n+1 log-prob terms.
An utterance's hypotheses are scored together as one prefix trie over their
inputs, one model_forward per trie depth, so a prefix they share is run once,
then one target-only head call per utterance over the whole trie.
A word the vocabulary can only map to unk (an OOV word) is fed and scored as rnn_unk.
LM scores do not depend on lm_weight or wip, so a sweep scores each utterance
once and combines at every grid point. The combined score is acoustic +
lm_weight * lm_logprob + wip * word_count; the first-pass LM column is carried
through but takes no part in combination.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import UNK, Vocabulary
from .errors import ConfigError, DataError, FormatError, require_finite
from .model import LmModel, LmState, MosRows, model_forward

__all__ = ["NbestEntry", "RescoreConfig", "parse_nbest", "score_utterance",
           "combine_and_select", "rescore_nbest", "WerReport", "wer",
           "edit_ops", "parse_refs"]


@dataclass
class NbestEntry:
    utt_id: str
    rank: int
    acoustic_score: float
    firstpass_lm_score: float
    words: list[str]


@dataclass
class RescoreConfig:
    lm_weight: float = 1.0
    word_insertion_penalty: float = 0.0

    def __post_init__(self):
        require_finite(self, "lm_weight", "word_insertion_penalty")
        if self.lm_weight < 0:
            raise ConfigError(f"lm_weight must be >= 0, got {self.lm_weight}")


def parse_nbest(lines, source: str = "<nbest>") -> dict[str, list[NbestEntry]]:
    """Parse N-best TSV lines into {utt_id: entries ordered by rank}."""
    by_utt: dict[str, list[NbestEntry]] = {}
    seen: set[tuple[str, int]] = set()
    for lineno, line in enumerate(lines, 1):
        line = line.rstrip("\n")
        if not line:
            continue
        parts = line.split("\t")
        if len(parts) not in (4, 5):
            raise FormatError(f"{source}:{lineno}: expected 4 or 5 tab-separated "
                              f"fields, got {len(parts)}")
        utt = parts[0]
        try:
            rank = int(parts[1])
        except ValueError:
            raise FormatError(f"{source}:{lineno}: bad rank {parts[1]!r}") from None
        try:
            acoustic = float(parts[2])
            firstpass = float(parts[3])
        except ValueError:
            raise FormatError(f"{source}:{lineno}: bad score field") from None
        if not (math.isfinite(acoustic) and math.isfinite(firstpass)):
            raise FormatError(f"{source}:{lineno}: bad score field: not a finite number")
        if (utt, rank) in seen:
            raise FormatError(f"{source}:{lineno}: duplicate rank {rank} for "
                              f"utterance {utt!r}")
        seen.add((utt, rank))
        words = parts[4].split() if len(parts) == 5 else []
        by_utt.setdefault(utt, []).append(
            NbestEntry(utt, rank, acoustic, firstpass, words))
    if not by_utt:
        raise FormatError(f"{source}: no hypotheses found")
    for entries in by_utt.values():
        entries.sort(key=lambda e: e.rank)
    return by_utt


def parse_refs(lines, source: str = "<refs>") -> dict[str, list[str]]:
    """Parse reference transcripts: utt_id<TAB>words per line."""
    refs: dict[str, list[str]] = {}
    for lineno, line in enumerate(lines, 1):
        line = line.rstrip("\n")
        if not line:
            continue
        parts = line.split("\t")
        if len(parts) not in (1, 2):
            raise FormatError(f"{source}:{lineno}: expected utt_id<TAB>words")
        if parts[0] in refs:
            raise FormatError(f"{source}:{lineno}: duplicate utterance {parts[0]!r}")
        refs[parts[0]] = parts[1].split() if len(parts) == 2 else []
    if not refs:
        raise FormatError(f"{source}: no references found")
    return refs


def score_utterance(model: LmModel, vocab: Vocabulary,
                    hypotheses: list[list[str]]) -> list[float]:
    """Total natural-log probability of each hypothesis's words + eos from a zero state.

    The hypotheses' inputs form a prefix trie, walked depth by depth: one eval
    model_forward per depth runs every node at that depth from its parent's
    (h, c), so a shared prefix is run once; one head call over every node then
    reads only the targets' log-probs (MosRows.picked).
    OOV words (those the vocabulary can only map to unk) are fed and scored as rnn_unk.
    """
    targets = []
    for words in hypotheses:
        found = [vocab.lookup(w) for w in words]
        targets.append([vocab.rnn_unk_id if i == vocab.unk_id and w != UNK else i
                        for i, w in zip(found, words)] + [vocab.eos_id])
    if not targets:
        return []
    node = [0] * len(targets)  # each hypothesis's row among the current depth's nodes
    inputs, parents, state = [vocab.eos_id], [0], model.init_state(1)
    hidden, base, at = [], 0, [[] for _ in targets]  # at: each hypothesis's row per depth
    for depth in range(max(map(len, targets))):
        state = LmState([(h[parents], c[parents]) for h, c in state.layers])
        out = model_forward(model, np.asarray(inputs)[:, None], state)
        hidden.append(out.log_probs.hidden)
        children: dict[tuple[int, int], int] = {}  # (parent row, input id) -> row
        for i, t in enumerate(targets):
            if depth < len(t):
                at[i].append(base + node[i])
            if depth + 1 < len(t):
                node[i] = children.setdefault((node[i], t[depth]), len(children))
        base += len(inputs)
        parents, inputs, state = [p for p, _ in children], [w for _, w in children], out.state
    picked = MosRows(model, np.concatenate(hidden)).picked(np.hstack(at), np.hstack(targets))
    logp = np.split(picked, np.cumsum([len(t) for t in targets[:-1]]))
    return [float(lp.sum()) for lp in logp]


def combine_and_select(entries: list[NbestEntry], lm_scores: list[float],
                       cfg: RescoreConfig) -> NbestEntry:
    """Pick the entry maximizing acoustic + lm_weight*lm + wip*len(words).

    Ties go to the lowest first-pass rank, as does the pick when no total beats -inf
    (every one -inf or NaN).
    """
    if not entries:
        raise DataError("empty hypothesis list")
    if len(entries) != len(lm_scores):
        raise DataError(f"{len(entries)} hypotheses but {len(lm_scores)} LM scores")
    ranked = sorted(zip(entries, lm_scores), key=lambda p: p[0].rank)
    best, best_total = ranked[0][0], -np.inf
    for entry, lm in ranked:
        total = (entry.acoustic_score + cfg.lm_weight * lm
                 + cfg.word_insertion_penalty * len(entry.words))
        if total > best_total:
            best, best_total = entry, total
    return best


def rescore_nbest(model: LmModel, vocab: Vocabulary,
                  nbest: dict[str, list[NbestEntry]],
                  cfg: RescoreConfig,
                  lm_scores: dict[str, list[float]] | None = None) -> dict[str, NbestEntry]:
    """Select per utterance, scoring each utterance absent from lm_scores once.

    lm_scores maps utt_id to its LM scores in entry order, and is filled in
    place: a sweep over lm_weight and wip passes one dict to every call. Its
    scores hold only for the same model, vocabulary and N-best.
    """
    if model.config.vocab_size != vocab.size:
        raise ConfigError(f"model was built for {model.config.vocab_size} words "
                          f"but the vocabulary has {vocab.size}")
    lm_scores = {} if lm_scores is None else lm_scores
    out = {}
    for utt, entries in nbest.items():
        if utt not in lm_scores:
            lm_scores[utt] = score_utterance(model, vocab, [e.words for e in entries])
        out[utt] = combine_and_select(entries, lm_scores[utt], cfg)
    return out


# ---------------------------------------------------------------------------
# word error rate


@dataclass
class WerReport:
    substitutions: int
    insertions: int
    deletions: int
    ref_words: int

    @property
    def errors(self) -> int:
        return self.substitutions + self.insertions + self.deletions

    @property
    def wer_percent(self) -> float:
        # An empty reference with errors is reported against a denominator of 1
        # (the percentage is then just the raw error count times 100).
        return 100.0 * self.errors / max(self.ref_words, 1)

    def line(self) -> str:
        return (f"WER={self.wer_percent:.2f}% S={self.substitutions} "
                f"I={self.insertions} D={self.deletions} N={self.ref_words}")


def edit_ops(ref: list[str], hyp: list[str]) -> tuple[int, int, int]:
    """(substitutions, insertions, deletions) of one minimal edit alignment."""
    nr, nh = len(ref), len(hyp)
    # cost[i][j]: edit distance between ref[:i] and hyp[:j], in Python ints
    cost = [list(range(nh + 1))] + [[i] + [0] * nh for i in range(1, nr + 1)]
    for i in range(1, nr + 1):
        up, row, word = cost[i - 1], cost[i], ref[i - 1]
        for j in range(1, nh + 1):
            row[j] = min(up[j - 1] + (word != hyp[j - 1]),
                         up[j] + 1,        # delete ref word
                         row[j - 1] + 1)   # insert hyp word
    subs = ins = dels = 0
    i, j = nr, nh
    while i > 0 or j > 0:
        if i > 0 and j > 0 and cost[i][j] == cost[i - 1][j - 1] and ref[i - 1] == hyp[j - 1]:
            i, j = i - 1, j - 1
        elif i > 0 and j > 0 and cost[i][j] == cost[i - 1][j - 1] + 1:
            subs += 1
            i, j = i - 1, j - 1
        elif i > 0 and cost[i][j] == cost[i - 1][j] + 1:
            dels += 1
            i -= 1
        else:
            ins += 1
            j -= 1
    return subs, ins, dels


def wer(refs: dict[str, list[str]], hyps: dict[str, list[str]]) -> WerReport:
    """Aggregate WER of hypotheses against references, matched by utterance id."""
    s = i = d = n = 0
    for utt in sorted(hyps):
        if utt not in refs:
            raise DataError(f"hypothesis for unknown utterance {utt!r}")
        ds, di, dd = edit_ops(refs[utt], hyps[utt])
        s += ds
        i += di
        d += dd
        n += len(refs[utt])
    return WerReport(s, i, d, n)
