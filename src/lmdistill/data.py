"""Corpus handling: vocabulary construction, encoding, and BPTT batching.

Tokenization is whitespace splitting; each line gets an eos appended. The
vocabulary holds at most `cap` entries *including* the three specials. Words
ranked below the cap map to unk; retained words rarer than rnn_unk_min_count
map to rnn_unk at encode time (two-tier mapping: unk is the cap-level token,
rnn_unk the LM-level one).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DataError, FormatError

__all__ = ["EOS", "UNK", "RNN_UNK", "Vocabulary", "build_vocab", "encode",
           "TokenStream", "BpttBatch", "bptt_batches"]

EOS = "<eos>"
UNK = "<unk>"
RNN_UNK = "<rnn_unk>"
_SPECIALS = (EOS, UNK, RNN_UNK)


@dataclass
class Vocabulary:
    words: list[str]  # id -> word, dense, specials first
    counts: list[int]  # id -> training-corpus frequency
    rare: set[str] = field(default_factory=set)  # listed-rank words remapped to rnn_unk

    def __post_init__(self):
        if self.words[:3] != list(_SPECIALS):
            raise FormatError(f"vocabulary must start with {_SPECIALS}")
        if len(self.words) != len(set(self.words)):
            raise FormatError("vocabulary has duplicate words")
        if len(self.counts) != len(self.words):
            raise FormatError("vocabulary words/counts length mismatch")
        self._ids = {w: i for i, w in enumerate(self.words)}

    @property
    def size(self) -> int:
        return len(self.words)

    @property
    def eos_id(self) -> int:
        return 0

    @property
    def unk_id(self) -> int:
        return 1

    @property
    def rnn_unk_id(self) -> int:
        return 2

    def lookup(self, word: str) -> int:
        got = self._ids.get(word)
        if got is not None:
            return got
        if word in self.rare:
            return self.rnn_unk_id
        return self.unk_id

    def save(self, path) -> None:
        """One word<TAB>count line per id, then word<TAB><rnn_unk> per rare word."""
        with open(path, "w", encoding="utf-8") as f:
            for w, c in zip(self.words, self.counts):
                f.write(f"{w}\t{c}\n")
            for w in sorted(self.rare):
                f.write(f"{w}\t{RNN_UNK}\n")

    @classmethod
    def load(cls, path) -> "Vocabulary":
        words, counts, rare = [], [], set()
        with open(path, encoding="utf-8") as f:
            for lineno, line in enumerate(f, 1):
                line = line.rstrip("\n")
                if not line:
                    continue
                parts = line.split("\t")
                if len(parts) != 2:
                    raise FormatError(f"{path}:{lineno}: expected word<TAB>count")
                try:
                    counts.append(int(parts[1]))
                except ValueError:
                    if parts[1] != RNN_UNK:
                        raise FormatError(f"{path}:{lineno}: bad count {parts[1]!r}") from None
                    rare.add(parts[0])  # a rare word: maps to rnn_unk, has no id
                    continue
                words.append(parts[0])
        if not words:
            raise FormatError(f"{path}: empty vocabulary file")
        return cls(words, counts, rare)


def build_vocab(lines: list[str], cap: int, rnn_unk_min_count: int = 0) -> Vocabulary:
    """Frequency-ranked vocabulary, ties broken lexicographically.

    cap counts the total entries including eos/unk/rnn_unk. Corpus occurrences
    of the special strings themselves are folded into the specials' counts.
    """
    if cap < 4:
        raise ConfigError(f"vocab cap must be >= 4 to fit the specials, got {cap}")
    if rnn_unk_min_count < 0:
        raise ConfigError(f"rnn_unk_min_count must be >= 0, got {rnn_unk_min_count}")
    lines = list(lines)
    if not lines:
        raise DataError("empty corpus: no lines to build a vocabulary from")
    counts: Counter[str] = Counter()
    n_lines = 0
    special_hits = Counter()
    for line in lines:
        n_lines += 1
        for tok in line.split():
            if tok in _SPECIALS:
                special_hits[tok] += 1
            else:
                counts[tok] += 1
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    kept = ranked[: cap - len(_SPECIALS)]
    dropped = ranked[cap - len(_SPECIALS):]
    rare = {w for w, c in kept if c < rnn_unk_min_count} if rnn_unk_min_count > 0 else set()

    words = list(_SPECIALS) + [w for w, _ in kept if w not in rare]
    eos_count = n_lines + special_hits[EOS]
    unk_count = sum(c for _, c in dropped) + special_hits[UNK]
    rnn_unk_count = sum(c for w, c in kept if w in rare) + special_hits[RNN_UNK]
    count_of = dict(kept)
    vocab_counts = [eos_count, unk_count, rnn_unk_count] + \
        [count_of[w] for w in words[3:]]
    return Vocabulary(words, vocab_counts, rare)


@dataclass
class TokenStream:
    ids: np.ndarray  # int64, 1-d

    def __post_init__(self):
        self.ids = np.asarray(self.ids, dtype=np.int64)
        if self.ids.ndim != 1:
            raise DataError(f"token stream must be 1-d, got shape {self.ids.shape}")

    def __len__(self) -> int:
        return int(self.ids.shape[0])


def encode(lines: list[str], vocab: Vocabulary) -> TokenStream:
    """Whitespace-tokenize lines into one id stream, eos after each line."""
    ids: list[int] = []
    for line in lines:
        for tok in line.split():
            ids.append(vocab.lookup(tok))
        ids.append(vocab.eos_id)
    if not ids:
        raise DataError("empty corpus: nothing to encode")
    return TokenStream(np.asarray(ids, dtype=np.int64))


@dataclass
class BpttBatch:
    inputs: np.ndarray  # [batch x T] int64
    targets: np.ndarray  # [batch x T] int64, targets[b, t] follows inputs[b, t]


def bptt_batches(stream: TokenStream, batch_size: int, bptt_len: int) -> list[BpttBatch]:
    """Split a stream into batch_size contiguous lanes and cut bptt_len windows.

    Lane b is the b-th contiguous chunk of the stream; consecutive batches
    continue each lane where the previous batch stopped, so carried state stays
    meaningful. The trailing remainder that fills no complete window is dropped.
    """
    if batch_size < 1 or bptt_len < 1:
        raise ConfigError(f"batch_size and bptt_len must be >= 1, "
                          f"got {batch_size}, {bptt_len}")
    n = len(stream)
    if n <= batch_size:
        raise DataError(f"stream of {n} tokens too short for {batch_size} lanes")
    lane_len = n // batch_size
    lanes = stream.ids[: lane_len * batch_size].reshape(batch_size, lane_len)
    num_batches = (lane_len - 1) // bptt_len
    if num_batches == 0:
        raise DataError(
            f"stream too short: lanes of {lane_len} tokens cannot fill one "
            f"window of {bptt_len}")
    out = []
    for k in range(num_batches):
        lo = k * bptt_len
        out.append(BpttBatch(inputs=lanes[:, lo:lo + bptt_len].copy(),
                             targets=lanes[:, lo + 1:lo + bptt_len + 1].copy()))
    return out
