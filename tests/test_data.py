"""Vocabulary construction, encoding, and BPTT batching."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lmdistill.data import (EOS, RNN_UNK, UNK, BpttBatch, TokenStream,
                            Vocabulary, bptt_batches, build_vocab, encode)
from lmdistill.errors import ConfigError, DataError, FormatError


def test_build_vocab_hand_case():
    vocab = build_vocab(["a a b"], cap=10)
    assert vocab.words == [EOS, UNK, RNN_UNK, "a", "b"]
    # one line -> one eos; a seen twice, b once; no drops, no rare words
    assert vocab.counts == [1, 0, 0, 2, 1]
    assert vocab.lookup("a") == 3
    assert vocab.lookup("b") == 4
    assert vocab.size == 5


def test_specials_have_fixed_ids():
    vocab = build_vocab(["x"], cap=10)
    assert vocab.eos_id == 0
    assert vocab.unk_id == 1
    assert vocab.rnn_unk_id == 2
    assert vocab.lookup(EOS) == 0
    assert vocab.lookup(UNK) == 1
    assert vocab.lookup(RNN_UNK) == 2


def test_frequency_ranking_with_lexicographic_ties():
    vocab = build_vocab(["b a", "b c a"], cap=10)
    # b:2 a:2 c:1 -> ties at 2 break alphabetically: a before b
    assert vocab.words[3:] == ["a", "b", "c"]


def test_cap_includes_specials():
    # ten words w0..w9 with counts 10..1; cap 7 keeps 7-3=4 words
    lines = []
    for i in range(10):
        lines.extend([f"w{i}"] * (10 - i))
    vocab = build_vocab(lines, cap=7)
    assert vocab.size == 7
    assert vocab.words[3:] == ["w0", "w1", "w2", "w3"]
    # dropped w4..w9 fold into unk: 6+5+4+3+2+1 = 21
    assert vocab.counts[1] == 21
    assert vocab.lookup("w5") == vocab.unk_id


def test_cap_smaller_than_specials_rejected():
    with pytest.raises(ConfigError):
        build_vocab(["a"], cap=3)


def test_empty_corpus_rejected():
    with pytest.raises(DataError):
        build_vocab([], cap=10)


def test_rare_words_map_to_rnn_unk():
    lines = ["common common common common", "rare1", "rare2 rare2"]
    vocab = build_vocab(lines, cap=10, rnn_unk_min_count=3)
    # rare1 (1) and rare2 (2) fall below min count 3 but stay within the cap
    assert "common" in vocab.words
    assert "rare1" not in vocab.words
    assert "rare2" not in vocab.words
    assert vocab.lookup("rare1") == vocab.rnn_unk_id
    assert vocab.lookup("rare2") == vocab.rnn_unk_id
    assert vocab.lookup("common") == 3
    # rnn_unk count folds the remapped occurrences: 1 + 2
    assert vocab.counts[2] == 3
    # a word never seen at all is a plain unk, not rnn_unk
    assert vocab.lookup("never-seen") == vocab.unk_id


def test_special_strings_in_corpus_fold_into_special_counts():
    vocab = build_vocab([f"x {UNK} y", f"{EOS} x {RNN_UNK}"], cap=10)
    assert vocab.words[3:] == ["x", "y"]  # specials never ranked as words
    assert vocab.counts[0] == 2 + 1  # two lines + one literal eos
    assert vocab.counts[1] == 1
    assert vocab.counts[2] == 1


def test_encode_appends_eos_per_line():
    vocab = build_vocab(["a b", "c"], cap=10)
    stream = encode(["a b", "c"], vocab)
    a, b, c = vocab.lookup("a"), vocab.lookup("b"), vocab.lookup("c")
    assert np.array_equal(stream.ids, [a, b, 0, c, 0])


def test_encode_decode_round_trip():
    lines = ["the cat sat", "on the mat", "the end"]
    vocab = build_vocab(lines, cap=20)
    decoded = " ".join(vocab.words[i] for i in encode(lines, vocab).ids)
    assert decoded == " <eos> ".join(lines) + " <eos>"


def test_encode_maps_oov_to_unk():
    vocab = build_vocab(["a b c"], cap=4)  # only the top word fits
    assert vocab.size == 4
    stream = encode(["a b z"], vocab)
    assert np.array_equal(stream.ids, [3, 1, 1, 0])


def test_vocabulary_requires_specials_first():
    with pytest.raises(FormatError):
        Vocabulary(["a", "b", "c", "d"], [1, 1, 1, 1])
    with pytest.raises(FormatError):
        Vocabulary([EOS, UNK, RNN_UNK, "a", "a"], [1, 1, 1, 1, 1])
    with pytest.raises(FormatError):
        Vocabulary([EOS, UNK, RNN_UNK, "a"], [1, 1, 1])


def test_vocabulary_save_load_round_trip(tmp_path):
    vocab = build_vocab(["a a b", "c b a"], cap=10, rnn_unk_min_count=0)
    path = tmp_path / "vocab.txt"
    vocab.save(path)
    # no rare words: the file is the two-column word/count listing, nothing else
    assert path.read_text(encoding="utf-8") == "".join(
        f"{w}\t{c}\n" for w, c in zip(vocab.words, vocab.counts))
    loaded = Vocabulary.load(path)
    assert loaded.words == vocab.words
    assert loaded.counts == vocab.counts

    # rare words have no id but must still map to rnn_unk after a round trip
    rare = build_vocab(["a a a b b b", "c d c"], cap=10, rnn_unk_min_count=2)
    assert rare.rare == {"d"}
    rare.save(path)
    loaded = Vocabulary.load(path)
    assert loaded.words == rare.words
    assert loaded.counts == rare.counts
    assert loaded.rare == rare.rare
    for w in ("a", "b", "c", "d", "never-seen"):
        assert loaded.lookup(w) == rare.lookup(w), w
    assert loaded.lookup("d") == loaded.rnn_unk_id


def test_vocabulary_load_errors(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text(f"{EOS}\t1\n{UNK}\t0\n{RNN_UNK}\t0\nword\tnot-a-number\n",
                   encoding="utf-8")
    with pytest.raises(FormatError, match="bad.txt:4"):
        Vocabulary.load(bad)
    nofield = tmp_path / "nofield.txt"
    nofield.write_text("just-a-word\n", encoding="utf-8")
    with pytest.raises(FormatError, match="nofield.txt:1"):
        Vocabulary.load(nofield)
    empty = tmp_path / "empty.txt"
    empty.write_text("", encoding="utf-8")
    with pytest.raises(FormatError):
        Vocabulary.load(empty)


def test_word_id_round_trip_and_range():
    vocab = build_vocab(["a b"], cap=10)
    for i, w in enumerate(vocab.words):
        assert vocab.lookup(w) == i


# ---------------------------------------------------------------------------
# BPTT batching


def test_bptt_hand_case():
    stream = TokenStream(np.arange(13))
    batches = bptt_batches(stream, batch_size=2, bptt_len=3)
    # lane_len = 6 -> lanes [0..5], [6..11]; (6-1)//3 = 1 window
    assert len(batches) == 1
    assert np.array_equal(batches[0].inputs, [[0, 1, 2], [6, 7, 8]])
    assert np.array_equal(batches[0].targets, [[1, 2, 3], [7, 8, 9]])


def test_bptt_lanes_continue_across_batches():
    stream = TokenStream(np.arange(21))
    batches = bptt_batches(stream, batch_size=2, bptt_len=3)
    # lane_len = 10 -> 3 windows per lane
    assert len(batches) == 3
    assert np.array_equal(batches[1].inputs, [[3, 4, 5], [13, 14, 15]])
    assert np.array_equal(batches[2].inputs, [[6, 7, 8], [16, 17, 18]])
    # target of the last step of one batch is the first input of the next
    assert np.array_equal(batches[0].targets[:, -1], batches[1].inputs[:, 0])


def test_bptt_targets_shift_inputs_by_one():
    stream = TokenStream(np.arange(50))
    for batch in bptt_batches(stream, batch_size=3, bptt_len=4):
        assert np.array_equal(batch.targets, batch.inputs + 1)


def test_bptt_too_short_errors():
    with pytest.raises(DataError):
        bptt_batches(TokenStream(np.arange(2)), batch_size=2, bptt_len=1)
    with pytest.raises(DataError):
        bptt_batches(TokenStream(np.arange(6)), batch_size=2, bptt_len=5)
    with pytest.raises(ConfigError):
        bptt_batches(TokenStream(np.arange(10)), batch_size=0, bptt_len=1)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(8, 300), batch=st.integers(1, 4), bptt=st.integers(1, 9))
def test_bptt_windows_tile_each_lane(n, batch, bptt):
    stream = TokenStream(np.arange(n))
    lane_len = n // batch
    if lane_len < 2 or (lane_len - 1) // bptt == 0:
        with pytest.raises(DataError):
            bptt_batches(stream, batch, bptt)
        return
    batches = bptt_batches(stream, batch, bptt)
    assert len(batches) == (lane_len - 1) // bptt
    for b in range(batch):
        lane_inputs = np.concatenate([bt.inputs[b] for bt in batches])
        lane_targets = np.concatenate([bt.targets[b] for bt in batches])
        start = b * lane_len
        assert np.array_equal(lane_inputs,
                              np.arange(start, start + len(lane_inputs)))
        assert np.array_equal(lane_targets, lane_inputs + 1)
        # windows stay inside the lane: last target id < lane end
        assert lane_targets[-1] < start + lane_len


def test_token_stream_must_be_one_dimensional():
    with pytest.raises(DataError):
        TokenStream(np.zeros((2, 2), dtype=np.int64))
