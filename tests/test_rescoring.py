"""N-best parsing, hypothesis scoring, selection, and WER."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lmdistill.rescore as rescore_module
from lmdistill.checkpoint import save_checkpoint
from lmdistill.cli import dispatch
from lmdistill.data import EOS, UNK, Vocabulary, build_vocab
from lmdistill.errors import ConfigError, DataError, FormatError
from lmdistill.model import ModelConfig, build_model, model_forward
from lmdistill.rescore import (NbestEntry, RescoreConfig, WerReport,
                               combine_and_select, edit_ops, parse_nbest,
                               parse_refs, rescore_nbest, score_utterance, wer)
from oracles import oracle_hypothesis_score


def make_vocab():
    return build_vocab(["alpha beta gamma delta", "alpha beta"], cap=10)


def uniform_model(vocab_size):
    model = build_model(ModelConfig(vocab_size=vocab_size, embed_dim=6,
                                    lstm_layers=1, hidden_dim=8,
                                    bottleneck_dim=6, num_experts=2), 0)
    for p in model.params.values():
        p[:] = 0.0
    return model


def random_model(vocab_size, seed=11):
    return build_model(ModelConfig(vocab_size=vocab_size, embed_dim=6,
                                   lstm_layers=1, hidden_dim=8,
                                   bottleneck_dim=6, num_experts=2), seed)


# ---------------------------------------------------------------------------
# parsing


def test_parse_nbest_sorts_by_rank():
    lines = [
        "utt1\t2\t-12.0\t-3.0\tb c",
        "utt2\t1\t-9.0\t-2.0\tx",
        "utt1\t1\t-10.5\t-2.5\ta b",
        "utt1\t3\t-11.0\t-2.0",  # 4 fields: empty hypothesis
    ]
    nbest = parse_nbest(lines)
    assert sorted(nbest) == ["utt1", "utt2"]
    assert [e.rank for e in nbest["utt1"]] == [1, 2, 3]
    assert nbest["utt1"][0].words == ["a", "b"]
    assert nbest["utt1"][0].acoustic_score == -10.5
    assert nbest["utt1"][0].firstpass_lm_score == -2.5
    assert nbest["utt1"][2].words == []
    assert nbest["utt2"][0].words == ["x"]


def test_parse_nbest_skips_blank_lines():
    nbest = parse_nbest(["", "u\t1\t-1.0\t-1.0\ta", "\n"])
    assert nbest["u"][0].words == ["a"]


def test_parse_nbest_field_count_error():
    with pytest.raises(FormatError, match=r"nb:2: expected 4 or 5"):
        parse_nbest(["u\t1\t-1.0\t-1.0\ta", "u\t2\t-1.0"], source="nb")


def test_parse_nbest_bad_rank():
    with pytest.raises(FormatError, match=r"nb:1: bad rank 'one'"):
        parse_nbest(["u\tone\t-1.0\t-1.0\ta"], source="nb")


def test_parse_nbest_bad_score():
    with pytest.raises(FormatError, match=r"nb:1: bad score"):
        parse_nbest(["u\t1\tacoustic\t-1.0\ta"], source="nb")
    with pytest.raises(FormatError, match=r"nb:1: bad score"):
        parse_nbest(["u\t1\t-1.0\tlm\ta"], source="nb")
    # an utterance scored all nan would leave combine_and_select nothing to pick
    for score in ("nan", "inf", "-inf"):
        with pytest.raises(FormatError, match=r"nb:2: bad score field: not a finite"):
            parse_nbest(["u\t1\t-1.0\t-1.0\ta", f"u\t2\t{score}\t-1.0\tb"], source="nb")
        with pytest.raises(FormatError, match=r"nb:1: bad score field: not a finite"):
            parse_nbest([f"u\t1\t-1.0\t{score}\ta"], source="nb")


def test_parse_nbest_duplicate_rank():
    lines = ["u\t1\t-1.0\t-1.0\ta", "u\t1\t-2.0\t-1.0\tb"]
    with pytest.raises(FormatError, match=r"nb:2: duplicate rank 1"):
        parse_nbest(lines, source="nb")


def test_parse_nbest_empty_input():
    with pytest.raises(FormatError, match="no hypotheses"):
        parse_nbest([], source="nb")
    with pytest.raises(FormatError, match="no hypotheses"):
        parse_nbest(["", ""], source="nb")


def test_parse_refs_hand_case():
    refs = parse_refs(["u1\ta b c", "u2\tx", "u3"])
    assert refs == {"u1": ["a", "b", "c"], "u2": ["x"], "u3": []}


def test_parse_refs_errors():
    with pytest.raises(FormatError, match=r"r:2: duplicate"):
        parse_refs(["u\ta", "u\tb"], source="r")
    with pytest.raises(FormatError, match="no references"):
        parse_refs([], source="r")
    with pytest.raises(FormatError, match=r"r:1: expected"):
        parse_refs(["u\ta\tb"], source="r")


# ---------------------------------------------------------------------------
# hypothesis scoring


def score(model, vocab, words):
    """One hypothesis through the trie scorer."""
    return score_utterance(model, vocab, [words])[0]


def test_uniform_model_scores_count_log_vocab():
    vocab = make_vocab()
    model = uniform_model(vocab.size)
    # n in-vocab words + eos, each -ln V under a zeroed model
    hyps = [[], ["alpha"], ["alpha", "beta", "gamma"]]
    for words, got in zip(hyps, score_utterance(model, vocab, hyps)):
        assert got == pytest.approx(-(len(words) + 1) * math.log(vocab.size), rel=1e-12)


def test_oov_word_is_scored_on_uniform_model():
    vocab = make_vocab()
    model = uniform_model(vocab.size)
    words = ["alpha", "zzz", "beta"]  # zzz is OOV: scored as rnn_unk, like any word
    assert score(model, vocab, words) == pytest.approx(-4 * math.log(vocab.size), rel=1e-12)


def test_literal_unk_token_is_not_oov():
    vocab = make_vocab()
    model = random_model(vocab.size)
    # the unk word itself maps to unk_id by definition: fed and scored as unk, not rnn_unk
    out = model_forward(model, np.asarray([[vocab.eos_id, vocab.unk_id]]), model.init_state(1))
    want = out.log_probs.data[[0, 1], [vocab.unk_id, vocab.eos_id]].sum()
    assert score(model, vocab, [UNK]) == pytest.approx(want, rel=1e-12)
    assert score(model, vocab, [UNK]) != score(model, vocab, ["zzz"])


def test_trie_scores_match_manual_forward():
    vocab = make_vocab()
    model = random_model(vocab.size)
    words = ["alpha", "zzz", "beta"]
    ids = [vocab.lookup("alpha"), vocab.rnn_unk_id, vocab.lookup("beta")]
    inputs = np.asarray([[vocab.eos_id] + ids])
    targets = np.asarray(ids + [vocab.eos_id])
    out = model_forward(model, inputs, model.init_state(1))
    logp = out.log_probs.data[np.arange(4), targets]
    # one forward per depth rounds differently from one forward over all steps
    assert score(model, vocab, words) == pytest.approx(logp.sum(), rel=1e-12)


def test_empty_hypothesis_scores_eos_only():
    vocab = make_vocab()
    model = random_model(vocab.size)
    # the trie's root is one batch-1 forward of eos; the target-only head rounds
    # differently from the full head's mixture in P space
    out = model_forward(model, np.asarray([[vocab.eos_id]]), model.init_state(1))
    assert score(model, vocab, []) == pytest.approx(out.log_probs.data[0, vocab.eos_id],
                                                    rel=1e-12)


def test_trie_scores_match_per_hypothesis_oracle():
    base = make_vocab()
    vocab = Vocabulary(base.words, base.counts, rare={"rareword"})
    model = random_model(vocab.size)
    lines = [
        "u1\t1\t-1.0\t0.0\talpha beta gamma",
        "u1\t2\t-1.0\t0.0\talpha beta delta",    # shares alpha beta
        "u1\t3\t-1.0\t0.0\talpha beta gamma",    # duplicate of rank 1
        "u1\t4\t-1.0\t0.0",                       # empty hypothesis
        "u1\t5\t-1.0\t0.0\talpha zzz beta",      # OOV: fed as rnn_unk
        "u1\t6\t-1.0\t0.0\talpha rareword beta",  # rare: the same input, not OOV
        "u1\t7\t-1.0\t0.0\talpha zzz",
        "u2\t1\t-1.0\t0.0\tbeta beta alpha gamma delta",
        "u2\t2\t-1.0\t0.0\tgamma",
        "u2\t3\t-1.0\t0.0\tbeta beta",
    ]
    nbest = parse_nbest(lines)
    lm_scores = {}
    rescore_nbest(model, vocab, nbest, RescoreConfig(), lm_scores)
    assert sorted(lm_scores) == ["u1", "u2"]
    for utt, entries in nbest.items():
        assert len(lm_scores[utt]) == len(entries)
        for entry, got in zip(entries, lm_scores[utt]):
            want = oracle_hypothesis_score(model, vocab, entry.words)
            assert got == pytest.approx(want, rel=1e-12), (utt, entry.rank)
    u1 = lm_scores["u1"]
    assert u1[0] == u1[2]
    # the OOV and the rare word share a trie node and a target
    assert u1[4] == u1[5]


def test_sweep_feeds_one_trie_pass(tmp_path, monkeypatch, capsys):
    vocab = make_vocab()
    vocab.save(tmp_path / "vocab.txt")
    save_checkpoint(random_model(vocab.size), tmp_path / "model.dlm")
    hyps = {"u1": ["alpha beta gamma", "alpha beta", "alpha delta", ""],
            "u2": ["beta", "beta gamma"]}
    (tmp_path / "nbest.tsv").write_text("".join(
        f"{u}\t{r}\t-1.0\t0.0\t{h}\n" for u, hs in hyps.items() for r, h in enumerate(hs, 1)))
    (tmp_path / "refs.tsv").write_text("u1\talpha beta\nu2\tbeta\n")
    # each distinct input prefix [eos, w1..wk] of an utterance is one trie node
    nodes = [(u,) + tuple(([EOS] + h.split())[:k])
             for u, hs in hyps.items() for h in hs for k in range(1, len(h.split()) + 2)]
    want = sorted(vocab.lookup(node[-1]) for node in set(nodes))
    fed = []
    forward = rescore_module.model_forward

    def recording(model, tokens, state):
        assert tokens.shape == (state.batch_size, 1)
        fed.extend(tokens.ravel().tolist())
        return forward(model, tokens, state)

    monkeypatch.setattr(rescore_module, "model_forward", recording)
    rc = dispatch(["rescore", "--model", str(tmp_path / "model.dlm"),
                   "--nbest", str(tmp_path / "nbest.tsv"), "--refs", str(tmp_path / "refs.tsv"),
                   "--sweep-lm-weight", "0,1", "--sweep-wip", "0,-0.5"])
    assert rc == 0
    assert len([ln for ln in capsys.readouterr().out.splitlines()
                if ln.startswith("lm_weight=")]) == 4
    assert sorted(fed) == want
    assert len(fed) == 8  # scoring each hypothesis at each point fed 4 x 16 ids


def test_rescore_nbest_checks_vocab_size():
    vocab = make_vocab()
    small = random_model(vocab.size - 1)
    with pytest.raises(ConfigError, match="vocabulary has"):
        rescore_nbest(small, vocab, parse_nbest(["u\t1\t-1.0\t0.0\talpha"]), RescoreConfig())


def test_rescore_config_validation():
    with pytest.raises(ConfigError):
        RescoreConfig(lm_weight=-1.0)
    for name in ("lm_weight", "word_insertion_penalty"):
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ConfigError, match=f"{name} must be a finite number"):
                RescoreConfig(**{name: bad})


# ---------------------------------------------------------------------------
# combination and selection


def _entry(rank, acoustic, words):
    return NbestEntry("u", rank, acoustic, 0.0, words)


def test_lm_weight_flips_winner():
    entries = [_entry(1, -10.0, ["a"]), _entry(2, -11.0, ["b"])]
    # rank 1 wins on acoustics alone; a strong LM preference flips it
    cfg0 = RescoreConfig(lm_weight=0.0)
    assert combine_and_select(entries, [-5.0, -1.0], cfg0).rank == 1
    cfg1 = RescoreConfig(lm_weight=1.0)
    assert combine_and_select(entries, [-5.0, -1.0], cfg1).rank == 2


def test_word_insertion_penalty_shifts_lengths():
    entries = [_entry(1, -10.0, ["a"]), _entry(2, -10.0, ["b", "c", "d"])]
    lms = [-3.0, -3.0]
    assert combine_and_select(entries, lms, RescoreConfig()).rank == 1
    favor_long = RescoreConfig(word_insertion_penalty=1.0)
    assert combine_and_select(entries, lms, favor_long).rank == 2
    punish_long = RescoreConfig(word_insertion_penalty=-1.0)
    assert combine_and_select(entries, lms, punish_long).rank == 1


def test_exact_ties_go_to_lowest_rank():
    # identical totals; rank 1 listed last to prove order independence
    entries = [_entry(3, -7.0, ["x"]), _entry(2, -7.0, ["y"]), _entry(1, -7.0, ["z"])]
    winner = combine_and_select(entries, [-1.0, -1.0, -1.0], RescoreConfig())
    assert winner.rank == 1


def test_no_total_above_minus_inf_goes_to_lowest_rank(tmp_path, capsys):
    # lm_weight 1e308 overflows every total to -inf; a NaN LM score makes a NaN total
    entries = [_entry(2, -1.0, ["y"]), _entry(1, -1.0, ["z"])]
    assert combine_and_select(entries, [-5.0, -4.0], RescoreConfig(lm_weight=1e308)).rank == 1
    assert combine_and_select(entries, [-math.inf, math.nan], RescoreConfig()).rank == 1
    vocab = make_vocab()
    vocab.save(tmp_path / "vocab.txt")
    save_checkpoint(random_model(vocab.size), tmp_path / "model.dlm")
    (tmp_path / "nbest.tsv").write_text("u1\t1\t-1.0\t0.0\talpha\nu1\t2\t-1.0\t0.0\tbeta\n")
    rc = dispatch(["rescore", "--model", str(tmp_path / "model.dlm"),
                   "--nbest", str(tmp_path / "nbest.tsv"), "--set", "lm_weight=1e308"])
    assert rc == 0
    assert capsys.readouterr().out.endswith("u1\talpha\n")


def test_combine_validation():
    with pytest.raises(DataError, match="empty"):
        combine_and_select([], [], RescoreConfig())
    with pytest.raises(DataError, match="LM scores"):
        combine_and_select([_entry(1, 0.0, [])], [], RescoreConfig())


def test_rescore_nbest_uniform_model_prefers_short_hypotheses():
    vocab = make_vocab()
    model = uniform_model(vocab.size)
    lines = [
        "u1\t1\t-5.0\t0.0\talpha beta gamma",
        "u1\t2\t-5.0\t0.0\talpha",
        "u2\t1\t-5.0\t0.0\tbeta delta",
        "u2\t2\t-5.0\t0.0\tbeta delta alpha beta",
    ]
    nbest = parse_nbest(lines)
    # equal acoustics, uniform LM: each word costs ln V, so shorter wins
    picked = rescore_nbest(model, vocab, nbest, RescoreConfig(lm_weight=1.0))
    assert picked["u1"].rank == 2
    assert picked["u2"].rank == 1
    # lm_weight 0 reduces to acoustics, where rank 1 wins its tie
    picked0 = rescore_nbest(model, vocab, nbest, RescoreConfig(lm_weight=0.0))
    assert picked0["u1"].rank == 1
    assert picked0["u2"].rank == 1


# ---------------------------------------------------------------------------
# WER


def test_edit_ops_hand_case():
    assert edit_ops("a b c d".split(), "a x c".split()) == (1, 0, 1)


def test_edit_ops_identities():
    words = "one two three".split()
    assert edit_ops(words, words) == (0, 0, 0)
    assert edit_ops(words, []) == (0, 0, 3)
    assert edit_ops([], words) == (0, 3, 0)
    assert edit_ops([], []) == (0, 0, 0)


def test_wer_report_hand_case():
    report = WerReport(substitutions=1, insertions=0, deletions=1, ref_words=4)
    assert report.errors == 2
    assert report.wer_percent == 50.0
    assert report.line() == "WER=50.00% S=1 I=0 D=1 N=4"


def test_wer_empty_reference_uses_unit_denominator():
    report = wer({"u": []}, {"u": ["ghost"]})
    assert (report.substitutions, report.insertions, report.deletions) == (0, 1, 0)
    assert report.ref_words == 0
    assert report.wer_percent == 100.0
    assert report.line() == "WER=100.00% S=0 I=1 D=0 N=0"


def test_wer_empty_hypothesis_is_all_deletions():
    report = wer({"u": ["a", "b"]}, {"u": []})
    assert report.wer_percent == 100.0
    assert (report.substitutions, report.insertions, report.deletions) == (0, 0, 2)


def test_wer_aggregates_over_utterances():
    refs = {"u1": "a b c d".split(), "u2": "x y".split(), "u3": ["z"]}
    hyps = {"u1": "a x c".split(), "u2": "x y".split(), "u3": ["q", "z"]}
    report = wer(refs, hyps)
    assert report.substitutions == 1
    assert report.deletions == 1
    assert report.insertions == 1
    assert report.ref_words == 7
    assert report.wer_percent == pytest.approx(100.0 * 3 / 7)


def test_wer_unknown_utterance():
    with pytest.raises(DataError, match="unknown utterance"):
        wer({"u1": ["a"]}, {"u2": ["a"]})


def test_wer_ignores_unhypothesized_references():
    report = wer({"u1": ["a"], "u2": ["b"]}, {"u1": ["a"]})
    assert report.errors == 0
    assert report.ref_words == 1


def _levenshtein(ref, hyp):
    """Plain recursive edit distance, structured unlike the DP it checks."""
    if not ref:
        return len(hyp)
    if not hyp:
        return len(ref)
    step = 0 if ref[0] == hyp[0] else 1
    return min(_levenshtein(ref[1:], hyp[1:]) + step,
               _levenshtein(ref[1:], hyp) + 1,
               _levenshtein(ref, hyp[1:]) + 1)


@settings(max_examples=200, deadline=None)
@given(ref=st.lists(st.sampled_from("abc"), max_size=6),
       hyp=st.lists(st.sampled_from("abc"), max_size=6))
def test_edit_ops_against_recursive_distance(ref, hyp):
    s, i, d = edit_ops(ref, hyp)
    assert s >= 0 and i >= 0 and d >= 0
    # total equals the true minimal distance
    assert s + i + d == _levenshtein(ref, hyp)
    # any alignment conserves length: insertions minus deletions
    assert i - d == len(hyp) - len(ref)
    assert s <= min(len(ref), len(hyp))
