"""Command-line behavior: config resolution, subcommands, exit codes."""

import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import lmdistill
import lmdistill.model as model_module
import lmdistill.training as training_module
from lmdistill.checkpoint import load_checkpoint
from lmdistill.cli import CONFIG_KEYS, dispatch, load_config
from lmdistill.data import Vocabulary, build_vocab, encode
from lmdistill.errors import ConfigError
from lmdistill.losses import LOSS_VARIANTS
from lmdistill.rescore import (RescoreConfig, parse_nbest, parse_refs,
                               rescore_nbest, wer)
from lmdistill.training import perplexity

TINY = ["embed_dim=8", "hidden_dim=10", "bottleneck_dim=8", "num_experts=2",
        "epochs=2", "batch_size=2", "bptt_len=6", "vocab_cap=30", "lr=1.0"]


def sets(*extra):
    out = []
    for kv in TINY + list(extra):
        out += ["--set", kv]
    return out


@pytest.fixture
def data_dir(tmp_path):
    rng = np.random.default_rng(21)
    words = [f"w{i}" for i in range(8)]
    d = tmp_path / "data"
    d.mkdir()
    for name, n in (("train.txt", 10), ("valid.txt", 4), ("test.txt", 3)):
        lines = [" ".join(rng.choice(words, size=8)) for _ in range(n)]
        (d / name).write_text("\n".join(lines) + "\n", encoding="utf-8")
    return d


def train_teacher(tmp_path, data_dir, name="teacher", *extra):
    out = tmp_path / name
    rc = dispatch(["train-teacher", "--data-dir", str(data_dir),
                   "--out", str(out)] + sets(*extra))
    assert rc == 0
    return out


# ---------------------------------------------------------------------------
# config resolution


def test_defaults_cover_every_key():
    cfg = load_config()
    assert set(cfg.values) == set(CONFIG_KEYS)
    assert cfg["lr"] == 1.0
    assert cfg["loss_variant"] == "ce_only"
    assert cfg["last_hidden_dim"] is None


def test_precedence_defaults_file_set_seed(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("lr = 3.0\nseed = 5\nepochs = 7\n", encoding="utf-8")
    cfg = load_config(path, overrides=["lr=4.5"], seed=9)
    assert cfg["lr"] == 4.5      # --set beats the file
    assert cfg["seed"] == 9      # --seed beats the file
    assert cfg["epochs"] == 7    # file beats the default
    assert cfg["batch_size"] == 2  # untouched default


def test_config_comments_and_blanks(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("# a comment\n\nlr = 2.0  # trailing comment\n", encoding="utf-8")
    assert load_config(path)["lr"] == 2.0


def test_config_file_errors(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("lr = 1.0\nwhatever = 3\n", encoding="utf-8")
    with pytest.raises(ConfigError, match=r"run\.cfg:2: unknown config key"):
        load_config(path)
    # configs written for older versions may still set the removed temperature key
    path.write_text("alpha = 0.1\ntemperature = 1.0\n", encoding="utf-8")
    with pytest.raises(ConfigError, match=r"run\.cfg:2: unknown config key 'temperature'"):
        load_config(path)
    path.write_text("alpha = banana\n", encoding="utf-8")
    with pytest.raises(ConfigError, match=r"run\.cfg:1: bad value for alpha"):
        load_config(path)
    path.write_text("just a line\n", encoding="utf-8")
    with pytest.raises(ConfigError, match=r"run\.cfg:1: expected key = value"):
        load_config(path)
    # every float key must be finite: nan and inf parse as floats but mean nothing here
    for key in [k for k, (_, default) in CONFIG_KEYS.items() if isinstance(default, float)]:
        for raw in ("nan", "inf", "-inf"):
            path.write_text(f"epochs = 1\n{key} = {raw}\n", encoding="utf-8")
            with pytest.raises(ConfigError, match=rf"run\.cfg:2: bad value for {key}"):
                load_config(path)
            with pytest.raises(ConfigError, match=rf"--set {key}: bad value for {key}"):
                load_config(overrides=[f"{key}={raw}"])
    with pytest.raises(ConfigError, match="cannot read config"):
        load_config(tmp_path / "absent.cfg")


def test_set_overrides_errors():
    with pytest.raises(ConfigError, match="--set needs key=value"):
        load_config(overrides=["lr"])
    with pytest.raises(ConfigError, match="--set epochs: bad value"):
        load_config(overrides=["epochs=many"])
    with pytest.raises(ConfigError, match="unknown config key"):
        load_config(overrides=["nope=1"])


def test_optional_dims_and_bools():
    cfg = load_config(overrides=["last_hidden_dim=0", "tie_embeddings=false"])
    assert cfg["last_hidden_dim"] is None
    assert cfg["tie_embeddings"] is False
    lines = cfg.lines()
    assert "last_hidden_dim = 0" in lines
    assert "tie_embeddings = false" in lines
    with pytest.raises(ConfigError, match="bad value for tie_embeddings"):
        load_config(overrides=["tie_embeddings=yes"])


def test_echo_order_matches_declaration():
    keys = [line.split(" = ")[0] for line in load_config().lines()]
    assert keys == list(CONFIG_KEYS)


# ---------------------------------------------------------------------------
# dispatch and exit codes


def test_no_command_exits_1(capsys):
    assert dispatch([]) == 1
    assert "usage" in capsys.readouterr().err


def test_unknown_command_exits_1(capsys):
    assert dispatch(["frobnicate"]) == 1
    assert "error:" in capsys.readouterr().err


def test_user_error_exits_1(capsys):
    rc = dispatch(["train-teacher", "--data-dir", "/nonexistent"] + sets())
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_non_finite_float_setting_exits_1(capsys):
    # nan would silently turn clipping off (nan > max_norm is False)
    rc = dispatch(["train-teacher", "--data-dir", "/nonexistent"] + sets("grad_clip=nan"))
    assert rc == 1
    err = capsys.readouterr().err
    assert "--set grad_clip: bad value for grad_clip" in err
    assert "Traceback" not in err


def test_internal_error_exits_2(tmp_path, capsys):
    # a directory where a checkpoint file should be is not a UserError
    rc = dispatch(["eval-ppl", "--model", str(tmp_path),
                   "--data", str(tmp_path / "x.txt")])
    assert rc == 2
    assert "Traceback" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["eval-ppl", "rescore", "train-student"])
def test_missing_checkpoint_exits_1_naming_path(tmp_path, data_dir, command, capsys):
    missing = tmp_path / "nowhere" / "model.dlm"
    argv = {
        "eval-ppl": ["eval-ppl", "--model", str(missing),
                     "--data", str(data_dir / "valid.txt")],
        "rescore": ["rescore", "--model", str(missing),
                    "--nbest", str(tmp_path / "nbest.tsv")],
        "train-student": ["train-student", "--data-dir", str(data_dir),
                          "--teacher", str(missing)] + sets("loss_variant=kl_only"),
    }[command]
    assert dispatch(argv) == 1
    err = capsys.readouterr().err
    assert str(missing) in err
    assert "Traceback" not in err


def test_console_entry_point_smoke():
    # the child imports the same package as this process, installed or not
    src = str(Path(lmdistill.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-m", "lmdistill"],
                          capture_output=True, text=True, env=env)
    # no command: usage on stderr, exit 1
    assert proc.returncode == 1
    assert "usage" in proc.stderr


# ---------------------------------------------------------------------------
# train-teacher


def test_train_teacher_end_to_end(tmp_path, data_dir, capsys):
    out = tmp_path / "teacher"
    rc = dispatch(["train-teacher", "--data-dir", str(data_dir),
                   "--out", str(out)] + sets())
    assert rc == 0
    stdout = capsys.readouterr().out
    assert "# resolved config" in stdout
    assert "vocab=" in stdout and "params=" in stdout
    assert "epoch=1 " in stdout and "epoch=2 " in stdout
    assert "best_valid_ppl=" in stdout

    for name in ("model.dlm", "vocab.txt", "train.log", "resolved.cfg"):
        assert (out / name).is_file(), name
    # the log file holds exactly the epoch lines shown on stdout
    log_lines = (out / "train.log").read_text().splitlines()
    assert log_lines == [l for l in stdout.splitlines() if l.startswith("epoch=")]
    # resolved.cfg round-trips through the loader to the same values
    cfg = load_config(out / "resolved.cfg")
    assert cfg["epochs"] == 2 and cfg["hidden_dim"] == 10
    # the checkpoint is loadable and matches the echoed param count
    model = load_checkpoint(out / "model.dlm")
    assert f"params={model.param_count}" in stdout


def test_train_teacher_requires_ce_only(data_dir, capsys):
    rc = dispatch(["train-teacher", "--data-dir", str(data_dir)]
                  + sets("loss_variant=kl_only"))
    assert rc == 1
    assert "ce_only" in capsys.readouterr().err


def test_train_teacher_without_out_saves_nothing(tmp_path, data_dir, capsys):
    rc = dispatch(["train-teacher", "--data-dir", str(data_dir)] + sets())
    assert rc == 0
    assert "saved" not in capsys.readouterr().out


# ---------------------------------------------------------------------------
# train-student


def test_train_student_end_to_end(tmp_path, data_dir, capsys):
    teacher = train_teacher(tmp_path, data_dir)
    capsys.readouterr()
    out = tmp_path / "student"
    rc = dispatch(["train-student", "--data-dir", str(data_dir),
                   "--out", str(out), "--teacher", str(teacher / "model.dlm")]
                  + sets("loss_variant=trust_reg", "alpha=0.1", "hidden_dim=8"))
    assert rc == 0
    stdout = capsys.readouterr().out
    assert "teachers=1" in stdout
    assert (out / "model.dlm").is_file()
    student = load_checkpoint(out / "model.dlm")
    assert student.config.hidden_dim == 8


def test_train_student_teacher_flag_forms(tmp_path, data_dir, capsys):
    teacher = train_teacher(tmp_path, data_dir)
    ckpt = str(teacher / "model.dlm")
    capsys.readouterr()
    rc = dispatch(["train-student", "--data-dir", str(data_dir),
                   "--teacher", f"{ckpt},{ckpt}", "--teacher", ckpt]
                  + sets("loss_variant=kl_only", "epochs=1"))
    assert rc == 0
    assert "teachers=3" in capsys.readouterr().out


def test_train_student_rejects_ce_only(tmp_path, data_dir, capsys):
    teacher = train_teacher(tmp_path, data_dir)
    capsys.readouterr()
    rc = dispatch(["train-student", "--data-dir", str(data_dir),
                   "--teacher", str(teacher / "model.dlm")] + sets())
    assert rc == 1
    assert "distillation" in capsys.readouterr().err


def test_train_student_rejects_fixed_interp_at_alpha_one(tmp_path, data_dir, capsys):
    # fixed_interp at alpha 1 reads no teacher distributions; it is ce_only
    teacher = train_teacher(tmp_path, data_dir)
    capsys.readouterr()
    rc = dispatch(["train-student", "--data-dir", str(data_dir),
                   "--teacher", str(teacher / "model.dlm")]
                  + sets("loss_variant=fixed_interp", "alpha=1.0"))
    assert rc == 1
    assert "alpha = 1" in capsys.readouterr().err


def test_train_student_vocab_mismatch(tmp_path, data_dir, capsys):
    teacher = train_teacher(tmp_path, data_dir)
    capsys.readouterr()
    rc = dispatch(["train-student", "--data-dir", str(data_dir),
                   "--teacher", str(teacher / "model.dlm")]
                  + sets("loss_variant=kl_only", "vocab_cap=6"))
    assert rc == 1
    assert "vocab size" in capsys.readouterr().err


def test_train_student_exits_2_when_teacher_worker_dies(tmp_path, data_dir, capsys,
                                                        monkeypatch):
    teacher = train_teacher(tmp_path, data_dir)
    capsys.readouterr()
    calls = []

    def dying(self, inputs, targets):
        calls.append(None)
        if len(calls) == 2:
            os._exit(3)
        return soft_labels(self, inputs, targets)

    soft_labels = training_module.TeacherEnsemble.soft_labels
    monkeypatch.setattr(training_module.TeacherEnsemble, "soft_labels", dying)
    rc = dispatch(["train-student", "--data-dir", str(data_dir),
                   "--teacher", str(teacher / "model.dlm")] + sets("loss_variant=kl_only"))
    assert rc == 2
    assert "teacher worker exited with code 3" in capsys.readouterr().err
    assert multiprocessing.active_children() == []


def test_train_student_requires_teacher_flag(data_dir, capsys):
    rc = dispatch(["train-student", "--data-dir", str(data_dir)]
                  + sets("loss_variant=kl_only"))
    assert rc == 1
    assert "error:" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# eval-ppl


def test_eval_ppl_matches_library(tmp_path, data_dir, capsys):
    teacher = train_teacher(tmp_path, data_dir)
    capsys.readouterr()
    rc = dispatch(["eval-ppl", "--model", str(teacher / "model.dlm"),
                   "--data", str(data_dir / "valid.txt")])
    assert rc == 0
    stdout = capsys.readouterr().out
    line = [l for l in stdout.splitlines() if l.startswith("ppl=")]
    assert len(line) == 1
    shown = float(line[0][len("ppl="):])

    model = load_checkpoint(teacher / "model.dlm")
    vocab = Vocabulary.load(teacher / "vocab.txt")
    stream = encode((data_dir / "valid.txt").read_text().splitlines(), vocab)
    assert shown == pytest.approx(perplexity(model, stream), abs=5e-7)


def test_eval_ppl_matches_library_with_rare_words(tmp_path, data_dir, capsys):
    # two once-seen words fall below rnn_unk_min_count=2: eval-ppl, reading
    # vocab.txt, must encode them as rnn_unk exactly as the in-memory vocab does
    train_path = data_dir / "train.txt"
    lines = train_path.read_text().splitlines() + ["w0 once1 w1", "w2 once2"]
    train_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    teacher = train_teacher(tmp_path, data_dir, "teacher", "rnn_unk_min_count=2")
    capsys.readouterr()
    rc = dispatch(["eval-ppl", "--model", str(teacher / "model.dlm"),
                   "--data", str(train_path)])
    assert rc == 0
    line = [l for l in capsys.readouterr().out.splitlines() if l.startswith("ppl=")]
    shown = float(line[0][len("ppl="):])

    vocab = build_vocab(lines, 30, rnn_unk_min_count=2)
    assert vocab.rare == {"once1", "once2"}
    model = load_checkpoint(teacher / "model.dlm")
    assert shown == pytest.approx(perplexity(model, encode(lines, vocab)), abs=5e-7)


def test_eval_ppl_needs_vocab(tmp_path, data_dir, capsys):
    teacher = train_teacher(tmp_path, data_dir)
    lonely = tmp_path / "lonely.dlm"
    lonely.write_bytes((teacher / "model.dlm").read_bytes())
    capsys.readouterr()
    rc = dispatch(["eval-ppl", "--model", str(lonely),
                   "--data", str(data_dir / "valid.txt")])
    assert rc == 1
    assert "no vocabulary" in capsys.readouterr().err


def test_eval_ppl_vocab_size_mismatch(tmp_path, data_dir, capsys):
    teacher = train_teacher(tmp_path, data_dir)
    other = train_teacher(tmp_path, data_dir, "other", "vocab_cap=6")
    capsys.readouterr()
    rc = dispatch(["eval-ppl", "--model", str(teacher / "model.dlm"),
                   "--vocab", str(other / "vocab.txt"),
                   "--data", str(data_dir / "valid.txt")])
    assert rc == 1
    assert "vocabulary has" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# rescore


@pytest.fixture
def rescore_files(tmp_path, data_dir):
    teacher = train_teacher(tmp_path, data_dir)
    nbest = tmp_path / "nbest.tsv"
    nbest.write_text(
        "u1\t1\t-10.0\t0.0\tw1 w2\n"
        "u1\t2\t-10.5\t0.0\tw1 w3\n"
        "u2\t1\t-8.0\t0.0\tw4\n"
        "u2\t2\t-8.2\t0.0\tw4 w5\n",
        encoding="utf-8")
    refs = tmp_path / "refs.tsv"
    refs.write_text("u1\tw1 w3\nu2\tw4\n", encoding="utf-8")
    return teacher, nbest, refs


def test_rescore_selection_lines(tmp_path, rescore_files, capsys):
    teacher, nbest, refs = rescore_files
    capsys.readouterr()
    rc = dispatch(["rescore", "--model", str(teacher / "model.dlm"),
                   "--nbest", str(nbest)])
    assert rc == 0
    stdout = capsys.readouterr().out
    body = [l for l in stdout.splitlines() if l.startswith(("u1\t", "u2\t"))]
    assert len(body) == 2
    assert body[0].startswith("u1\t") and body[1].startswith("u2\t")

    # selections equal the library path on the same inputs
    model = load_checkpoint(teacher / "model.dlm")
    vocab = Vocabulary.load(teacher / "vocab.txt")
    picked = rescore_nbest(model, vocab,
                           parse_nbest(nbest.read_text().splitlines()),
                           RescoreConfig())
    for line in body:
        utt, words = line.split("\t")
        assert " ".join(picked[utt].words) == words


def test_rescore_with_refs_appends_wer(tmp_path, rescore_files, capsys):
    teacher, nbest, refs = rescore_files
    capsys.readouterr()
    rc = dispatch(["rescore", "--model", str(teacher / "model.dlm"),
                   "--nbest", str(nbest), "--refs", str(refs)])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    wer_lines = [l for l in lines if l.startswith("WER=")]
    assert len(wer_lines) == 1

    model = load_checkpoint(teacher / "model.dlm")
    vocab = Vocabulary.load(teacher / "vocab.txt")
    picked = rescore_nbest(model, vocab,
                           parse_nbest(nbest.read_text().splitlines()),
                           RescoreConfig())
    report = wer(parse_refs(refs.read_text().splitlines()),
                 {u: e.words for u, e in picked.items()})
    assert wer_lines[0] == report.line()


def test_rescore_sweep_grid(tmp_path, rescore_files, capsys):
    teacher, nbest, refs = rescore_files
    capsys.readouterr()
    rc = dispatch(["rescore", "--model", str(teacher / "model.dlm"),
                   "--nbest", str(nbest), "--refs", str(refs),
                   "--sweep-lm-weight", "0,1", "--sweep-wip", "0,-0.5"])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    grid = [l for l in lines if l.startswith("lm_weight=")]
    assert len(grid) == 4  # 2 weights x 2 penalties
    best = [l for l in lines if l.startswith("best: ")]
    assert len(best) == 1
    # the reported best equals the minimum over the printed grid
    wers = [float(l.split("WER=")[1].split()[0].rstrip("%")) for l in grid]
    assert f"WER={min(wers):.2f}%" in best[0]


def test_rescore_sweep_needs_refs(tmp_path, rescore_files, capsys):
    teacher, nbest, _ = rescore_files
    capsys.readouterr()
    rc = dispatch(["rescore", "--model", str(teacher / "model.dlm"),
                   "--nbest", str(nbest), "--sweep-lm-weight", "0,1"])
    assert rc == 1
    assert "--refs" in capsys.readouterr().err


def test_rescore_sweep_grid_must_be_finite(tmp_path, rescore_files, capsys):
    teacher, nbest, refs = rescore_files
    capsys.readouterr()
    rc = dispatch(["rescore", "--model", str(teacher / "model.dlm"), "--nbest", str(nbest),
                   "--refs", str(refs), "--sweep-lm-weight", "1,nan"])
    assert rc == 1
    assert "bad sweep grid" in capsys.readouterr().err


def test_rescore_bad_oov_mode(tmp_path, rescore_files, capsys):
    teacher, nbest, _ = rescore_files
    capsys.readouterr()
    rc = dispatch(["rescore", "--model", str(teacher / "model.dlm"),
                   "--nbest", str(nbest), "--set", "oov_mode=weird"])
    assert rc == 1
    assert "oov_mode" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# grad-check and ablate


def test_grad_check_command(capsys):
    assert dispatch(["grad-check"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1] == "grad-check: all ok"
    rows = lines[:-1]
    assert len(rows) == len(LOSS_VARIANTS)
    for variant, row in zip(LOSS_VARIANTS, rows):
        assert row.split()[0] == variant
        assert "worst=" in row and row.endswith("[ok]")
    tyings = {row.split()[1] for row in rows}
    assert tyings == {"tied", "untied"}


@pytest.mark.parametrize("option", [["--set", "a=1"], ["--config", "x.cfg"],
                                    ["--seed", "3"], ["--out", "runs"]],
                         ids=["set", "config", "seed", "out"])
def test_grad_check_takes_no_options(option, capsys):
    assert dispatch(["grad-check"] + option) == 1
    assert "unrecognized arguments" in capsys.readouterr().err


def _fed_more(backward, calls):
    """backward, handed 1% more of every gradient it takes."""
    def skewed(*grads):
        calls.append(backward)
        return backward(*(1.01 * g for g in grads))
    return skewed


def _skew_last(original, calls):
    # lstm_layer and _head_inputs return their backward last
    def patched(*args):
        *outs, backward = original(*args)
        return (*outs, _fed_more(backward, calls))
    return patched


def _skew_reg(original, calls):
    def patched(*args):
        value, *grads = original(*args)
        calls.append(original)
        return value, *(None if g is None else 1.01 * g for g in grads)
    return patched


def _skew_trunk(original, calls):
    # the trunk (masks, gather, bottleneck, LSTM layers) takes 1% more dL/dhidden
    def patched(*args):
        out = original(*args)
        trunk = out.backward

        def skewed(d_hidden, *rest):
            calls.append(trunk)
            return trunk(1.01 * d_hidden, *rest)

        out.backward = skewed
        return out
    return patched


@pytest.mark.parametrize("module, op, skew", [(model_module, "lstm_layer", _skew_last),
                                              (training_module, "activation_reg", _skew_reg),
                                              (model_module, "_head_inputs", _skew_last),
                                              (training_module, "model_forward", _skew_trunk)],
                         ids=["lstm_layer", "activation_reg", "head_inputs", "trunk"])
def test_grad_check_catches_scaled_backward(module, op, skew, monkeypatch, capsys):
    # negative control: one hand-written backward piece is off by 1%
    calls = []
    monkeypatch.setattr(module, op, skew(getattr(module, op), calls))
    assert dispatch(["grad-check"]) == 1
    assert calls
    assert "FAILURES" in capsys.readouterr().out


def test_ablate_prints_all_rows(tmp_path, data_dir, capsys):
    rc = dispatch(["ablate", "--data-dir", str(data_dir)]
                  + sets("epochs=1", "alpha=0.1"))
    assert rc == 0
    stdout = capsys.readouterr().out
    for row in ("student+tr", "-ce(kl_only)", "-tr(fixed_weight)",
                "+dropout", "+act_reg", "-kd(ce_only)"):
        assert row in stdout, row
    assert "(mean over seeds" in stdout
