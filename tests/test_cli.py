"""Command-line behavior: config resolution, subcommands, exit codes."""

import argparse
import hashlib
import math
import multiprocessing
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import lmdistill
import lmdistill.cli as cli_module
import lmdistill.model as model_module
import lmdistill.training as training_module
from lmdistill.checkpoint import _meta_lines, load_checkpoint, save_checkpoint
from lmdistill.cli import (CONFIG_KEYS, RESCORE_KEYS, TEACHER_KEYS, GradCheckReport, dispatch,
                           grad_check_rows, load_config)
from lmdistill.data import Vocabulary, build_vocab, encode
from lmdistill.errors import ConfigError
from lmdistill.losses import LOSS_VARIANTS
from lmdistill.model import ModelConfig, build_model
from lmdistill.rescore import (RescoreConfig, parse_nbest, parse_refs,
                               rescore_nbest, wer)
from lmdistill.training import TrainConfig, perplexity, train

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


TABLES = {"teacher": TEACHER_KEYS, "student": CONFIG_KEYS, "rescore": RESCORE_KEYS}


def test_defaults_cover_every_key():
    for keys in TABLES.values():
        assert set(load_config(keys=keys).values) == set(keys)
    cfg = load_config(keys=CONFIG_KEYS)
    assert cfg["lr"] == 1.0
    assert cfg["loss_variant"] == "ce_only"
    assert cfg["last_hidden_dim"] is None
    assert load_config(keys=TEACHER_KEYS)["loss_variant"] == "ce_only"


def test_precedence_defaults_file_set_seed(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("lr = 3.0\nseed = 5\nepochs = 7\n", encoding="utf-8")
    cfg = load_config(path, overrides=["lr=4.5"], seed=9, keys=CONFIG_KEYS)
    assert cfg["lr"] == 4.5      # --set beats the file
    assert cfg["seed"] == 9      # --seed beats the file
    assert cfg["epochs"] == 7    # file beats the default
    assert cfg["batch_size"] == 2  # untouched default


def test_config_comments_and_blanks(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("# a comment\n\nlr = 2.0  # trailing comment\n", encoding="utf-8")
    assert load_config(path, keys=CONFIG_KEYS)["lr"] == 2.0


def test_config_comment_holding_a_form_feed_loads(tmp_path):
    # a form feed is no line break: the comment's tail stays a comment, and the line
    # after it is line 2
    path = tmp_path / "run.cfg"
    path.write_text("# a comment\fand its tail = 3\nlr = 2.0\n", encoding="utf-8")
    assert load_config(path, keys=CONFIG_KEYS)["lr"] == 2.0
    path.write_text("# a comment\fand its tail\nalpha = banana\n", encoding="utf-8")
    with pytest.raises(ConfigError, match=r"run\.cfg:2: bad value for alpha"):
        load_config(path, keys=CONFIG_KEYS)


def test_config_file_errors(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("lr = 1.0\nwhatever = 3\n", encoding="utf-8")
    with pytest.raises(ConfigError, match=r"run\.cfg:2: unknown config key"):
        load_config(path, keys=CONFIG_KEYS)
    # configs written for older versions may still set the removed temperature key
    path.write_text("alpha = 0.1\ntemperature = 1.0\n", encoding="utf-8")
    with pytest.raises(ConfigError, match=r"run\.cfg:2: unknown config key 'temperature'"):
        load_config(path, keys=CONFIG_KEYS)
    path.write_text("alpha = banana\n", encoding="utf-8")
    with pytest.raises(ConfigError, match=r"run\.cfg:1: bad value for alpha"):
        load_config(path, keys=CONFIG_KEYS)
    path.write_text("just a line\n", encoding="utf-8")
    with pytest.raises(ConfigError, match=r"run\.cfg:1: expected key = value"):
        load_config(path, keys=CONFIG_KEYS)
    # every float key of every table must be finite: nan and inf parse as floats but
    # mean nothing here
    for keys in TABLES.values():
        for key in [k for k, (_, default) in keys.items() if isinstance(default, float)]:
            for raw in ("nan", "inf", "-inf"):
                path.write_text(f"# line 1\n{key} = {raw}\n", encoding="utf-8")
                with pytest.raises(ConfigError, match=rf"run\.cfg:2: bad value for {key}"):
                    load_config(path, keys=keys)
                with pytest.raises(ConfigError, match=rf"--set {key}: bad value for {key}"):
                    load_config(overrides=[f"{key}={raw}"], keys=keys)
    with pytest.raises(ConfigError, match=r"cannot read .*absent\.cfg: No such file"):
        load_config(tmp_path / "absent.cfg", keys=CONFIG_KEYS)


def test_set_overrides_errors():
    with pytest.raises(ConfigError, match="--set needs key=value"):
        load_config(overrides=["lr"], keys=CONFIG_KEYS)
    with pytest.raises(ConfigError, match="--set epochs: bad value"):
        load_config(overrides=["epochs=many"], keys=CONFIG_KEYS)
    with pytest.raises(ConfigError, match="unknown config key"):
        load_config(overrides=["nope=1"], keys=CONFIG_KEYS)


def test_optional_dim_zero_is_unset():
    cfg = load_config(overrides=["last_hidden_dim=0"], keys=CONFIG_KEYS)
    assert cfg["last_hidden_dim"] is None
    assert "last_hidden_dim = 0" in cfg.lines()


def test_echo_order_matches_declaration():
    for keys in TABLES.values():
        echoed = [line.split(" = ")[0] for line in load_config(keys=keys).lines()]
        assert echoed == list(keys)


CONFIGS = Path(__file__).resolve().parent.parent / "configs"


@pytest.mark.parametrize("path", sorted(CONFIGS.glob("*.cfg")), ids=lambda p: p.name)
def test_shipped_recipe_loads_under_its_command(path):
    # a teacher recipe that set alpha, or a student one with a rescore key, fails here
    keys = {"teacher": TEACHER_KEYS, "student": CONFIG_KEYS}[path.stem.rsplit("-", 1)[1]]
    assert load_config(path, keys=keys)["vocab_cap"] > 0


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


def test_internal_error_exits_2(monkeypatch, capsys):
    # an exception that is not a UserError is a bug: a traceback and exit 2
    def broken(*args):
        raise RuntimeError("broken")

    monkeypatch.setattr(cli_module, "load_checkpoint", broken)
    rc = dispatch(["eval-ppl", "--model", "model.dlm", "--data", "test.txt"])
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


BLAS_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def child_env(**blas):
    """os.environ with no BLAS thread variable but those given, and a PYTHONPATH that
    finds the package this process imported, installed or not."""
    src = str(Path(lmdistill.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if k not in BLAS_VARIABLES}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**env, **blas}


def test_console_entry_point_smoke():
    proc = subprocess.run([sys.executable, "-m", "lmdistill"],
                          capture_output=True, text=True, env=child_env())
    # no command: usage on stderr, exit 1
    assert proc.returncode == 1
    assert "usage" in proc.stderr


def test_blas_thread_variable_cannot_change_trained_bits(tmp_path):
    # At 2x128 LSTM, K=4 and V=300, OpenBLAS threads its GEMMs, and a second thread
    # changes model.dlm unless the package pins one: before numpy loads, or, in a process
    # that imported numpy first, on the OpenBLAS numpy bundles.
    rng = np.random.default_rng(5)
    words = [f"w{i}" for i in range(400)]
    data = tmp_path / "data"
    data.mkdir()
    for name, n in (("train.txt", 40), ("valid.txt", 10)):
        lines = [" ".join(rng.choice(words, size=10)) for _ in range(n)]
        (data / name).write_text("\n".join(lines) + "\n", encoding="utf-8")
    shape = sets("vocab_cap=300", "lstm_layers=2", "hidden_dim=128", "embed_dim=64",
                 "bottleneck_dim=64", "num_experts=4", "batch_size=4", "bptt_len=10",
                 "epochs=1")
    numpy_first = ["-c", "import sys, numpy; from lmdistill.cli import main; main()"]
    digests = {}
    for run, threads, entry in (("1", "1", ["-m", "lmdistill"]), ("2", "2", ["-m", "lmdistill"]),
                                ("unset", None, ["-m", "lmdistill"]),
                                ("numpy-first", "2", numpy_first)):
        out = tmp_path / run
        env = child_env(**({} if threads is None else {"OPENBLAS_NUM_THREADS": threads}))
        subprocess.run([sys.executable, *entry, "train-teacher", "--data-dir",
                        str(data), "--out", str(out)] + shape,
                       capture_output=True, check=True, env=env)
        digests[run] = hashlib.sha256((out / "model.dlm").read_bytes()).hexdigest()
    assert digests["2"] == digests["1"]
    assert digests["unset"] == digests["1"]
    assert digests["numpy-first"] == digests["1"]

    probe = subprocess.run(
        [sys.executable, "-c", "import os, lmdistill; print(os.environ['OPENBLAS_NUM_THREADS'])"],
        capture_output=True, text=True, check=True, env=child_env(OPENBLAS_NUM_THREADS="2"))
    assert probe.stdout == "1\n"


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
    # and lists exactly the keys train-teacher reads
    cfg = load_config(out / "resolved.cfg", keys=TEACHER_KEYS)
    assert cfg["epochs"] == 2 and cfg["hidden_dim"] == 10
    assert [line.split(" = ")[0] for line in (out / "resolved.cfg").read_text().splitlines()] \
        == list(TEACHER_KEYS)
    # the checkpoint is loadable and matches the echoed param count
    model = load_checkpoint(out / "model.dlm")
    assert f"params={sum(p.size for p in model.params.values())}" in stdout


def test_train_teacher_requires_ce_only(tmp_path, data_dir, capsys):
    rc = dispatch(["train-teacher", "--data-dir", str(data_dir)]
                  + sets("loss_variant=kl_only"))
    assert rc == 1
    assert "ce_only" in capsys.readouterr().err
    # a config file's variant is refused at its line
    path = tmp_path / "teacher.cfg"
    path.write_text("epochs = 2\nloss_variant = kl_only\n", encoding="utf-8")
    argv = ["train-teacher", "--data-dir", str(data_dir), "--config", str(path)] + sets()
    assert dispatch(argv) == 1
    assert f"{path}:2: bad value for loss_variant" in capsys.readouterr().err
    # the ce_only line that every teacher recipe carries still loads
    path.write_text("epochs = 2\nloss_variant = ce_only\n", encoding="utf-8")
    assert dispatch(argv) == 0


@pytest.mark.parametrize("command", ["train-teacher", "train-student", "ablate"])
@pytest.mark.parametrize("kv", ["lm_weight=7", "word_insertion_penalty=1"])
def test_training_commands_refuse_rescore_keys(tmp_path, data_dir, command, kv, capsys):
    key = kv.split("=")[0]
    out = tmp_path / "run"
    teacher = ["--teacher", str(tmp_path / "t.dlm")] if command == "train-student" else []
    rc = dispatch([command, "--data-dir", str(data_dir), "--out", str(out)] + teacher
                  + sets(kv))
    assert rc == 1
    assert f"--set {key}: unknown config key {key!r}" in capsys.readouterr().err
    assert not out.exists()  # refused where it was parsed, before any echo


def test_train_teacher_refuses_alpha(data_dir, capsys):
    rc = dispatch(["train-teacher", "--data-dir", str(data_dir)] + sets("alpha=0.5"))
    assert rc == 1
    assert "--set alpha: unknown config key 'alpha'" in capsys.readouterr().err


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


def test_train_student_refuses_a_teacher_trained_on_other_words(tmp_path, data_dir, capsys):
    # the same corpus with every w renamed x: both vocabularies have the same size
    other = tmp_path / "other"
    other.mkdir()
    for f in data_dir.iterdir():
        (other / f.name).write_text(f.read_text(encoding="utf-8").replace("w", "x"),
                                    encoding="utf-8")
    teacher = train_teacher(tmp_path, other)
    capsys.readouterr()
    argv = (["train-student", "--data-dir", str(data_dir), "--teacher", str(teacher / "model.dlm")]
            + sets("loss_variant=kl_only", "epochs=1"))
    assert dispatch(argv) == 1
    err = capsys.readouterr().err
    assert f"error: {teacher / 'vocab.txt'}: word id 3 is 'x" in err  # ids 0-2: the specials
    assert "the student's is 'w" in err
    # a teacher without a vocab.txt beside it is checked by vocabulary size only
    (teacher / "vocab.txt").unlink()
    assert dispatch(argv) == 0


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


def test_eval_ppl_echoes_the_checkpoints_own_config(tmp_path, data_dir, capsys):
    # a 2-layer checkpoint whose shape is none of the config defaults
    teacher = train_teacher(tmp_path, data_dir, "teacher", "lstm_layers=2",
                            "last_hidden_dim=6")
    capsys.readouterr()
    model_path = teacher / "model.dlm"
    assert dispatch(["eval-ppl", "--model", str(model_path),
                     "--data", str(data_dir / "valid.txt")]) == 0
    lines = capsys.readouterr().out.splitlines()
    header = _meta_lines(load_checkpoint(model_path).config)
    assert lines[:len(header) + 2] == [f"# checkpoint {model_path}", *header, ""]
    assert {"lstm_layers=2", "hidden_dim=10", "last_hidden_dim=6", "embed_dim=8"} <= set(header)
    assert "# resolved config" not in lines


@pytest.mark.parametrize("option", [["--set", "hidden_dim=5"], ["--config", "run.cfg"],
                                    ["--out", "runs"]], ids=["set", "config", "out"])
def test_eval_ppl_takes_no_config(option, capsys):
    assert dispatch(["eval-ppl", "--model", "m.dlm", "--data", "test.txt"] + option) == 1
    assert "unrecognized arguments" in capsys.readouterr().err


def test_eval_ppl_needs_vocab(tmp_path, data_dir, capsys):
    teacher = train_teacher(tmp_path, data_dir)
    lonely = tmp_path / "lonely.dlm"
    lonely.write_bytes((teacher / "model.dlm").read_bytes())
    capsys.readouterr()
    rc = dispatch(["eval-ppl", "--model", str(lonely),
                   "--data", str(data_dir / "valid.txt")])
    assert rc == 1
    assert "no vocabulary" in capsys.readouterr().err


@pytest.mark.parametrize("where", ["missing", "directory"])
def test_eval_ppl_explicit_vocab_unreadable_names_path(tmp_path, data_dir, where, capsys):
    # an explicit --vocab is read as given: the reader names the path and the
    # OS reason, and the default file's "pass --vocab" hint does not apply
    teacher = train_teacher(tmp_path, data_dir)
    path = tmp_path / "nonexistent" / "v.txt" if where == "missing" else tmp_path
    capsys.readouterr()
    rc = dispatch(["eval-ppl", "--model", str(teacher / "model.dlm"), "--vocab", str(path),
                   "--data", str(data_dir / "valid.txt")])
    assert rc == 1
    err = capsys.readouterr().err
    assert str(path) in err
    assert "pass --vocab" not in err and "Traceback" not in err


def test_eval_ppl_vocab_size_mismatch(tmp_path, data_dir, capsys):
    teacher = train_teacher(tmp_path, data_dir)
    other = train_teacher(tmp_path, data_dir, "other", "vocab_cap=6")
    capsys.readouterr()
    rc = dispatch(["eval-ppl", "--model", str(teacher / "model.dlm"),
                   "--vocab", str(other / "vocab.txt"),
                   "--data", str(data_dir / "valid.txt")])
    assert rc == 1
    assert "vocabulary has" in capsys.readouterr().err


def test_perplexity_past_float64_is_inf(tmp_path, capsys):
    # every target's logit about 2000 nats below the rest in every expert: the exp of a mean
    # NLL of ~2000 nats overflows a float64 (and a numpy warning fails this suite)
    lines = ["a a a", "a"] * 4
    vocab = build_vocab(["a b c d"], cap=10)
    stream = encode(lines, vocab)
    model = build_model(ModelConfig(vocab_size=vocab.size, embed_dim=4, lstm_layers=1,
                                    hidden_dim=4, bottleneck_dim=4, num_experts=2), seed=0)
    model.params["out.b"][[vocab.lookup("a"), vocab.eos_id]] = -2000.0
    assert perplexity(model, stream) == math.inf
    save_checkpoint(model, tmp_path / "model.dlm")
    vocab.save(tmp_path / "vocab.txt")
    (tmp_path / "test.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
    capsys.readouterr()
    assert dispatch(["eval-ppl", "--model", str(tmp_path / "model.dlm"),
                     "--data", str(tmp_path / "test.txt")]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "ppl=inf"
    # training logs it and carries on; at lr 0 no epoch beats inf
    logged = []
    run = train(model, stream, stream, TrainConfig(lr=0.0, epochs=2), log_fn=logged.append)
    assert [line.split()[2] for line in logged] == ["valid_ppl=inf"] * 2
    assert (run.best_valid_ppl, run.best_epoch) == (math.inf, 0)


def test_checkpoint_of_the_older_layout_loads_and_an_untied_one_exits_1(tmp_path, data_dir,
                                                                          capsys):
    # DLM1 files once carried expert_dim and tie_embeddings lines, and an untied model an
    # out.w record [embed_dim x V] before out.b
    teacher = train_teacher(tmp_path, data_dir)
    model = load_checkpoint(teacher / "model.dlm")
    blob = (teacher / "model.dlm").read_bytes()
    at = blob.index(b"input_rate=")
    older = teacher / "older.dlm"
    older.write_bytes(blob[:at] + b"expert_dim=none\ntie_embeddings=true\n" + blob[at:])
    loaded = load_checkpoint(older)
    assert loaded.config == model.config and list(loaded.params) == list(model.params)
    assert all(loaded.params[name].tobytes() == p.tobytes() for name, p in model.params.items())

    e, v = model.config.embed_dim, model.config.vocab_size
    untied = blob[:at] + b"expert_dim=none\ntie_embeddings=false\n" + blob[at:]
    out_b = untied.rindex(struct.pack("<Q", 5) + b"out.b")
    out_w = struct.pack("<Q", 5) + b"out.w" + struct.pack("<3Q", 2, e, v) + bytes(8 * e * v)
    path = teacher / "untied.dlm"
    path.write_bytes(untied[:out_b] + out_w + untied[out_b:])
    capsys.readouterr()
    assert dispatch(["eval-ppl", "--model", str(path),
                     "--data", str(data_dir / "valid.txt")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: ") and "'out.w'" in err


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


BAD_TEXT = b"fine\n\xff is not UTF-8\n"  # the bad byte is on line 2


def _corrupt_checkpoint_byte(path, where):
    """Put a 0xff byte in a checkpoint's metadata or in its first parameter name, which
    starts 10 bytes into the empty line that ends the metadata, after its u64 length."""
    blob = bytearray(path.read_bytes())
    at = blob.index(b"vocab_size=") if where == "metadata" else blob.index(b"\n\n") + 10
    blob[at] = 0xFF
    path.write_bytes(bytes(blob))


@pytest.mark.parametrize("kind", ["--config", "train.txt", "valid.txt", "--data", "--nbest",
                                  "--refs", "--vocab", "vocab.txt", "checkpoint metadata",
                                  "checkpoint name", "--model directory"])
def test_unreadable_input_exits_1_naming_path(tmp_path, data_dir, rescore_files, kind, capsys):
    teacher, nbest, refs = rescore_files
    model, test_txt = teacher / "model.dlm", data_dir / "test.txt"
    eval_ppl = ["eval-ppl", "--model", str(model), "--data", str(test_txt)]
    rescore = ["rescore", "--model", str(model), "--nbest", str(nbest)]
    train = ["train-teacher", "--data-dir", str(data_dir)] + sets()
    path, argv = {
        "--config": (tmp_path / "run.cfg", rescore + ["--config", str(tmp_path / "run.cfg")]),
        "train.txt": (data_dir / "train.txt", train),
        "valid.txt": (data_dir / "valid.txt", train),
        "--data": (test_txt, eval_ppl),
        "--nbest": (nbest, rescore),
        "--refs": (refs, rescore + ["--refs", str(refs)]),
        "--vocab": (tmp_path / "words.txt", eval_ppl + ["--vocab", str(tmp_path / "words.txt")]),
        "vocab.txt": (teacher / "vocab.txt", eval_ppl),
        "checkpoint metadata": (model, eval_ppl),
        "checkpoint name": (model, eval_ppl),
        "--model directory": (tmp_path, ["eval-ppl", "--model", str(tmp_path),
                                         "--data", str(test_txt)]),
    }[kind]
    is_text = path.suffix in (".txt", ".cfg", ".tsv")
    if is_text:
        path.write_bytes(BAD_TEXT)
    elif kind.startswith("checkpoint"):
        _corrupt_checkpoint_byte(model, kind.split()[1])
    capsys.readouterr()
    assert dispatch(argv) == 1
    err = capsys.readouterr().err
    assert str(path) in err
    if is_text:
        assert f"{path}:2:" in err
    assert "Traceback" not in err


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


@pytest.mark.parametrize("setting, sweep, points", [
    ("lm_weight=0.25", ["--sweep-wip", "0,-0.5"],
     ["lm_weight=0.25 wip=0", "lm_weight=0.25 wip=-0.5"]),
    ("word_insertion_penalty=-1", ["--sweep-lm-weight", "0,2"],
     ["lm_weight=0 wip=-1", "lm_weight=2 wip=-1"]),
], ids=["lm-weight", "wip"])
def test_rescore_sweep_keeps_the_configs_unswept_axis(rescore_files, capsys, setting, sweep,
                                                      points):
    teacher, nbest, refs = rescore_files
    argv = ["rescore", "--model", str(teacher / "model.dlm"), "--nbest", str(nbest),
             "--refs", str(refs)]
    capsys.readouterr()
    assert dispatch(argv + ["--set", setting] + sweep) == 0
    grid = [l for l in capsys.readouterr().out.splitlines() if l.startswith("lm_weight=")]
    assert [l.split(" WER=")[0] for l in grid] == points
    # each point's WER line is the plain rescore's at that point's weights
    lm_weight, wip = (x.split("=")[1] for x in points[1].split())
    assert dispatch(argv + ["--set", f"lm_weight={lm_weight}",
                             "--set", f"word_insertion_penalty={wip}"]) == 0
    plain = [l for l in capsys.readouterr().out.splitlines() if l.startswith("WER=")]
    assert grid[1].split(" ", 2)[2] == plain[0]


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


def test_rescore_refuses_a_model_key_set_on_the_command_line(rescore_files, capsys):
    teacher, nbest, _ = rescore_files
    capsys.readouterr()
    assert dispatch(["rescore", "--model", str(teacher / "model.dlm"), "--nbest", str(nbest),
                     "--set", "hidden_dim=5"]) == 1
    assert "--set hidden_dim: unknown config key 'hidden_dim'" in capsys.readouterr().err


# num_experts is a model key rescore never read; the others were removed from the tables,
# and a config written for an older version may still set them
@pytest.mark.parametrize("command, key", [
    ("rescore", "num_experts"), ("rescore", "oov_mode"), ("rescore", "oov_penalty"),
    *[(command, key) for command in ("train-teacher", "train-student", "ablate")
      for key in ("tie_embeddings", "expert_dim", "lr_decay_on_plateau")]])
def test_config_file_refuses_an_unknown_key_at_its_line(tmp_path, command, key, capsys):
    path = tmp_path / "run.cfg"
    path.write_text(f"# set by no table\n{key} = 1\n", encoding="utf-8")
    inputs = {"rescore": ["--model", "m.dlm", "--nbest", "nbest.tsv"],
              "train-student": ["--data-dir", str(tmp_path), "--teacher", "t.dlm"]}
    argv = [command, "--config", str(path)] + inputs.get(command, ["--data-dir", str(tmp_path)])
    assert dispatch(argv) == 1
    assert f"error: {path}:2: unknown config key {key!r}" in capsys.readouterr().err


def test_rescore_config_round_trips_its_two_keys(tmp_path, rescore_files, capsys):
    teacher, nbest, _ = rescore_files
    model_path, out = teacher / "model.dlm", tmp_path / "rescored"
    argv = ["rescore", "--model", str(model_path), "--nbest", str(nbest)]
    capsys.readouterr()
    assert dispatch(argv + ["--set", "lm_weight=0.5", "--out", str(out)]) == 0
    first = capsys.readouterr().out
    resolved = (out / "resolved.cfg").read_text().splitlines()
    assert resolved == ["lm_weight = 0.5", "word_insertion_penalty = 0.0"]
    header = _meta_lines(load_checkpoint(model_path).config)
    assert first.startswith("\n".join(["# resolved config", *resolved, "",
                                        f"# checkpoint {model_path}", *header, "", ""]))
    # the written file loads back and selects the same hypotheses
    assert dispatch(argv + ["--config", str(out / "resolved.cfg")]) == 0
    assert capsys.readouterr().out == first


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
        assert row.split()[1].startswith("worst=") and row.endswith("[ok]")


@pytest.mark.parametrize("option", [["--set", "a=1"], ["--config", "x.cfg"],
                                    ["--seed", "3"], ["--out", "runs"]],
                         ids=["set", "config", "seed", "out"])
def test_grad_check_takes_no_options(option, capsys):
    assert dispatch(["grad-check"] + option) == 1
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("source", ["config", "set", "seed"])
@pytest.mark.parametrize("command", ["train-teacher", "train-student", "ablate"])
def test_negative_seed_exits_1_naming_its_source(tmp_path, command, source, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# a seed below 0\nseed = -5\n", encoding="utf-8")
    argv, where = {"config": (["--config", str(cfg)], f"{cfg}:2"),
                   "set": (["--set", "seed=-5"], "--set seed"),
                   "seed": (["--seed", "-1"], "--seed")}[source]
    teacher = ["--teacher", "t.dlm"] if command == "train-student" else []
    assert dispatch([command, "--data-dir", str(tmp_path)] + teacher + argv) == 1
    assert f"error: {where}: bad value for seed: expected a seed >= 0" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["eval-ppl", "--model", "m.dlm", "--data", "test.txt"],
                                  ["rescore", "--model", "m.dlm", "--nbest", "nbest.tsv"]],
                         ids=["eval-ppl", "rescore"])
def test_seed_is_refused_where_nothing_is_seeded(argv, capsys):
    assert dispatch(argv + ["--seed", "3"]) == 1
    assert "unrecognized arguments: --seed 3" in capsys.readouterr().err


# Every option string each subcommand accepts, -h aside. A config option added where
# nothing reads it (--config on eval-ppl, --seed on rescore) fails here.
OPTIONS = {
    "train-teacher": {"--config", "--set", "--seed", "--data-dir", "--out"},
    "train-student": {"--config", "--set", "--seed", "--data-dir", "--out", "--teacher"},
    "eval-ppl": {"--model", "--data", "--vocab"},
    "rescore": {"--config", "--set", "--out", "--model", "--vocab", "--nbest", "--refs",
                "--sweep-lm-weight", "--sweep-wip"},
    "grad-check": set(),
    "ablate": {"--config", "--set", "--seed", "--data-dir", "--out"},
}


# The config keys each subcommand loads, in echo order; eval-ppl and grad-check load none.
# A key put in a table whose command does not read it (a rescore key on a training
# command, alpha on train-teacher) fails here.
STUDENT_KEYS = ["embed_dim", "lstm_layers", "hidden_dim", "last_hidden_dim", "bottleneck_dim",
                "num_experts", "input_dropout", "output_dropout", "hidden_dropout",
                "embed_dropout", "other_dropout", "ar_weight", "tar_weight", "loss_variant",
                "alpha", "lr", "grad_clip", "epochs", "batch_size", "bptt_len", "seed",
                "asgd_trigger_patience", "vocab_cap", "rnn_unk_min_count"]
KEYS = {
    "train-teacher": [k for k in STUDENT_KEYS if k != "alpha"],
    "train-student": STUDENT_KEYS,
    "rescore": ["lm_weight", "word_insertion_penalty"],
    "ablate": STUDENT_KEYS,
}


def test_each_subcommand_loads_exactly_its_keys(monkeypatch):
    loaded = []

    def record(*args, keys):
        loaded.append(list(keys))
        raise ConfigError("recorded")

    monkeypatch.setattr(cli_module, "load_config", record)
    argv = {"train-teacher": ["--data-dir", "d"],
            "train-student": ["--data-dir", "d", "--teacher", "t.dlm"],
            "rescore": ["--model", "m.dlm", "--nbest", "n.tsv"],
            "ablate": ["--data-dir", "d"]}
    got = {}
    for command, rest in argv.items():
        assert dispatch([command] + rest) == 1
        got[command] = loaded.pop()
    assert got == KEYS


def test_each_subcommand_takes_exactly_its_options():
    sub, = [a for a in cli_module._build_parser()._actions
            if isinstance(a, argparse._SubParsersAction)]
    got = {name: {o for a in sp._actions for o in a.option_strings} - {"-h", "--help"}
           for name, sp in sub.choices.items()}
    assert got == OPTIONS


def test_grad_check_row_fails_on_a_nan_error(monkeypatch):
    # the largest finite error (c) passes, and max by error alone passes over the NaN
    reports = {"a": GradCheckReport(1e-7), "b": GradCheckReport(float("nan")),
               "c": GradCheckReport(1e-6)}
    monkeypatch.setattr(cli_module, "grad_check_params", lambda loss_fn, params: reports)
    for name, report in grad_check_rows():
        assert name.endswith("worst=b") and not report.passed


def _fed_more(backward, calls):
    """backward, handed 1% more of every gradient it takes."""
    def skewed(*grads, **out):
        calls.append(backward)
        return backward(*(1.01 * g for g in grads), **out)
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


def test_ablate_prints_all_rows(tmp_path, data_dir, monkeypatch, capsys):
    # each row's valid_ppl is train()'s best_valid_ppl, which scored exactly the
    # params train() restores, so the table is what rescoring the model printed
    real_ppl, real_train = training_module.perplexity, cli_module.train
    calls, runs = [], []

    def counted(*args):
        calls.append(1)
        return real_ppl(*args)

    def checked(model, train_stream, valid_stream, cfg, **kw):
        result = real_train(model, train_stream, valid_stream, cfg, **kw)
        runs.append(1)
        assert result.best_valid_ppl == real_ppl(model, valid_stream)
        return result

    monkeypatch.setattr(training_module, "perplexity", counted)
    monkeypatch.setattr(cli_module, "perplexity", counted)
    monkeypatch.setattr(cli_module, "train", checked)
    epochs = 2
    # an output dropout and an AR weight make all six rows' (variant, dropout) pairs distinct
    rc = dispatch(["ablate", "--data-dir", str(data_dir)]
                  + sets(f"epochs={epochs}", "alpha=0.1", "output_dropout=0.1",
                         "ar_weight=1.0"))
    assert rc == 0
    stdout = capsys.readouterr().out
    for row in ("student+tr", "-ce(kl_only)", "-tr(fixed_weight)",
                "+dropout", "+act_reg", "-kd(ce_only)"):
        assert row in stdout, row
    assert "(mean over seeds" in stdout
    seeds, rows = 3, 6
    assert len(runs) == seeds + rows * seeds  # the teachers, then every row's students
    # one validation per epoch per run, and one test pass per student: no rescoring
    assert len(calls) == len(runs) * epochs + rows * seeds


def test_ablate_trains_each_distinct_row_once(data_dir, monkeypatch, capsys):
    # tiny-student.cfg sets no dropout and no AR/TAR, so +dropout and +act_reg are
    # student+tr's (trust_reg, no regularizer) students: their rows reuse its results
    real_train, runs = cli_module.train, []

    def counted(*args, **kw):
        runs.append(1)
        return real_train(*args, **kw)

    monkeypatch.setattr(cli_module, "train", counted)
    config = Path(__file__).resolve().parent.parent / "configs" / "tiny-student.cfg"
    assert dispatch(["ablate", "--data-dir", str(data_dir), "--config", str(config),
                     "--set", "epochs=1"]) == 0
    seeds, distinct_rows = 3, 4
    assert len(runs) == seeds + distinct_rows * seeds
    table = dict(line.split(maxsplit=1) for line in capsys.readouterr().out.splitlines()
                 if line.startswith(("student+tr", "+dropout", "+act_reg")))
    assert table["student+tr"] == table["+dropout"] == table["+act_reg"]
