"""Command-line interface.

Subcommands: train-teacher, train-student, eval-ppl, rescore, grad-check,
ablate. Hyperparameters come from a key=value config file plus repeatable
--set overrides; every run echoes its fully resolved config before doing any
work. Exit codes: 0 success, 1 user/config error, 2 internal error.
"""

from __future__ import annotations

import argparse
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import tensor as T
from .checkpoint import load_checkpoint, save_checkpoint
from .data import TokenStream, Vocabulary, build_vocab, encode
from .errors import ConfigError, DataError, UserError
from .losses import LOSS_VARIANTS, DistillLossSpec
from .model import ModelConfig, build_model, lstm_step, model_forward, mos_log_probs
from .regularization import DropoutSpec
from .rescore import (RescoreConfig, parse_nbest, parse_refs, rescore_nbest, wer)
from .tensor import Tensor, grad_check, grad_check_params
from .training import TeacherEnsemble, TrainConfig, perplexity, train

# ---------------------------------------------------------------------------
# run configuration


def _bool(text: str) -> bool:
    if text == "true":
        return True
    if text == "false":
        return False
    raise ValueError(f"expected true or false, got {text!r}")


def _opt_int(text: str) -> int | None:
    # 0 stands for "unset" so optional dims stay expressible in flat keys.
    v = int(text)
    return None if v == 0 else v


# key -> (parser, default). Declaration order is the echo order.
CONFIG_KEYS: dict[str, tuple] = {
    "embed_dim": (int, 16),
    "lstm_layers": (int, 1),
    "hidden_dim": (int, 32),
    "last_hidden_dim": (_opt_int, None),
    "bottleneck_dim": (int, 16),
    "num_experts": (int, 2),
    "expert_dim": (_opt_int, None),
    "tie_embeddings": (_bool, True),
    "input_dropout": (float, 0.0),
    "output_dropout": (float, 0.0),
    "hidden_dropout": (float, 0.0),
    "embed_dropout": (float, 0.0),
    "other_dropout": (float, 0.0),
    "ar_weight": (float, 0.0),
    "tar_weight": (float, 0.0),
    "loss_variant": (str, "ce_only"),
    "alpha": (float, 0.1),
    "lr": (float, 1.0),
    "grad_clip": (float, 0.25),
    "epochs": (int, 5),
    "batch_size": (int, 2),
    "bptt_len": (int, 8),
    "seed": (int, 0),
    "asgd_trigger_patience": (int, 0),
    "lr_decay_on_plateau": (float, 1.0),
    "vocab_cap": (int, 10000),
    "rnn_unk_min_count": (int, 0),
    "lm_weight": (float, 1.0),
    "word_insertion_penalty": (float, 0.0),
    "oov_mode": (str, "rnn_unk"),
    "oov_penalty": (float, -10.0),
}


@dataclass
class RunConfig:
    values: dict

    def __getitem__(self, key):
        return self.values[key]

    def dropout_spec(self) -> DropoutSpec:
        v = self.values
        return DropoutSpec(input_rate=v["input_dropout"], output_rate=v["output_dropout"],
                           hidden_rate=v["hidden_dropout"], embed_rate=v["embed_dropout"],
                           other_rate=v["other_dropout"], ar_weight=v["ar_weight"],
                           tar_weight=v["tar_weight"])

    def model_config(self, vocab_size: int, dropout: DropoutSpec | None = None) -> ModelConfig:
        v = self.values
        return ModelConfig(vocab_size=vocab_size, embed_dim=v["embed_dim"],
                           lstm_layers=v["lstm_layers"], hidden_dim=v["hidden_dim"],
                           bottleneck_dim=v["bottleneck_dim"], num_experts=v["num_experts"],
                           tie_embeddings=v["tie_embeddings"],
                           last_hidden_dim=v["last_hidden_dim"], expert_dim=v["expert_dim"],
                           dropout=self.dropout_spec() if dropout is None else dropout)

    def loss_spec(self, variant: str | None = None) -> DistillLossSpec:
        v = self.values
        return DistillLossSpec(variant=v["loss_variant"] if variant is None else variant,
                               alpha=v["alpha"])

    def train_config(self, loss: DistillLossSpec | None = None) -> TrainConfig:
        v = self.values
        return TrainConfig(loss=self.loss_spec() if loss is None else loss,
                           lr=v["lr"], grad_clip=v["grad_clip"], epochs=v["epochs"],
                           batch_size=v["batch_size"], bptt_len=v["bptt_len"],
                           seed=v["seed"],
                           asgd_trigger_patience=v["asgd_trigger_patience"],
                           lr_decay_on_plateau=v["lr_decay_on_plateau"])

    def rescore_config(self) -> RescoreConfig:
        v = self.values
        return RescoreConfig(lm_weight=v["lm_weight"],
                             word_insertion_penalty=v["word_insertion_penalty"],
                             oov_mode=v["oov_mode"], oov_penalty=v["oov_penalty"])

    def lines(self) -> list[str]:
        out = []
        for key in CONFIG_KEYS:
            v = self.values[key]
            if v is None:
                v = 0
            elif isinstance(v, bool):
                v = "true" if v else "false"
            out.append(f"{key} = {v}")
        return out


def _parse_value(key: str, raw: str, where: str):
    if key not in CONFIG_KEYS:
        raise ConfigError(f"{where}: unknown config key {key!r}")
    parser, _ = CONFIG_KEYS[key]
    try:
        return parser(raw)
    except ValueError as e:
        raise ConfigError(f"{where}: bad value for {key}: {e}") from None


def load_config(path=None, overrides: list[str] = (), seed: int | None = None) -> RunConfig:
    """Defaults, then the config file, then --set overrides, then --seed."""
    values = {k: d for k, (_, d) in CONFIG_KEYS.items()}
    if path is not None:
        try:
            text = Path(path).read_text(encoding="utf-8")
        except OSError as e:
            raise ConfigError(f"cannot read config {path}: {e}") from None
        for lineno, line in enumerate(text.splitlines(), 1):
            stripped = line.split("#", 1)[0].strip()
            if not stripped:
                continue
            key, sep, raw = stripped.partition("=")
            if not sep:
                raise ConfigError(f"{path}:{lineno}: expected key = value")
            key, raw = key.strip(), raw.strip()
            values[key] = _parse_value(key, raw, f"{path}:{lineno}")
    for item in overrides:
        key, sep, raw = item.partition("=")
        if not sep:
            raise ConfigError(f"--set needs key=value, got {item!r}")
        key, raw = key.strip(), raw.strip()
        values[key] = _parse_value(key, raw, f"--set {key}")
    if seed is not None:
        values["seed"] = seed
    return RunConfig(values)


def _echo_config(cfg: RunConfig, out_dir: Path | None) -> None:
    print("# resolved config")
    for line in cfg.lines():
        print(line)
    print()
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / "resolved.cfg").write_text("\n".join(cfg.lines()) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# shared helpers


def _read_lines(path: Path) -> list[str]:
    if not path.is_file():
        raise DataError(f"missing data file {path}")
    return path.read_text(encoding="utf-8").splitlines()


def _load_vocab_for_model(vocab_arg, model_path) -> Vocabulary:
    path = Path(vocab_arg) if vocab_arg else Path(model_path).parent / "vocab.txt"
    if not path.is_file():
        raise DataError(f"no vocabulary at {path}; pass --vocab")
    return Vocabulary.load(path)


def _train_streams(cfg: RunConfig, data_dir: Path) -> tuple[Vocabulary, TokenStream, TokenStream]:
    train_lines = _read_lines(data_dir / "train.txt")
    valid_lines = _read_lines(data_dir / "valid.txt")
    vocab = build_vocab(train_lines, cfg["vocab_cap"], cfg["rnn_unk_min_count"])
    return vocab, encode(train_lines, vocab), encode(valid_lines, vocab)


def _run_training(cfg: RunConfig, model, train_stream, valid_stream, teacher,
                  out_dir: Path | None, loss: DistillLossSpec) -> None:
    log_lines: list[str] = []

    def log(line):
        log_lines.append(line)
        print(line)

    result = train(model, train_stream, valid_stream, cfg.train_config(loss),
                   teacher=teacher, log_fn=log)
    print(f"best_valid_ppl={result.best_valid_ppl:.6f} best_epoch={result.best_epoch}")
    if out_dir is not None:
        save_checkpoint(model, out_dir / "model.dlm")
        (out_dir / "train.log").write_text("\n".join(log_lines) + "\n", encoding="utf-8")
        print(f"saved {out_dir / 'model.dlm'}")


# ---------------------------------------------------------------------------
# subcommands


def cmd_train_teacher(args) -> int:
    cfg = load_config(args.config, args.set, args.seed)
    out_dir = Path(args.out) if args.out else None
    _echo_config(cfg, out_dir)
    if cfg["loss_variant"] != "ce_only":
        raise ConfigError("train-teacher trains with loss_variant = ce_only; "
                          f"config says {cfg['loss_variant']!r}")
    vocab, train_stream, valid_stream = _train_streams(cfg, Path(args.data_dir))
    model = build_model(cfg.model_config(vocab.size), cfg["seed"])
    print(f"vocab={vocab.size} params={model.param_count}")
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
        vocab.save(out_dir / "vocab.txt")
    _run_training(cfg, model, train_stream, valid_stream, None, out_dir,
                  cfg.loss_spec("ce_only"))
    return 0


def cmd_train_student(args) -> int:
    cfg = load_config(args.config, args.set, args.seed)
    out_dir = Path(args.out) if args.out else None
    _echo_config(cfg, out_dir)
    loss = cfg.loss_spec()
    if not loss.needs_teacher:
        raise ConfigError("train-student needs a distillation loss_variant "
                          "(kl_only, fixed_interp, or trust_reg)")
    paths = [p for chunk in args.teacher for p in chunk.split(",") if p]
    teacher = TeacherEnsemble.from_checkpoints(paths)
    vocab, train_stream, valid_stream = _train_streams(cfg, Path(args.data_dir))
    if vocab.size != teacher.vocab_size:
        raise ConfigError(f"teacher vocab size {teacher.vocab_size} != "
                          f"data vocab size {vocab.size}")
    model = build_model(cfg.model_config(vocab.size), cfg["seed"])
    print(f"vocab={vocab.size} params={model.param_count} teachers={len(paths)}")
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
        vocab.save(out_dir / "vocab.txt")
    _run_training(cfg, model, train_stream, valid_stream, teacher, out_dir, loss)
    return 0


def cmd_eval_ppl(args) -> int:
    cfg = load_config(args.config, args.set, args.seed)
    _echo_config(cfg, Path(args.out) if args.out else None)
    model = load_checkpoint(args.model)
    vocab = _load_vocab_for_model(args.vocab, args.model)
    if vocab.size != model.config.vocab_size:
        raise ConfigError(f"model was built for {model.config.vocab_size} words "
                          f"but the vocabulary has {vocab.size}")
    stream = encode(_read_lines(Path(args.data)), vocab)
    ppl = perplexity(model, stream)
    print(f"ppl={ppl:.6f}")
    return 0


def cmd_rescore(args) -> int:
    cfg = load_config(args.config, args.set, args.seed)
    _echo_config(cfg, Path(args.out) if args.out else None)
    model = load_checkpoint(args.model)
    vocab = _load_vocab_for_model(args.vocab, args.model)
    if vocab.size != model.config.vocab_size:
        raise ConfigError(f"model was built for {model.config.vocab_size} words "
                          f"but the vocabulary has {vocab.size}")
    nbest = parse_nbest(_read_lines(Path(args.nbest)), args.nbest)
    refs = parse_refs(_read_lines(Path(args.refs)), args.refs) if args.refs else None

    sweeps = _sweep_grid(args)
    if sweeps is not None:
        if refs is None:
            raise ConfigError("--sweep-lm-weight/--sweep-wip need --refs to score against")
        best = None
        for lm_w, wip in sweeps:
            rc = RescoreConfig(lm_weight=lm_w, word_insertion_penalty=wip,
                               oov_mode=cfg["oov_mode"], oov_penalty=cfg["oov_penalty"])
            selected = rescore_nbest(model, vocab, nbest, rc)
            report = wer(refs, {u: e.words for u, e in selected.items()})
            print(f"lm_weight={lm_w:g} wip={wip:g} {report.line()}")
            if best is None or report.wer_percent < best[0]:
                best = (report.wer_percent, lm_w, wip)
        print(f"best: lm_weight={best[1]:g} wip={best[2]:g} WER={best[0]:.2f}%")
        return 0

    selected = rescore_nbest(model, vocab, nbest, cfg.rescore_config())
    for utt in sorted(selected):
        print(f"{utt}\t{' '.join(selected[utt].words)}")
    if refs is not None:
        report = wer(refs, {u: e.words for u, e in selected.items()})
        print(report.line())
    return 0


def _sweep_grid(args):
    if not args.sweep_lm_weight and not args.sweep_wip:
        return None
    try:
        lm_ws = [float(x) for x in (args.sweep_lm_weight or "1.0").split(",")]
        wips = [float(x) for x in (args.sweep_wip or "0.0").split(",")]
    except ValueError as e:
        raise ConfigError(f"bad sweep grid: {e}") from None
    return [(lw, wp) for lw in lm_ws for wp in wips]


def cmd_grad_check(args) -> int:
    cfg = load_config(args.config, args.set, args.seed)
    _echo_config(cfg, None)
    rows = _grad_check_suite(seeds=range(10))
    width = max(len(name) for name, _ in rows)
    ok = True
    for name, report in rows:
        ok &= report.passed
        print(f"{name:<{width}}  {report}")
    print("grad-check: all ok" if ok else "grad-check: FAILURES above")
    return 0 if ok else 1


def _grad_check_makers() -> list[tuple[str, object]]:
    """(name, make) pairs; make(rng) returns (scalar_fn, tensor_under_test)."""
    from .losses import ce_loss, fixed_interp_loss, kl_loss, tr_loss

    def rnd(rng, *shape):
        return Tensor(rng.standard_normal(shape))

    def weighted_sum(rng, shape):
        # Reduce through a fixed random weighting so every element matters.
        w = Tensor(rng.standard_normal(shape))
        return lambda t: T.sum_all(T.mul(t, w))

    def unary(op):
        def make(rng):
            red = weighted_sum(rng, (4, 5))
            return lambda x: red(op(x)), rnd(rng, 4, 5)
        return make

    def make_matmul(rng):
        w = rnd(rng, 5, 3)
        red = weighted_sum(rng, (4, 3))
        return lambda x: red(T.matmul(x, w)), rnd(rng, 4, 5)

    def make_matmul_rhs(rng):
        a = rnd(rng, 3, 4)
        red = weighted_sum(rng, (3, 6))
        return lambda x: red(T.matmul(a, x)), rnd(rng, 4, 6)

    def make_add(rng):
        b = rnd(rng, 4, 5)
        red = weighted_sum(rng, (4, 5))
        return lambda x: red(T.add(x, b)), rnd(rng, 4, 5)

    def make_add_bias(rng):
        a = rnd(rng, 4, 5)
        red = weighted_sum(rng, (4, 5))
        return lambda x: red(T.add(a, x)), rnd(rng, 5)

    def make_sub(rng):
        b = rnd(rng, 4, 5)
        red = weighted_sum(rng, (4, 5))
        return lambda x: red(T.sub(x, b)), rnd(rng, 4, 5)

    def make_mul(rng):
        b = rnd(rng, 4, 5)
        red = weighted_sum(rng, (4, 5))
        return lambda x: red(T.mul(x, b)), rnd(rng, 4, 5)

    def make_scale(rng):
        red = weighted_sum(rng, (4, 5))
        return lambda x: red(T.scale(x, 0.37)), rnd(rng, 4, 5)

    def make_transpose(rng):
        red = weighted_sum(rng, (5, 4))
        return lambda x: red(T.transpose(x)), rnd(rng, 4, 5)

    def make_log_mix(rng):
        # K=3 experts stacked expert-major over n=4 rows
        block = Tensor(rng.standard_normal((3 * 4, 6)))
        red = weighted_sum(rng, (4, 6))

        def f(x):
            log_pi = T.log_softmax_rows(x)
            return red(T.log_mix(log_pi, T.log_softmax_rows(block)))

        return f, rnd(rng, 4, 3)

    def make_embedding(rng):
        ids = rng.integers(0, 7, size=9)
        red = weighted_sum(rng, (9, 3))
        return lambda x: red(T.embedding_rows(x, ids)), rnd(rng, 7, 3)

    def make_pick(rng):
        ids = rng.integers(0, 5, size=4)
        red = weighted_sum(rng, (4,))
        return lambda x: red(T.pick_cols(x, ids)), rnd(rng, 4, 5)

    def make_slice(rng):
        red = weighted_sum(rng, (4, 2))
        return lambda x: red(T.slice_cols(x, 1, 3)), rnd(rng, 4, 5)

    def make_concat(rng):
        b = rnd(rng, 2, 5)
        red = weighted_sum(rng, (6, 5))
        return lambda x: red(T.concat_rows([x, b, x])), rnd(rng, 2, 5)

    def make_lstm_step(rng):
        h, c = rnd(rng, 3, 4), rnd(rng, 3, 4)
        wx, wh, b = rnd(rng, 5, 16), rnd(rng, 4, 16), rnd(rng, 16)
        red = weighted_sum(rng, (3, 4))

        def f(x):
            h2, c2 = lstm_step(x, h, c, wx, wh, b)
            return T.add(red(h2), T.mean_all(T.mul(c2, c2)))

        return f, rnd(rng, 3, 5)

    def tiny_model(rng):
        config = ModelConfig(vocab_size=10, embed_dim=4, lstm_layers=1, hidden_dim=8,
                             bottleneck_dim=4, num_experts=2)
        return build_model(config, int(rng.integers(0, 2 ** 31)))

    def make_mos(rng):
        model = tiny_model(rng)
        red = weighted_sum(rng, (3, 10))
        return lambda x: red(mos_log_probs(model, x)), rnd(rng, 3, 4)

    def loss_through_log_softmax(loss_of_log_p):
        def make(rng):
            y = rng.integers(0, 6, size=4)
            q_raw = rng.uniform(0.1, 1.0, (4, 6))
            q = q_raw / q_raw.sum(axis=1, keepdims=True)
            return lambda x: loss_of_log_p(T.log_softmax_rows(x), q, y), rnd(rng, 4, 6)
        return make

    def make_sum_all(rng):
        return lambda x: T.sum_all(x), rnd(rng, 4, 5)

    return [
        ("matmul(lhs)", make_matmul),
        ("matmul(rhs)", make_matmul_rhs),
        ("add", make_add),
        ("add(bias)", make_add_bias),
        ("sub", make_sub),
        ("mul", make_mul),
        ("scale", make_scale),
        ("neg", unary(T.neg)),
        ("transpose", make_transpose),
        ("sigmoid", unary(T.sigmoid)),
        ("tanh", unary(T.tanh)),
        ("log_softmax_rows", unary(T.log_softmax_rows)),
        ("log_mix", make_log_mix),
        ("embedding_rows", make_embedding),
        ("pick_cols", make_pick),
        ("slice_cols", make_slice),
        ("concat_rows", make_concat),
        ("sum_all", make_sum_all),
        ("mean_all", lambda rng: (lambda x: T.mean_all(x), rnd(rng, 4, 5))),
        ("lstm_step", make_lstm_step),
        ("mos_log_probs", make_mos),
        ("ce_loss", loss_through_log_softmax(lambda lp, q, y: ce_loss(lp, y))),
        ("kl_loss", loss_through_log_softmax(lambda lp, q, y: kl_loss(lp, q))),
        ("fixed_interp_loss",
         loss_through_log_softmax(lambda lp, q, y: fixed_interp_loss(lp, q, y, 0.3))),
        ("tr_loss", loss_through_log_softmax(lambda lp, q, y: tr_loss(lp, q, y, 0.5))),
    ]


def _grad_check_suite(seeds) -> list[tuple[str, object]]:
    """Worst-of-N-seeds finite-difference report per op, plus the full model."""
    rows = []
    for name, make in _grad_check_makers():
        worst = None
        for seed in seeds:
            f, x = make(np.random.default_rng(seed))
            report = grad_check(f, x)
            if worst is None or report.max_rel_err > worst.max_rel_err:
                worst = report
        rows.append((name, worst))
    rows.append(("model(all params)", _model_grad_check(seed=0)))
    return rows


def _model_grad_check(seed: int):
    """grad_check_params over a tiny model's full CE loss; worst report."""
    from .losses import ce_loss
    from .model import flatten_targets
    from .tensor import GradCheckReport

    config = ModelConfig(vocab_size=10, embed_dim=4, lstm_layers=1, hidden_dim=8,
                         bottleneck_dim=4, num_experts=2)
    model = build_model(config, seed)
    rng = np.random.default_rng(seed + 1)
    tokens = rng.integers(0, 10, size=(2, 3))
    targets = rng.integers(0, 10, size=(2, 3))

    def loss_fn():
        out = model_forward(model, tokens, model.init_state(2))
        return ce_loss(out.log_probs, flatten_targets(targets))

    reports = grad_check_params(loss_fn, model.parameters())
    worst = max(reports.values(), key=lambda r: r.max_rel_err)
    return GradCheckReport(worst.max_rel_err,
                           all(r.passed for r in reports.values()),
                           worst.tol, worst.step)


def cmd_ablate(args) -> int:
    cfg = load_config(args.config, args.set, args.seed)
    _echo_config(cfg, Path(args.out) if args.out else None)
    data_dir = Path(args.data_dir)
    train_lines = _read_lines(data_dir / "train.txt")
    valid_lines = _read_lines(data_dir / "valid.txt")
    test_path = data_dir / "test.txt"
    test_lines = _read_lines(test_path) if test_path.is_file() else None

    vocab = build_vocab(train_lines, cfg["vocab_cap"], cfg["rnn_unk_min_count"])
    train_stream = encode(train_lines, vocab)
    valid_stream = encode(valid_lines, vocab)
    test_stream = encode(test_lines, vocab) if test_lines is not None else None

    dropout = cfg.dropout_spec()
    plain = DropoutSpec()
    reg_only = DropoutSpec(ar_weight=dropout.ar_weight, tar_weight=dropout.tar_weight)
    drop_only = DropoutSpec(input_rate=dropout.input_rate, output_rate=dropout.output_rate,
                            hidden_rate=dropout.hidden_rate, embed_rate=dropout.embed_rate,
                            other_rate=dropout.other_rate)
    alpha = cfg["alpha"]
    rows = [
        ("student+tr", "trust_reg", alpha, plain, True),
        ("-ce(kl_only)", "kl_only", alpha, plain, True),
        ("-tr(fixed_weight)", "fixed_interp", alpha, plain, True),
        ("+dropout", "trust_reg", alpha, drop_only, True),
        ("+act_reg", "trust_reg", alpha, reg_only, True),
        ("-kd(ce_only)", "ce_only", alpha, drop_only, False),
    ]
    seeds = [cfg["seed"] + i for i in range(3)]

    teachers = {}
    for seed in seeds:
        tm = build_model(cfg.model_config(vocab.size, dropout=plain), seed + 100)
        tcfg = cfg.train_config(DistillLossSpec(variant="ce_only"))
        tcfg.seed = seed + 100
        train(tm, train_stream, valid_stream, tcfg)
        teachers[seed] = TeacherEnsemble([tm])

    print(f"{'row':<20} {'valid_ppl':>10} {'test_ppl':>10}   (mean over seeds {seeds})")
    for name, variant, a, spec, needs_teacher in rows:
        vppls, tppls = [], []
        for seed in seeds:
            model = build_model(cfg.model_config(vocab.size, dropout=spec), seed)
            loss = DistillLossSpec(variant=variant, alpha=a)
            run_cfg = cfg.train_config(loss)
            run_cfg.seed = seed
            train(model, train_stream, valid_stream, run_cfg,
                  teacher=teachers[seed] if needs_teacher else None)
            vppls.append(perplexity(model, valid_stream))
            if test_stream is not None:
                tppls.append(perplexity(model, test_stream))
        vmean = sum(vppls) / len(vppls)
        tmean = f"{sum(tppls) / len(tppls):10.3f}" if tppls else f"{'-':>10}"
        print(f"{name:<20} {vmean:10.3f} {tmean}")
    return 0


# ---------------------------------------------------------------------------
# dispatch


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError(message)


def _build_parser() -> _Parser:
    p = _Parser(prog="lmdistill", description=__doc__)
    sub = p.add_subparsers(dest="command")

    def common(sp, data_dir=False, out=False):
        sp.add_argument("--config", help="key = value config file")
        sp.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                        help="override one config key (repeatable)")
        sp.add_argument("--seed", type=int, help="override the seed key")
        if data_dir:
            sp.add_argument("--data-dir", required=True,
                            help="directory with train.txt and valid.txt")
        if out:
            sp.add_argument("--out", help="output directory")
        else:
            sp.add_argument("--out", help="directory for resolved.cfg")

    sp = sub.add_parser("train-teacher", help="train one teacher with CE loss")
    common(sp, data_dir=True, out=True)

    sp = sub.add_parser("train-student", help="distill a student from teachers")
    common(sp, data_dir=True, out=True)
    sp.add_argument("--teacher", action="append", required=True, metavar="CKPT[,CKPT...]",
                    help="teacher checkpoint(s); repeatable or comma-separated")

    sp = sub.add_parser("eval-ppl", help="perplexity of a checkpoint on a text file")
    common(sp)
    sp.add_argument("--model", required=True)
    sp.add_argument("--data", required=True)
    sp.add_argument("--vocab", help="vocabulary file (default: vocab.txt beside the model)")

    sp = sub.add_parser("rescore", help="rescore an N-best list")
    common(sp)
    sp.add_argument("--model", required=True)
    sp.add_argument("--vocab")
    sp.add_argument("--nbest", required=True)
    sp.add_argument("--refs", help="reference transcripts; adds a WER line")
    sp.add_argument("--sweep-lm-weight", metavar="W1,W2,...",
                    help="grid-search lm_weight values (needs --refs)")
    sp.add_argument("--sweep-wip", metavar="P1,P2,...",
                    help="grid-search word insertion penalties (needs --refs)")

    sp = sub.add_parser("grad-check", help="finite-difference check of every op")
    common(sp)

    sp = sub.add_parser("ablate", help="loss/regularizer switch matrix over 3 seeds")
    common(sp, data_dir=True, out=True)

    return p


_COMMANDS = {
    "train-teacher": cmd_train_teacher,
    "train-student": cmd_train_student,
    "eval-ppl": cmd_eval_ppl,
    "rescore": cmd_rescore,
    "grad-check": cmd_grad_check,
    "ablate": cmd_ablate,
}


def dispatch(argv: list[str]) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            parser.print_usage(sys.stderr)
            return 1
        return _COMMANDS[args.command](args)
    except UserError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except Exception:
        traceback.print_exc()
        return 2


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))
