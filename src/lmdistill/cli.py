"""Command-line interface.

Subcommands: train-teacher, train-student, eval-ppl, rescore, grad-check,
ablate. Each command that takes a config reads only its own key table (below)
from a key=value config file plus repeatable --set overrides, refuses any other
key, and echoes the resolved values before doing any work.
eval-ppl and rescore echo the loaded checkpoint's own model config; eval-ppl
and grad-check take no config at all. Exit codes: 0 success, 1 user/config
error, 2 internal error.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
import traceback
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .checkpoint import _meta_lines, load_checkpoint, save_checkpoint
from .data import BpttBatch, TokenStream, Vocabulary, atomic_open, build_vocab, encode, read_lines
from .errors import ConfigError, DataError, UserError
from .losses import LOSS_VARIANTS, DistillLossSpec
from .model import ModelConfig, build_model, param_count
from .regularization import DropoutSpec
from .rescore import (RescoreConfig, parse_nbest, parse_refs, rescore_nbest, wer)
from .training import TeacherEnsemble, TrainConfig, perplexity, step_loss, train

# ---------------------------------------------------------------------------
# run configuration


def _finite(text: str) -> float:
    v = float(text)
    if not math.isfinite(v):
        raise ValueError(f"expected a finite number, got {text!r}")
    return v


def _ce_only(text: str) -> str:
    if text != "ce_only":
        raise ValueError(f"train-teacher trains with ce_only, got {text!r}")
    return text


def _seed(text: str) -> int:
    v = int(text)
    if v < 0:
        raise ValueError(f"expected a seed >= 0, got {text!r}")
    return v


def _opt_int(text: str) -> int | None:
    # 0 stands for "unset" so optional dims stay expressible in flat keys.
    v = int(text)
    return None if v == 0 else v


# Each command's table of the keys it reads, key -> (parser, default), in echo order.
RESCORE_KEYS: dict[str, tuple] = {  # rescore
    "lm_weight": (_finite, 1.0),
    "word_insertion_penalty": (_finite, 0.0),
}
CONFIG_KEYS: dict[str, tuple] = {  # train-student; ablate, whose fixed rows skip loss_variant
    "embed_dim": (int, 16),
    "lstm_layers": (int, 1),
    "hidden_dim": (int, 32),
    "last_hidden_dim": (_opt_int, None),
    "bottleneck_dim": (int, 16),
    "num_experts": (int, 2),
    "input_dropout": (_finite, 0.0),
    "output_dropout": (_finite, 0.0),
    "hidden_dropout": (_finite, 0.0),
    "embed_dropout": (_finite, 0.0),
    "other_dropout": (_finite, 0.0),
    "ar_weight": (_finite, 0.0),
    "tar_weight": (_finite, 0.0),
    "loss_variant": (str, "ce_only"),
    "alpha": (_finite, 0.1),
    "lr": (_finite, 1.0),
    "grad_clip": (_finite, 0.25),
    "epochs": (int, 5),
    "batch_size": (int, 2),
    "bptt_len": (int, 8),
    "seed": (_seed, 0),
    "asgd_trigger_patience": (int, 0),
    "vocab_cap": (int, 10000),
    "rnn_unk_min_count": (int, 0),
}
TEACHER_KEYS: dict[str, tuple] = {  # train-teacher
    k: (_ce_only, "ce_only") if k == "loss_variant" else pd
    for k, pd in CONFIG_KEYS.items() if k != "alpha"}


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
                           last_hidden_dim=v["last_hidden_dim"],
                           dropout=self.dropout_spec() if dropout is None else dropout)

    def loss_spec(self) -> DistillLossSpec:
        return DistillLossSpec(variant=self.values["loss_variant"], alpha=self.values["alpha"])

    def train_config(self, loss: DistillLossSpec) -> TrainConfig:
        v = self.values
        return TrainConfig(loss=loss, lr=v["lr"], grad_clip=v["grad_clip"], epochs=v["epochs"],
                           batch_size=v["batch_size"], bptt_len=v["bptt_len"], seed=v["seed"],
                           asgd_trigger_patience=v["asgd_trigger_patience"])

    def rescore_config(self) -> RescoreConfig:
        v = self.values
        return RescoreConfig(lm_weight=v["lm_weight"],
                             word_insertion_penalty=v["word_insertion_penalty"])

    def lines(self) -> list[str]:
        return [f"{key} = {0 if v is None else v}" for key, v in self.values.items()]


def _parse_value(key: str, raw: str, where: str, keys: dict[str, tuple]):
    if key not in keys:
        raise ConfigError(f"{where}: unknown config key {key!r}")
    parser, _ = keys[key]
    try:
        return parser(raw)
    except ValueError as e:
        raise ConfigError(f"{where}: bad value for {key}: {e}") from None


def load_config(path=None, overrides: list[str] = (), seed: str | None = None, *,
                keys: dict[str, tuple]) -> RunConfig:
    """Defaults, then the config file, then --set overrides, then --seed, over keys."""
    values = {k: d for k, (_, d) in keys.items()}
    if path is not None:
        for lineno, line in enumerate(read_lines(path, ConfigError), 1):
            stripped = line.split("#", 1)[0].strip()
            if not stripped:
                continue
            key, sep, raw = stripped.partition("=")
            if not sep:
                raise ConfigError(f"{path}:{lineno}: expected key = value")
            key, raw = key.strip(), raw.strip()
            values[key] = _parse_value(key, raw, f"{path}:{lineno}", keys)
    for item in overrides:
        key, sep, raw = item.partition("=")
        if not sep:
            raise ConfigError(f"--set needs key=value, got {item!r}")
        key, raw = key.strip(), raw.strip()
        values[key] = _parse_value(key, raw, f"--set {key}", keys)
    if seed is not None:
        values["seed"] = _parse_value("seed", seed, "--seed", keys)
    return RunConfig(values)


def _echo_config(cfg: RunConfig, out_dir: Path | None) -> None:
    print("# resolved config", *cfg.lines(), "", sep="\n")
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
        with atomic_open(out_dir / "resolved.cfg") as f:
            f.write("\n".join(cfg.lines()) + "\n")


# ---------------------------------------------------------------------------
# shared helpers


def _load_model_and_vocab(args):
    """The --model checkpoint, its config echoed as its header has it, and its
    vocabulary (--vocab, or vocab.txt beside it)."""
    model = load_checkpoint(args.model)
    print(f"# checkpoint {args.model}", *_meta_lines(model.config), "", sep="\n")
    path = Path(args.vocab or Path(args.model).parent / "vocab.txt")
    if not args.vocab and not path.is_file():  # an explicit --vocab's reader names the OS reason
        raise DataError(f"no vocabulary at {path}; pass --vocab")
    vocab = Vocabulary.load(path)
    if vocab.size != model.config.vocab_size:
        raise ConfigError(f"model was built for {model.config.vocab_size} words "
                          f"but the vocabulary has {vocab.size}")
    return model, vocab


def _train_streams(cfg: RunConfig, data_dir: Path) -> tuple[Vocabulary, TokenStream, TokenStream]:
    train_lines = read_lines(data_dir / "train.txt")
    valid_lines = read_lines(data_dir / "valid.txt")
    vocab = build_vocab(train_lines, cfg["vocab_cap"], cfg["rnn_unk_min_count"])
    return vocab, encode(train_lines, vocab), encode(valid_lines, vocab)


# ---------------------------------------------------------------------------
# subcommands


def _train_command(args, keys, loss_of, teacher_paths=None) -> int:
    """train-teacher and train-student over their key tables: loss_of(cfg) returns the
    loss; the student distils from the teachers at teacher_paths."""
    cfg = load_config(args.config, args.set, args.seed, keys=keys)
    out_dir = Path(args.out) if args.out else None
    _echo_config(cfg, out_dir)
    loss = loss_of(cfg)
    vocab, train_stream, valid_stream = _train_streams(cfg, Path(args.data_dir))
    labels = None if teacher_paths is None else _teachers(teacher_paths, vocab)
    model = build_model(cfg.model_config(vocab.size), cfg["seed"])
    suffix = "" if teacher_paths is None else f" teachers={len(teacher_paths)}"
    print(f"vocab={vocab.size} params={param_count(model.config)}{suffix}")
    if out_dir is not None:  # _echo_config made it
        vocab.save(out_dir / "vocab.txt")

    result = train(model, train_stream, valid_stream, cfg.train_config(loss),
                   labels=labels, log_fn=print)
    print(f"best_valid_ppl={result.best_valid_ppl:.6f} best_epoch={result.best_epoch}")
    if out_dir is not None:
        save_checkpoint(model, out_dir / "model.dlm")
        with atomic_open(out_dir / "train.log") as f:
            f.write("".join(f"{e.line()}\n" for e in result.logs))
        print(f"saved {out_dir / 'model.dlm'}")
    return 0


def _teachers(paths: list[str], vocab: Vocabulary) -> TeacherEnsemble:
    """The checkpoints at paths as one ensemble. A vocab.txt beside a checkpoint, as
    train-teacher --out writes it, must hold the student's words id for id; train()
    checks the vocabulary sizes, the only check for a teacher without one."""
    for p in paths:
        beside = Path(p).parent / "vocab.txt"
        if beside.is_file():
            pairs = zip(Vocabulary.load(beside).words, vocab.words)
            for i, (theirs, ours) in enumerate(pairs):
                if theirs != ours:
                    raise ConfigError(f"{beside}: word id {i} is {theirs!r}, "
                                      f"the student's is {ours!r}")
    return TeacherEnsemble([load_checkpoint(p) for p in paths])


def cmd_train_teacher(args) -> int:
    return _train_command(args, TEACHER_KEYS, lambda cfg: DistillLossSpec())


def cmd_train_student(args) -> int:
    def loss_of(cfg):
        loss = cfg.loss_spec()
        if not loss.needs_teacher:
            raise ConfigError(f"train-student needs a distillation loss; loss_variant = "
                              f"{loss.variant} at alpha = {loss.alpha:g} reads no teacher")
        return loss

    paths = [p for chunk in args.teacher for p in chunk.split(",") if p]
    return _train_command(args, CONFIG_KEYS, loss_of, paths)


def cmd_eval_ppl(args) -> int:
    model, vocab = _load_model_and_vocab(args)
    stream = encode(read_lines(args.data), vocab)
    ppl = perplexity(model, stream)
    print(f"ppl={ppl:.6f}")
    return 0


def cmd_rescore(args) -> int:
    cfg = load_config(args.config, args.set, keys=RESCORE_KEYS)
    _echo_config(cfg, Path(args.out) if args.out else None)
    model, vocab = _load_model_and_vocab(args)
    nbest = parse_nbest(read_lines(args.nbest), args.nbest)
    refs = parse_refs(read_lines(args.refs), args.refs) if args.refs else None

    base = cfg.rescore_config()
    sweeps = _sweep_grid(args, base)
    if sweeps is not None:
        if refs is None:
            raise ConfigError("--sweep-lm-weight/--sweep-wip need --refs to score against")
        best, lm_scores = None, {}  # the first sweep point scores; the rest reuse
        for rc in sweeps:
            selected = rescore_nbest(model, vocab, nbest, rc, lm_scores)
            report = wer(refs, {u: e.words for u, e in selected.items()})
            point = f"lm_weight={rc.lm_weight:g} wip={rc.word_insertion_penalty:g}"
            print(f"{point} {report.line()}")
            if best is None or report.wer_percent < best[0]:
                best = (report.wer_percent, point)
        print(f"best: {best[1]} WER={best[0]:.2f}%")
        return 0

    selected = rescore_nbest(model, vocab, nbest, base)
    for utt in sorted(selected):
        print(f"{utt}\t{' '.join(selected[utt].words)}")
    if refs is not None:
        report = wer(refs, {u: e.words for u, e in selected.items()})
        print(report.line())
    return 0


def _sweep_grid(args, base: RescoreConfig) -> list[RescoreConfig] | None:
    """The sweep's grid points, lm weight major; an axis not swept keeps base's value."""
    if not args.sweep_lm_weight and not args.sweep_wip:
        return None
    try:
        lm_ws = ([_finite(x) for x in args.sweep_lm_weight.split(",")]
                 if args.sweep_lm_weight else [base.lm_weight])
        wips = ([_finite(x) for x in args.sweep_wip.split(",")]
                if args.sweep_wip else [base.word_insertion_penalty])
    except ValueError as e:
        raise ConfigError(f"bad sweep grid: {e}") from None
    return [replace(base, lm_weight=lw, word_insertion_penalty=wp) for lw in lm_ws for wp in wips]


def cmd_grad_check(args) -> int:
    rows = grad_check_rows()
    width = max(len(name) for name, _ in rows)
    ok = True
    for name, report in rows:
        ok &= report.passed
        print(f"{name:<{width}}  {report}")
    print("grad-check: all ok" if ok else "grad-check: FAILURES above")
    return 0 if ok else 1


# The central-difference step, the largest relative error that passes, and the error's
# denominator floor, which absorbs the differences' noise where the true gradient is ~0.
_STEP, _TOL, _REL_FLOOR = 1e-5, 1e-4, 1e-4


@dataclass
class GradCheckReport:
    max_rel_err: float

    @property
    def passed(self) -> bool:
        return self.max_rel_err <= _TOL  # False for NaN

    def __str__(self) -> str:
        verdict = "ok" if self.passed else "FAIL"
        return f"max_rel_err={self.max_rel_err:.3e} tol={_TOL:g} [{verdict}]"


def grad_check_params(loss_fn, params: dict[str, np.ndarray]) -> dict[str, GradCheckReport]:
    """Hand-written gradient against central finite differences, per named parameter.

    loss_fn() recomputes the scalar loss from the params' current values and
    returns it with its gradients, keyed as params; finite differences perturb
    each parameter in place.
    """
    analytic = loss_fn()[1]
    reports = {}
    for name, p in params.items():
        numeric = np.zeros_like(p)
        flat = p.reshape(-1)
        nflat = numeric.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + _STEP
            plus = float(loss_fn()[0])
            flat[i] = orig - _STEP
            minus = float(loss_fn()[0])
            flat[i] = orig
            nflat[i] = (plus - minus) / (2.0 * _STEP)
        a = analytic[name]
        denom = np.maximum(np.abs(a) + np.abs(numeric), _REL_FLOOR)
        max_rel = float(np.max(np.abs(a - numeric) / denom)) if flat.size else 0.0
        reports[name] = GradCheckReport(max_rel)
    return reports


def grad_check_rows() -> list[tuple[str, GradCheckReport]]:
    """Finite-difference check of the full training loss, one row per loss variant.

    The loss is training.step_loss, the function train() calls: model_forward
    in train mode, distill_loss, plus activation_reg. The tiny model has two
    LSTM layers (the last narrower), K=3 experts, every dropout and AR/TAR on,
    and the output matrix tied to the embedding. Each row names the variant and the
    parameter with the worst relative error.
    """
    vocab, lanes, steps, seed = 8, 2, 3, 0
    rng = np.random.default_rng(seed)
    batch = BpttBatch(rng.integers(0, vocab, size=(lanes, steps)),
                      rng.integers(0, vocab, size=(lanes, steps)))
    q = rng.dirichlet(np.ones(vocab), size=lanes * steps)
    rates = DropoutSpec(input_rate=0.2, output_rate=0.2, hidden_rate=0.2, embed_rate=0.2,
                        other_rate=0.2, ar_weight=2.0, tar_weight=1.0)
    rows = []
    config = ModelConfig(vocab_size=vocab, embed_dim=3, lstm_layers=2, hidden_dim=4,
                         last_hidden_dim=3, bottleneck_dim=3, num_experts=3, dropout=rates)
    for i, variant in enumerate(LOSS_VARIANTS):
        model = build_model(config, seed + i)
        spec = DistillLossSpec(variant=variant, alpha=0.3)
        soft = q if spec.needs_teacher else None

        def loss_fn():
            # A fresh generator per evaluation draws the same masks every time.
            return step_loss(model, batch, model.init_state(lanes), spec, soft,
                             np.random.default_rng(seed))[:2]

        reports = grad_check_params(loss_fn, model.params)
        # a failed report (NaN included) outranks every passed one
        worst_name, worst = max(reports.items(),
                                key=lambda kv: (not kv[1].passed, kv[1].max_rel_err))
        rows.append((f"{variant} worst={worst_name}", worst))
    return rows


def cmd_ablate(args) -> int:
    cfg = load_config(args.config, args.set, args.seed, keys=CONFIG_KEYS)
    _echo_config(cfg, Path(args.out) if args.out else None)
    data_dir = Path(args.data_dir)
    vocab, train_stream, valid_stream = _train_streams(cfg, data_dir)
    test_path = data_dir / "test.txt"
    test_stream = encode(read_lines(test_path), vocab) if test_path.is_file() else None

    dropout = cfg.dropout_spec()
    plain = DropoutSpec()
    reg_only = DropoutSpec(ar_weight=dropout.ar_weight, tar_weight=dropout.tar_weight)
    drop_only = replace(dropout, ar_weight=0.0, tar_weight=0.0)
    alpha = cfg["alpha"]
    rows = [
        ("student+tr", "trust_reg", plain),
        ("-ce(kl_only)", "kl_only", plain),
        ("-tr(fixed_weight)", "fixed_interp", plain),
        ("+dropout", "trust_reg", drop_only),
        ("+act_reg", "trust_reg", reg_only),
        ("-kd(ce_only)", "ce_only", drop_only),
    ]
    seeds = [cfg["seed"] + i for i in range(3)]

    teachers = {}
    for seed in seeds:
        tm = build_model(cfg.model_config(vocab.size, dropout=plain), seed + 100)
        tcfg = replace(cfg.train_config(DistillLossSpec(variant="ce_only")), seed=seed + 100)
        train(tm, train_stream, valid_stream, tcfg)
        teachers[seed] = TeacherEnsemble([tm])

    @functools.cache  # a row whose (variant, dropout) an earlier row ran reuses its students
    def columns(variant: str, spec: DropoutSpec) -> str:
        loss = DistillLossSpec(variant=variant, alpha=alpha)
        vppls, tppls = [], []
        for seed in seeds:
            model = build_model(cfg.model_config(vocab.size, dropout=spec), seed)
            run_cfg = replace(cfg.train_config(loss), seed=seed)
            result = train(model, train_stream, valid_stream, run_cfg,
                           labels=teachers[seed] if loss.needs_teacher else None)
            vppls.append(result.best_valid_ppl)  # the restored params' score; inf if none
            if test_stream is not None:
                tppls.append(perplexity(model, test_stream))
        tmean = f"{sum(tppls) / len(tppls):10.3f}" if tppls else f"{'-':>10}"
        return f"{sum(vppls) / len(vppls):10.3f} {tmean}"

    print(f"{'row':<20} {'valid_ppl':>10} {'test_ppl':>10}   (mean over seeds {seeds})")
    for name, variant, spec in rows:
        print(f"{name:<20} {columns(variant, spec)}")
    return 0


# ---------------------------------------------------------------------------
# dispatch


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError(message)


def _build_parser() -> _Parser:
    p = _Parser(prog="lmdistill", description=__doc__)
    sub = p.add_subparsers(dest="command")

    def common(sp, data_dir=False):
        sp.add_argument("--config", help="key = value config file")
        sp.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                        help="override one of the command's config keys (repeatable)")
        if data_dir:
            sp.add_argument("--seed", help="override the seed key")
            sp.add_argument("--data-dir", required=True,
                            help="directory with train.txt and valid.txt")
        sp.add_argument("--out", help="directory for resolved.cfg; training also saves there")

    sp = sub.add_parser("train-teacher", help="train one teacher with CE loss")
    common(sp, data_dir=True)

    sp = sub.add_parser("train-student", help="distill a student from teachers")
    common(sp, data_dir=True)
    sp.add_argument("--teacher", action="append", required=True, metavar="CKPT[,CKPT...]",
                    help="teacher checkpoint(s); repeatable or comma-separated")

    sp = sub.add_parser("eval-ppl", help="perplexity of a checkpoint on a text file")
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

    sp = sub.add_parser("grad-check",
                        help="finite-difference check of the full training loss")

    sp = sub.add_parser("ablate", help="loss/regularizer switch matrix over 3 seeds")
    common(sp, data_dir=True)

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
