"""Command-line interface.

Subcommands: train-teacher, train-student, eval-ppl, rescore, grad-check,
ablate. Hyperparameters come from a key=value config file plus repeatable
--set overrides; every subcommand but grad-check, which takes no options,
echoes its fully resolved config before doing any work. Exit codes: 0
success, 1 user/config error, 2 internal error.
"""

from __future__ import annotations

import argparse
import math
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .checkpoint import load_checkpoint, save_checkpoint
from .data import BpttBatch, TokenStream, Vocabulary, atomic_open, build_vocab, encode
from .errors import ConfigError, DataError, UserError
from .losses import LOSS_VARIANTS, DistillLossSpec
from .model import ModelConfig, build_model
from .regularization import DropoutSpec
from .rescore import (RescoreConfig, parse_nbest, parse_refs, rescore_nbest, wer)
from .training import TeacherEnsemble, TrainConfig, perplexity, step_loss, train

# ---------------------------------------------------------------------------
# run configuration


def _bool(text: str) -> bool:
    if text == "true":
        return True
    if text == "false":
        return False
    raise ValueError(f"expected true or false, got {text!r}")


def _finite(text: str) -> float:
    v = float(text)
    if not math.isfinite(v):
        raise ValueError(f"expected a finite number, got {text!r}")
    return v


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
    "seed": (int, 0),
    "asgd_trigger_patience": (int, 0),
    "lr_decay_on_plateau": (_finite, 1.0),
    "vocab_cap": (int, 10000),
    "rnn_unk_min_count": (int, 0),
    "lm_weight": (_finite, 1.0),
    "word_insertion_penalty": (_finite, 0.0),
    "oov_mode": (str, "rnn_unk"),
    "oov_penalty": (_finite, -10.0),
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
        with atomic_open(out_dir / "resolved.cfg") as f:
            f.write("\n".join(cfg.lines()) + "\n")


# ---------------------------------------------------------------------------
# shared helpers


def _read_lines(path: Path) -> list[str]:
    if not path.is_file():
        raise DataError(f"missing data file {path}")
    return path.read_text(encoding="utf-8").splitlines()


def _load_model_and_vocab(args):
    """The --model checkpoint and its vocabulary (--vocab, or vocab.txt beside it)."""
    model = load_checkpoint(args.model)
    path = Path(args.vocab) if args.vocab else Path(args.model).parent / "vocab.txt"
    if not path.is_file():
        raise DataError(f"no vocabulary at {path}; pass --vocab")
    vocab = Vocabulary.load(path)
    if vocab.size != model.config.vocab_size:
        raise ConfigError(f"model was built for {model.config.vocab_size} words "
                          f"but the vocabulary has {vocab.size}")
    return model, vocab


def _train_streams(cfg: RunConfig, data_dir: Path) -> tuple[Vocabulary, TokenStream, TokenStream]:
    train_lines = _read_lines(data_dir / "train.txt")
    valid_lines = _read_lines(data_dir / "valid.txt")
    vocab = build_vocab(train_lines, cfg["vocab_cap"], cfg["rnn_unk_min_count"])
    return vocab, encode(train_lines, vocab), encode(valid_lines, vocab)


# ---------------------------------------------------------------------------
# subcommands


def _train_command(args, setup) -> int:
    """train-teacher and train-student: setup(cfg) checks the config and returns the
    loss, the teacher ensemble or None, and a suffix for the vocab=... params=... line."""
    cfg = load_config(args.config, args.set, args.seed)
    out_dir = Path(args.out) if args.out else None
    _echo_config(cfg, out_dir)
    loss, teacher, suffix = setup(cfg)
    vocab, train_stream, valid_stream = _train_streams(cfg, Path(args.data_dir))
    if teacher is not None and vocab.size != teacher.vocab_size:
        raise ConfigError(f"teacher vocab size {teacher.vocab_size} != "
                          f"data vocab size {vocab.size}")
    model = build_model(cfg.model_config(vocab.size), cfg["seed"])
    print(f"vocab={vocab.size} params={model.param_count}{suffix}")
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
        vocab.save(out_dir / "vocab.txt")

    log_lines: list[str] = []

    def log(line):
        log_lines.append(line)
        print(line)

    result = train(model, train_stream, valid_stream, cfg.train_config(loss),
                   teacher=teacher, log_fn=log)
    print(f"best_valid_ppl={result.best_valid_ppl:.6f} best_epoch={result.best_epoch}")
    if out_dir is not None:
        save_checkpoint(model, out_dir / "model.dlm")
        with atomic_open(out_dir / "train.log") as f:
            f.write("\n".join(log_lines) + "\n")
        print(f"saved {out_dir / 'model.dlm'}")
    return 0


def cmd_train_teacher(args) -> int:
    def setup(cfg):
        if cfg["loss_variant"] != "ce_only":
            raise ConfigError("train-teacher trains with loss_variant = ce_only; "
                              f"config says {cfg['loss_variant']!r}")
        return cfg.loss_spec("ce_only"), None, ""

    return _train_command(args, setup)


def cmd_train_student(args) -> int:
    def setup(cfg):
        loss = cfg.loss_spec()
        if not loss.needs_teacher:
            raise ConfigError(f"train-student needs a distillation loss; loss_variant = "
                              f"{loss.variant} at alpha = {loss.alpha:g} reads no teacher")
        paths = [p for chunk in args.teacher for p in chunk.split(",") if p]
        return loss, TeacherEnsemble.from_checkpoints(paths), f" teachers={len(paths)}"

    return _train_command(args, setup)


def cmd_eval_ppl(args) -> int:
    cfg = load_config(args.config, args.set, args.seed)
    _echo_config(cfg, Path(args.out) if args.out else None)
    model, vocab = _load_model_and_vocab(args)
    stream = encode(_read_lines(Path(args.data)), vocab)
    ppl = perplexity(model, stream)
    print(f"ppl={ppl:.6f}")
    return 0


def cmd_rescore(args) -> int:
    cfg = load_config(args.config, args.set, args.seed)
    _echo_config(cfg, Path(args.out) if args.out else None)
    model, vocab = _load_model_and_vocab(args)
    nbest = parse_nbest(_read_lines(Path(args.nbest)), args.nbest)
    refs = parse_refs(_read_lines(Path(args.refs)), args.refs) if args.refs else None

    sweeps = _sweep_grid(args)
    if sweeps is not None:
        if refs is None:
            raise ConfigError("--sweep-lm-weight/--sweep-wip need --refs to score against")
        best, lm_scores = None, {}  # the first sweep point scores; the rest reuse
        for lm_w, wip in sweeps:
            rc = RescoreConfig(lm_weight=lm_w, word_insertion_penalty=wip,
                               oov_mode=cfg["oov_mode"], oov_penalty=cfg["oov_penalty"])
            selected = rescore_nbest(model, vocab, nbest, rc, lm_scores)
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
        lm_ws = [_finite(x) for x in (args.sweep_lm_weight or "1.0").split(",")]
        wips = [_finite(x) for x in (args.sweep_wip or "0.0").split(",")]
    except ValueError as e:
        raise ConfigError(f"bad sweep grid: {e}") from None
    return [(lw, wp) for lw in lm_ws for wp in wips]


def cmd_grad_check(args) -> int:
    rows = grad_check_rows()
    width = max(len(name) for name, _ in rows)
    ok = True
    for name, report in rows:
        ok &= report.passed
        print(f"{name:<{width}}  {report}")
    print("grad-check: all ok" if ok else "grad-check: FAILURES above")
    return 0 if ok else 1


@dataclass
class GradCheckReport:
    max_rel_err: float
    passed: bool
    tol: float
    step: float

    def __str__(self) -> str:
        verdict = "ok" if self.passed else "FAIL"
        return f"max_rel_err={self.max_rel_err:.3e} tol={self.tol:g} [{verdict}]"


# Relative-error denominator floor: absorbs central-difference noise when the
# true gradient is ~0 while still flagging real backward bugs at tol 1e-4.
_REL_FLOOR = 1e-4


def grad_check_params(loss_fn, params: dict[str, np.ndarray],
                      step: float = 1e-5, tol: float = 1e-4) -> dict[str, GradCheckReport]:
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
            flat[i] = orig + step
            plus = float(loss_fn()[0])
            flat[i] = orig - step
            minus = float(loss_fn()[0])
            flat[i] = orig
            nflat[i] = (plus - minus) / (2.0 * step)
        a = analytic[name]
        denom = np.maximum(np.abs(a) + np.abs(numeric), _REL_FLOOR)
        max_rel = float(np.max(np.abs(a - numeric) / denom)) if flat.size else 0.0
        reports[name] = GradCheckReport(max_rel, max_rel <= tol, tol, step)
    return reports


def grad_check_rows() -> list[tuple[str, GradCheckReport]]:
    """Finite-difference check of the full training loss, one row per loss variant.

    The loss is training.step_loss, the function train() calls: model_forward
    in train mode, distill_loss, plus activation_reg. The tiny model has two
    LSTM layers (the last narrower), K=3 experts, every dropout and AR/TAR on;
    tied and untied output matrices alternate. Each row names the variant, the
    tying and the parameter with the worst relative error.
    """
    vocab, lanes, steps, seed = 8, 2, 3, 0
    rng = np.random.default_rng(seed)
    batch = BpttBatch(rng.integers(0, vocab, size=(lanes, steps)),
                      rng.integers(0, vocab, size=(lanes, steps)))
    q = rng.dirichlet(np.ones(vocab), size=lanes * steps)
    rates = DropoutSpec(input_rate=0.2, output_rate=0.2, hidden_rate=0.2, embed_rate=0.2,
                        other_rate=0.2, ar_weight=2.0, tar_weight=1.0)
    rows = []
    for i, variant in enumerate(LOSS_VARIANTS):
        tied = i % 2 == 0
        config = ModelConfig(vocab_size=vocab, embed_dim=3, lstm_layers=2, hidden_dim=4,
                             last_hidden_dim=3, bottleneck_dim=3, num_experts=3,
                             tie_embeddings=tied, dropout=rates)
        model = build_model(config, seed + i)
        spec = DistillLossSpec(variant=variant, alpha=0.3)
        soft = q if spec.needs_teacher else None

        def loss_fn():
            # A fresh generator per evaluation draws the same masks every time.
            return step_loss(model, batch, model.init_state(lanes), spec, soft,
                             np.random.default_rng(seed))[:2]

        reports = grad_check_params(loss_fn, model.params)
        worst_name, worst = max(reports.items(), key=lambda kv: kv[1].max_rel_err)
        passed = all(r.passed for r in reports.values())
        rows.append((f"{variant} {'tied' if tied else 'untied'} worst={worst_name}",
                     GradCheckReport(worst.max_rel_err, passed, worst.tol, worst.step)))
    return rows


def cmd_ablate(args) -> int:
    cfg = load_config(args.config, args.set, args.seed)
    _echo_config(cfg, Path(args.out) if args.out else None)
    data_dir = Path(args.data_dir)
    vocab, train_stream, valid_stream = _train_streams(cfg, data_dir)
    test_path = data_dir / "test.txt"
    test_stream = encode(_read_lines(test_path), vocab) if test_path.is_file() else None

    dropout = cfg.dropout_spec()
    plain = DropoutSpec()
    reg_only = DropoutSpec(ar_weight=dropout.ar_weight, tar_weight=dropout.tar_weight)
    drop_only = DropoutSpec(input_rate=dropout.input_rate, output_rate=dropout.output_rate,
                            hidden_rate=dropout.hidden_rate, embed_rate=dropout.embed_rate,
                            other_rate=dropout.other_rate)
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
        tcfg = cfg.train_config(DistillLossSpec(variant="ce_only"))
        tcfg.seed = seed + 100
        train(tm, train_stream, valid_stream, tcfg)
        teachers[seed] = TeacherEnsemble([tm])

    print(f"{'row':<20} {'valid_ppl':>10} {'test_ppl':>10}   (mean over seeds {seeds})")
    for name, variant, spec in rows:
        loss = DistillLossSpec(variant=variant, alpha=alpha)
        vppls, tppls = [], []
        for seed in seeds:
            model = build_model(cfg.model_config(vocab.size, dropout=spec), seed)
            run_cfg = cfg.train_config(loss)
            run_cfg.seed = seed
            train(model, train_stream, valid_stream, run_cfg,
                  teacher=teachers[seed] if loss.needs_teacher else None)
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

    sp = sub.add_parser("grad-check",
                        help="finite-difference check of the full training loss")

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
