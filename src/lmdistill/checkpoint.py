"""Model checkpoints: magic "DLM1", text metadata, then binary tensor records.

Layout:
  - line "DLM1"
  - config fields as key=value lines (UTF-8), terminated by one empty line
  - per parameter, in canonical order: name length (u64 LE), name bytes,
    rank (u64 LE), each dim (u64 LE), row-major float64 LE payload

Floats in the metadata use repr, so a save/load round trip is bitwise exact.
"""

from __future__ import annotations

import struct

import numpy as np

from .data import atomic_open
from .errors import DataError, FormatError
from .model import LmModel, ModelConfig, _param_shapes
from .regularization import DropoutSpec

__all__ = ["save_checkpoint", "load_checkpoint"]

MAGIC = b"DLM1\n"

_INT_KEYS = ("vocab_size", "embed_dim", "lstm_layers", "hidden_dim",
             "bottleneck_dim", "num_experts")
_OPT_INT_KEYS = ("last_hidden_dim", "expert_dim")
_RATE_KEYS = ("input_rate", "output_rate", "hidden_rate", "embed_rate",
              "other_rate", "ar_weight", "tar_weight")


def _meta_lines(config: ModelConfig) -> list[str]:
    lines = [f"{k}={getattr(config, k)}" for k in _INT_KEYS]
    for k in _OPT_INT_KEYS:
        v = getattr(config, k)
        lines.append(f"{k}={'none' if v is None else v}")
    lines.append(f"tie_embeddings={'true' if config.tie_embeddings else 'false'}")
    lines += [f"{k}={getattr(config.dropout, k)!r}" for k in _RATE_KEYS]
    return lines


def _config_from_meta(meta: dict[str, str], path) -> ModelConfig:
    def need(key):
        if key not in meta:
            raise FormatError(f"{path}: checkpoint metadata missing {key!r}")
        return meta[key]

    try:
        ints = {k: int(need(k)) for k in _INT_KEYS}
        opts = {}
        for k in _OPT_INT_KEYS:
            raw = need(k)
            opts[k] = None if raw == "none" else int(raw)
        tie = {"true": True, "false": False}[need("tie_embeddings")]
        rates = {k: float(need(k)) for k in _RATE_KEYS}
    except (ValueError, KeyError) as e:
        raise FormatError(f"{path}: bad checkpoint metadata: {e}") from None
    return ModelConfig(**ints, **opts, tie_embeddings=tie, dropout=DropoutSpec(**rates))


def save_checkpoint(model: LmModel, path) -> None:
    with atomic_open(path, "wb") as f:
        f.write(MAGIC)
        for line in _meta_lines(model.config):
            f.write(line.encode("utf-8") + b"\n")
        f.write(b"\n")
        for name, p in model.params.items():
            nb = name.encode("utf-8")
            f.write(struct.pack("<Q", len(nb)))
            f.write(nb)
            f.write(struct.pack("<Q", p.ndim))
            for d in p.shape:
                f.write(struct.pack("<Q", d))
            f.write(np.ascontiguousarray(p, dtype="<f8").tobytes())


class _Reader:
    def __init__(self, blob: bytes, path):
        self.blob = memoryview(blob)  # slices are views: a payload is copied once, by astype
        self.pos = 0
        self.path = path

    def take(self, n: int, what: str) -> memoryview:
        if self.pos + n > len(self.blob):
            raise FormatError(
                f"{self.path}: truncated checkpoint: needed {n} bytes for {what} "
                f"at offset {self.pos}, file has {len(self.blob)}")
        out = self.blob[self.pos:self.pos + n]
        self.pos += n
        return out

    def u64(self, what: str) -> int:
        return struct.unpack("<Q", self.take(8, what))[0]

    @property
    def done(self) -> bool:
        return self.pos >= len(self.blob)


def load_checkpoint(path) -> LmModel:
    """Rebuild a model from a checkpoint, validating names and shapes."""
    try:
        with open(path, "rb") as f:
            blob = f.read()
    except FileNotFoundError:
        raise DataError(f"no checkpoint at {path}") from None
    if not blob.startswith(MAGIC):
        raise FormatError(f"{path}: not a model checkpoint (bad magic)")
    # Metadata runs to the first empty line.
    end = blob.find(b"\n\n", len(MAGIC) - 1)
    if end < 0:
        raise FormatError(f"{path}: unterminated metadata block")
    meta_text = blob[len(MAGIC):end + 1].decode("utf-8")
    meta: dict[str, str] = {}
    for lineno, line in enumerate(meta_text.splitlines(), 2):
        if not line:
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise FormatError(f"{path}:{lineno}: metadata line without '='")
        meta[key] = value
    config = _config_from_meta(meta, path)

    reader = _Reader(blob, path)
    reader.pos = end + 2
    expected = _param_shapes(config)
    params: dict[str, np.ndarray] = {}
    for want_name, want_shape in expected:
        if reader.done:
            raise FormatError(
                f"{path}: truncated checkpoint: missing parameter {want_name!r} "
                f"at offset {reader.pos}")
        name_len = reader.u64("name length")
        name = str(reader.take(name_len, "name"), "utf-8")
        if name != want_name:
            raise FormatError(f"{path}: expected parameter {want_name!r}, found {name!r} "
                              f"at offset {reader.pos}")
        rank = reader.u64("rank")
        shape = tuple(reader.u64("dim") for _ in range(rank))
        if shape != want_shape:
            raise FormatError(f"{path}: parameter {name!r} shaped {shape}, "
                              f"config implies {want_shape}")
        count = 1
        for d in shape:
            count *= d
        payload = reader.take(8 * count, f"{name} payload")
        params[name] = np.frombuffer(payload, dtype="<f8").reshape(shape).astype(np.float64)
    if not reader.done:
        raise FormatError(f"{path}: {len(blob) - reader.pos} trailing bytes "
                          f"after last parameter at offset {reader.pos}")
    return LmModel(config, params)
