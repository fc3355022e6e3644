"""Model checkpoints: magic "DLM1", text metadata, then binary tensor records.

Layout:
  - line "DLM1"
  - config fields as key=value lines (UTF-8), terminated by one empty line
  - per parameter, in canonical order: name length (u64 LE), name bytes,
    rank (u64 LE), each dim (u64 LE), row-major float64 LE payload

Floats in the metadata use repr, so a save/load round trip is bitwise exact. A key the
config does not read is ignored, as are an older file's expert_dim and tie_embeddings lines;
an untied model's out.w record then fails the load, as a parameter out of order.
"""

from __future__ import annotations

import math
import struct
from dataclasses import fields

import numpy as np

from .data import atomic_open
from .errors import ConfigError, DataError, FormatError
from .model import _INT_KEYS, _OPT_INT_KEYS, LmModel, ModelConfig, _param_shapes
from .regularization import DropoutSpec

__all__ = ["save_checkpoint", "load_checkpoint"]

MAGIC = b"DLM1\n"

_RATE_KEYS = tuple(f.name for f in fields(DropoutSpec))


def _meta_lines(config: ModelConfig) -> list[str]:
    lines = [f"{k}={getattr(config, k)}" for k in _INT_KEYS]
    for k in _OPT_INT_KEYS:
        v = getattr(config, k)
        lines.append(f"{k}={'none' if v is None else v}")
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
        rates = {k: float(need(k)) for k in _RATE_KEYS}
        return ModelConfig(**ints, **opts, dropout=DropoutSpec(**rates))
    except (ValueError, ConfigError) as e:  # ConfigError: a value out of range
        raise FormatError(f"{path}: bad checkpoint metadata: {e}") from None


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
        self.pos = len(MAGIC)  # the caller checks the magic
        self.path = path

    def take(self, n: int, what: str) -> memoryview:
        if self.pos + n > len(self.blob):
            raise FormatError(
                f"{self.path}: truncated checkpoint: needed {n} bytes for {what} "
                f"at offset {self.pos}, file has {len(self.blob)}")
        out = self.blob[self.pos:self.pos + n]
        self.pos += n
        return out

    def text(self, n: int, what: str) -> str:
        try:
            return str(self.take(n, what), "utf-8")
        except UnicodeDecodeError as e:
            raise FormatError(f"{self.path}: {what} is not UTF-8 text at offset "
                              f"{self.pos - n + e.start}") from None

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
    except OSError as e:
        raise DataError(f"cannot read checkpoint {path}: {e.strerror}") from None
    if not blob.startswith(MAGIC):
        raise FormatError(f"{path}: not a model checkpoint (bad magic)")
    # Metadata runs to the first empty line.
    end = blob.find(b"\n\n", len(MAGIC) - 1)
    if end < 0:
        raise FormatError(f"{path}: unterminated metadata block")
    reader = _Reader(blob, path)
    meta_text = reader.text(end + 1 - len(MAGIC), "metadata")
    meta: dict[str, str] = {}
    for lineno, line in enumerate(meta_text.splitlines(), 2):
        if not line:
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise FormatError(f"{path}:{lineno}: metadata line without '='")
        meta[key] = value
    config = _config_from_meta(meta, path)

    reader.pos = end + 2
    expected = _param_shapes(config)
    params: dict[str, np.ndarray] = {}
    for want_name, want_shape in expected:
        if reader.done:
            raise FormatError(
                f"{path}: truncated checkpoint: missing parameter {want_name!r} "
                f"at offset {reader.pos}")
        name_len = reader.u64("name length")
        name = reader.text(name_len, "parameter name")
        if name != want_name:
            raise FormatError(f"{path}: expected parameter {want_name!r}, found {name!r} "
                              f"at offset {reader.pos}")
        rank = reader.u64("rank")
        shape = tuple(reader.u64("dim") for _ in range(rank))
        if shape != want_shape:
            raise FormatError(f"{path}: parameter {name!r} shaped {shape}, "
                              f"config implies {want_shape}")
        payload = reader.take(8 * math.prod(shape), f"{name} payload")
        params[name] = np.frombuffer(payload, dtype="<f8").reshape(shape).astype(np.float64)
    if not reader.done:
        raise FormatError(f"{path}: {len(blob) - reader.pos} trailing bytes "
                          f"after last parameter at offset {reader.pos}")
    return LmModel(config, params)
