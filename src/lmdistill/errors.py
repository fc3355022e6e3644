"""Exception types shared across the package.

Everything derived from UserError is a problem with the user's inputs (bad
config, malformed file, shape mismatch) and maps to CLI exit code 1; any other
exception is an internal error and maps to exit code 2.
"""

import math


class UserError(Exception):
    pass


class ConfigError(UserError):
    """Invalid hyperparameter, flag, or config-file entry."""


class DataError(UserError):
    """Corpus, token-stream, or id-range problem."""


class FormatError(UserError):
    """Malformed checkpoint, vocabulary, or N-best file."""


class ShapeError(UserError):
    """Array dimension mismatch; messages name both shapes."""


class NumericError(UserError):
    """Non-finite values where finite ones are required."""


class TrainingError(UserError):
    """Training aborted (e.g. non-finite loss); names the failing batch."""


def require_finite(owner, *names: str) -> None:
    """Raise ConfigError for the first of owner's named float fields that is nan or inf."""
    for name in names:
        v = getattr(owner, name)
        if not math.isfinite(v):
            raise ConfigError(f"{name} must be a finite number, got {v}")
