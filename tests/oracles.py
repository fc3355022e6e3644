"""Test-only teachers."""

import numpy as np

from lmdistill.model import flatten_targets


class OneHotOracle:
    """Degenerate teacher that puts all mass on the true next token."""

    def __init__(self, vocab_size: int):
        self.vocab_size = vocab_size

    def reset_state(self, batch_size: int) -> None:
        pass

    def soft_labels(self, inputs: np.ndarray, targets: np.ndarray) -> np.ndarray:
        y = flatten_targets(targets)
        q = np.zeros((y.shape[0], self.vocab_size))
        q[np.arange(y.shape[0]), y] = 1.0
        return q
