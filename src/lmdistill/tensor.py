"""The parameter and activation record: a float64 array and its gradient.

A training step (training.step_loss) leaves each parameter's gradient in its
.grad; every backward in that step is written by hand, next to its forward.
"""

from __future__ import annotations

import numpy as np

__all__ = ["Tensor"]


class Tensor:
    """A float64 array plus an optional gradient of the same shape."""

    __slots__ = ("data", "grad")

    def __init__(self, data):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape
