"""Dense float64 tensors and a reverse-mode gradient tape.

Tensors wrap contiguous, row-major float64 numpy arrays. Every construction
goes through a finiteness check: a NaN or Inf anywhere is a hard error, so
numerical blow-ups surface at the op that produced them rather than epochs
later.

The tape is a flat list of backward closures recorded in forward order and
replayed in exact reverse order; every op records its closure through
`_op_output`. A tape is single-owner: one forward recording, one backward
pass, no sharing across threads.
"""

import numpy as np

from ..errors import DimensionError, NumericError


def check_finite(arr: np.ndarray, where: str = "tensor") -> np.ndarray:
    if not np.all(np.isfinite(arr)):
        raise NumericError(f"non-finite values produced by {where}")
    return arr


class Tensor:
    """A dense float64 array with an optional accumulated gradient."""

    __slots__ = ("data", "grad")

    def __init__(self, data, check: bool = True):
        arr = np.asarray(data, dtype=np.float64)
        if arr.ndim > 0:  # ascontiguousarray would promote 0-d to 1-d
            arr = np.ascontiguousarray(arr)
        if check:
            check_finite(arr)
        self.data = arr
        self.grad = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def zero_grad(self):
        self.grad = None

    def accumulate_grad(self, g: np.ndarray):
        if g.shape != self.data.shape:
            raise DimensionError(
                f"gradient shape {g.shape} does not match tensor shape {self.data.shape}"
            )
        if self.grad is None:
            self.grad = g.copy()
        else:
            self.grad += g

    def __repr__(self):
        return f"Tensor(shape={self.data.shape})"


class GradTape:
    """Ordered record of primitive ops; backward replays adjoints in reverse."""

    def __init__(self):
        self._records = []

    def record(self, backward_fn):
        """Append one backward closure; called by kernel ops at forward time."""
        self._records.append(backward_fn)

    def __len__(self):
        return len(self._records)

    def backward(self, out: Tensor, seed: np.ndarray | None = None):
        """Run the reverse pass from `out`, accumulating into leaf .grad slots.

        `out` must be scalar unless an explicit output gradient `seed` is given.
        """
        if seed is None:
            if out.size != 1:
                raise DimensionError(
                    f"backward without a seed requires a scalar output, got shape {out.shape}"
                )
            seed = np.ones_like(out.data)
        out.accumulate_grad(np.asarray(seed, dtype=np.float64))
        for fn in reversed(self._records):
            fn()


def _op_output(data, tape: GradTape | None, backward) -> Tensor:
    """The checked output of a differentiable op. With a tape, records one
    closure that calls `backward(out.grad)` once a gradient reached the output.
    Private, so that perfbench's tracer names each closure after the op."""
    out = Tensor(data)
    if tape is not None:

        def backward_if_reached():
            if out.grad is not None:
                backward(out.grad)

        tape.record(backward_if_reached)
    return out
