"""Bias-corrected Adam with L2 regularization folded into the gradient, on flat vectors."""

import numpy as np

from ..errors import ContractError
from .tensor import Tensor, check_finite

BLOCK = 16384  # elements per block of the fused update


class AdamState:
    """Parameters, gradients and Adam's two moments as flat vectors in `params`
    order; each Tensor's .data becomes a view of its slice of `theta`."""

    def __init__(self, params: dict[str, Tensor]):
        self.theta = np.concatenate([p.data.reshape(-1) for p in params.values()])
        self.grad, self.m, self.v = (np.zeros_like(self.theta) for _ in range(3))
        self.scratch = np.empty((2, min(BLOCK, self.theta.size)))
        self.grad_views = []
        start = 0
        for p in params.values():
            stop = start + p.size
            self.grad_views.append((p, self.grad[start:stop].reshape(p.shape)))
            p.data = self.theta[start:stop].reshape(p.shape)
            start = stop

    def zero_grad(self) -> None:
        """Zero `grad` and bind each parameter's .grad to its slice, so backward
        accumulates in place and a parameter no gradient reaches keeps zeros."""
        self.grad.fill(0.0)
        for p, grad in self.grad_views:
            p.grad = grad


def adam_step(
    params: dict[str, Tensor],
    state: AdamState,
    lr: float,
    weight_decay: float,
    t: int,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
) -> None:
    """One in-place Adam update of `state.theta` from `state.grad` at step t >= 1.

    L2 regularization enters as grad + weight_decay * theta before the moment
    updates. Blocks go through a per-tensor update's operations in its order, so
    the results are bit-identical to one. `params`, the dict the state was built
    from, names a parameter that turns non-finite.
    """
    if t < 1:
        raise ContractError(f"adam step count must be >= 1, got {t}")
    bc1 = 1.0 - beta1**t
    bc2 = 1.0 - beta2**t
    for start in range(0, state.theta.size, BLOCK):
        b = slice(start, start + BLOCK)
        theta, grad, m, v = state.theta[b], state.grad[b], state.m[b], state.v[b]
        g, tmp = state.scratch[:, : theta.size]
        np.add(grad, np.multiply(theta, weight_decay, out=g), out=g)
        m *= beta1
        m += np.multiply(g, 1.0 - beta1, out=tmp)
        v *= beta2
        v += np.multiply(np.multiply(g, 1.0 - beta2, out=tmp), g, out=tmp)
        np.sqrt(np.divide(v, bc2, out=g), out=g)
        g += eps
        theta -= np.divide(np.multiply(np.divide(m, bc1, out=tmp), lr, out=tmp), g, out=tmp)
        if not np.isfinite(theta).all():
            for name, p in params.items():
                check_finite(p.data, f"adam_step({name})")
