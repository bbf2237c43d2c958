"""Differentiable layers over Tensors.

Every op checks its shapes, computes its forward value, defines
`backward(g)`, which accumulates the adjoints of output gradient g into its
inputs' .grad slots, and returns `_op_output(value, tape, backward)`. `linear`
and `layernorm` take a batch of rows (B, d) only; reductions and
normalizations act on the last axis. `softmax` is a plain numpy helper, off the
tape: nothing differentiates it.
"""

import numpy as np

from ..errors import ConfigError, DegenerateInputError, DimensionError
from .tensor import GradTape, Tensor, _op_output

_GELU_C = 0.7978845608028654  # sqrt(2/pi), tanh-form gelu
_GELU_A = 0.044715
LAYERNORM_EPS = 1e-5
# a row norm at or below this is zero: rownorm rejects it, and the adjoint of
# row_norms divides by it instead
NORM_TINY = 1e-12


def linear(x: Tensor, w: Tensor, b: Tensor, tape: GradTape | None = None) -> Tensor:
    """Affine map W (m, n) @ x + b (m,) of each row of a batch (B, n)."""
    xd = x.data
    if xd.ndim != 2 or w.data.ndim != 2 or xd.shape[1] != w.shape[1] or b.shape != w.shape[:1]:
        raise DimensionError(f"linear shapes do not conform: x {x.shape}, W {w.shape}, b {b.shape}")

    def backward(g):
        w.accumulate_grad(g.T @ xd)
        b.accumulate_grad(g.sum(axis=0))
        x.accumulate_grad(g @ w.data)

    return _op_output(xd @ w.data.T + b.data, tape, backward)


def matmul_nt(a: Tensor, b: Tensor, tape: GradTape | None = None) -> Tensor:
    """A @ B.T for A (m, k), B (n, k); the similarity-matrix shape."""
    if a.data.ndim != 2 or b.data.ndim != 2 or a.shape[1] != b.shape[1]:
        raise DimensionError(f"matmul_nt shapes do not conform: {a.shape}, {b.shape}")

    def backward(g):
        a.accumulate_grad(g @ b.data)
        b.accumulate_grad(g.T @ a.data)

    return _op_output(a.data @ b.data.T, tape, backward)


def add(a: Tensor, b: Tensor, tape: GradTape | None = None) -> Tensor:
    if a.shape != b.shape:
        raise DimensionError(f"add shapes differ: {a.shape} vs {b.shape}")

    def backward(g):
        a.accumulate_grad(g)
        b.accumulate_grad(g)

    return _op_output(a.data + b.data, tape, backward)


def mul(a: Tensor, b: Tensor, tape: GradTape | None = None) -> Tensor:
    """Elementwise product; b may be (..., 1), broadcast over a's last axis."""
    bcast_b = b.data.shape == a.data.shape[:-1] + (1,)
    if not (a.shape == b.shape or bcast_b):
        raise DimensionError(f"mul shapes do not conform: {a.shape}, {b.shape}")

    def backward(g):
        gb = g * a.data
        a.accumulate_grad(g * b.data)
        b.accumulate_grad(gb.sum(axis=-1, keepdims=True) if bcast_b else gb)

    return _op_output(a.data * b.data, tape, backward)


def scale(x: Tensor, c: float, tape: GradTape | None = None) -> Tensor:
    def backward(g):
        x.accumulate_grad(g * c)

    return _op_output(x.data * c, tape, backward)


def concat(parts: list[Tensor], tape: GradTape | None = None) -> Tensor:
    """Concatenate along the last axis."""
    if not parts:
        raise DimensionError("concat needs at least one tensor")
    lead = parts[0].data.shape[:-1]
    for p in parts:
        if p.data.shape[:-1] != lead:
            raise DimensionError("concat operands differ in leading shape")

    def backward(g):
        off = 0
        for p in parts:
            w = p.data.shape[-1]
            p.accumulate_grad(g[..., off : off + w])
            off += w

    return _op_output(np.concatenate([p.data for p in parts], axis=-1), tape, backward)


def sigmoid(x: Tensor, tape: GradTape | None = None) -> Tensor:
    xd = x.data
    e = np.exp(-np.abs(xd))  # overflow-safe for large |x|
    s = np.where(xd >= 0, 1.0 / (1.0 + e), e / (1.0 + e))

    def backward(g):
        x.accumulate_grad(g * s * (1.0 - s))

    return _op_output(s, tape, backward)


def gelu(x: Tensor, tape: GradTape | None = None) -> Tensor:
    """Tanh-form gelu: 0.5 x (1 + tanh(c (x + a x^3)))."""
    xd = x.data
    x2 = xd * xd
    th = np.tanh(_GELU_C * (xd + _GELU_A * (x2 * xd)))

    def backward(g):
        du = _GELU_C * (1.0 + 3.0 * _GELU_A * x2)
        dydx = 0.5 * (1.0 + th) + 0.5 * xd * (1.0 - th**2) * du
        x.accumulate_grad(g * dydx)

    return _op_output(0.5 * xd * (1.0 + th), tape, backward)


def softmax(x: np.ndarray) -> np.ndarray:
    """Row softmax over the last axis, max-subtracted for stability."""
    z = np.exp(x - x.max(axis=-1, keepdims=True))
    return z / z.sum(axis=-1, keepdims=True)


def layernorm(x: Tensor, gain: Tensor, shift: Tensor, tape: GradTape | None = None) -> Tensor:
    """Normalize each row of a batch (B, d) to zero mean / unit variance, then
    gain * xhat + shift."""
    xd = x.data
    d = xd.shape[-1]
    if xd.ndim != 2 or gain.shape != (d,) or shift.shape != (d,):
        raise DimensionError(f"layernorm takes x (B, d) and gain, shift (d,), got {x.shape}, "
                             f"{gain.shape}, {shift.shape}")
    mu = xd.mean(axis=-1, keepdims=True)
    var = xd.var(axis=-1, keepdims=True)
    ih = 1.0 / np.sqrt(var + LAYERNORM_EPS)
    xhat = (xd - mu) * ih

    def backward(g):
        gain.accumulate_grad((g * xhat).sum(axis=0))
        shift.accumulate_grad(g.sum(axis=0))
        dxh = g * gain.data
        m1 = dxh.mean(axis=-1, keepdims=True)
        m2 = (dxh * xhat).mean(axis=-1, keepdims=True)
        x.accumulate_grad(ih * (dxh - m1 - xhat * m2))

    return _op_output(gain.data * xhat + shift.data, tape, backward)


def dropout(
    x: Tensor,
    p: float,
    rng: np.random.Generator | None = None,
    training: bool = False,
    tape: GradTape | None = None,
) -> Tensor:
    """Inverted dropout; identity in eval mode. Train mode needs an explicit rng."""
    if not 0.0 <= p < 1.0:
        raise ConfigError(f"dropout rate must be in [0, 1), got {p}")
    if not training or p == 0.0:
        return x
    if rng is None:
        raise ConfigError("train-mode dropout requires an explicit rng")
    mask = (rng.random(x.data.shape) >= p) / (1.0 - p)

    def backward(g):
        x.accumulate_grad(g * mask)

    return _op_output(x.data * mask, tape, backward)


def mean_pool(x: Tensor, keepdims: bool = False, tape: GradTape | None = None) -> Tensor:
    """Arithmetic mean along the last axis."""
    n = x.data.shape[-1]

    def backward(g):
        ge = g if keepdims else np.expand_dims(g, -1)
        x.accumulate_grad(np.broadcast_to(ge, x.data.shape) / n)

    return _op_output(x.data.mean(axis=-1, keepdims=keepdims), tape, backward)


def row_norms(x: Tensor, tape: GradTape | None = None) -> Tensor:
    """L2 norm of each row, shape (..., 1)."""
    n = np.sqrt((x.data**2).sum(axis=-1, keepdims=True))

    def backward(g):
        x.accumulate_grad(g * x.data / np.maximum(n, NORM_TINY))

    return _op_output(n, tape, backward)


def rownorm(x: Tensor, tape: GradTape | None = None) -> Tensor:
    """Scale each row to unit L2 norm; zero rows are a degenerate input."""
    n = np.sqrt((x.data**2).sum(axis=-1, keepdims=True))
    if np.any(n <= NORM_TINY):
        raise DegenerateInputError("cannot normalize a (near-)zero row")
    xhat = x.data / n

    def backward(g):
        dot = (g * xhat).sum(axis=-1, keepdims=True)
        x.accumulate_grad((g - xhat * dot) / n)

    return _op_output(xhat, tape, backward)
