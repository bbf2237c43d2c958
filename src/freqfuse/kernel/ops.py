"""Differentiable layers over Tensors.

Every op takes an optional GradTape; with a tape it records a backward
closure that accumulates adjoints into its inputs' .grad slots. Ops accept a
single vector (d,) or a batch (B, d); reductions and normalizations act on
the last axis.
"""

import numpy as np

from ..errors import ConfigError, DegenerateInputError, DimensionError
from .tensor import GradTape, Tensor

_GELU_C = 0.7978845608028654  # sqrt(2/pi), tanh-form gelu
_GELU_A = 0.044715


def _as2d(arr: np.ndarray):
    """View (d,) as (1, d); returns (view, was_vector)."""
    if arr.ndim == 1:
        return arr[None, :], True
    if arr.ndim == 2:
        return arr, False
    raise DimensionError(f"expected vector or batch, got shape {arr.shape}")


def linear(x: Tensor, w: Tensor, b: Tensor, tape: GradTape | None = None) -> Tensor:
    """Affine map W (m, n) @ x + b (m,) of a vector (n,) or of each row of a batch (B, n)."""
    xd, was_vec = _as2d(x.data)
    if w.data.ndim != 2 or xd.shape[1] != w.shape[1] or b.shape != w.shape[:1]:
        raise DimensionError(f"linear shapes do not conform: x {x.shape}, W {w.shape}, b {b.shape}")
    y = xd @ w.data.T + b.data
    out = Tensor(y[0] if was_vec else y)
    if tape is not None:

        def backward():
            g = out.grad
            if g is None:
                return
            g2 = g[None, :] if was_vec else g
            w.accumulate_grad(g2.T @ xd)
            b.accumulate_grad(g2.sum(axis=0))
            gx = g2 @ w.data
            x.accumulate_grad(gx[0] if was_vec else gx)

        tape.record(backward)
    return out


def matmul_nt(a: Tensor, b: Tensor, tape: GradTape | None = None) -> Tensor:
    """A @ B.T for A (m, k), B (n, k); the similarity-matrix shape."""
    if a.data.ndim != 2 or b.data.ndim != 2 or a.shape[1] != b.shape[1]:
        raise DimensionError(f"matmul_nt shapes do not conform: {a.shape}, {b.shape}")
    out = Tensor(a.data @ b.data.T)
    if tape is not None:

        def backward():
            g = out.grad
            if g is None:
                return
            a.accumulate_grad(g @ b.data)
            b.accumulate_grad(g.T @ a.data)

        tape.record(backward)
    return out


def add(a: Tensor, b: Tensor, tape: GradTape | None = None) -> Tensor:
    if a.shape != b.shape:
        raise DimensionError(f"add shapes differ: {a.shape} vs {b.shape}")
    out = Tensor(a.data + b.data)
    if tape is not None:

        def backward():
            g = out.grad
            if g is None:
                return
            a.accumulate_grad(g)
            b.accumulate_grad(g)

        tape.record(backward)
    return out


def mul(a: Tensor, b: Tensor, tape: GradTape | None = None) -> Tensor:
    """Elementwise product; one operand may be (..., 1) broadcast over the last axis."""
    bcast_b = b.data.shape == a.data.shape[:-1] + (1,)
    bcast_a = a.data.shape == b.data.shape[:-1] + (1,)
    if not (a.shape == b.shape or bcast_a or bcast_b):
        raise DimensionError(f"mul shapes do not conform: {a.shape}, {b.shape}")
    out = Tensor(a.data * b.data)
    if tape is not None:

        def backward():
            g = out.grad
            if g is None:
                return
            ga = g * b.data
            gb = g * a.data
            if bcast_a:
                ga = ga.sum(axis=-1, keepdims=True)
            if bcast_b:
                gb = gb.sum(axis=-1, keepdims=True)
            a.accumulate_grad(ga)
            b.accumulate_grad(gb)

        tape.record(backward)
    return out


def scale(x: Tensor, c: float, tape: GradTape | None = None) -> Tensor:
    out = Tensor(x.data * c)
    if tape is not None:

        def backward():
            g = out.grad
            if g is None:
                return
            x.accumulate_grad(g * c)

        tape.record(backward)
    return out


def concat(parts: list[Tensor], tape: GradTape | None = None) -> Tensor:
    """Concatenate along the last axis."""
    if not parts:
        raise DimensionError("concat needs at least one tensor")
    lead = parts[0].data.shape[:-1]
    for p in parts:
        if p.data.shape[:-1] != lead:
            raise DimensionError("concat operands differ in leading shape")
    out = Tensor(np.concatenate([p.data for p in parts], axis=-1))
    if tape is not None:
        widths = [p.data.shape[-1] for p in parts]

        def backward():
            g = out.grad
            if g is None:
                return
            off = 0
            for p, w in zip(parts, widths):
                p.accumulate_grad(g[..., off : off + w])
                off += w

        tape.record(backward)
    return out


def sigmoid(x: Tensor, tape: GradTape | None = None) -> Tensor:
    xd = x.data
    e = np.exp(-np.abs(xd))  # overflow-safe for large |x|
    s = np.where(xd >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
    out = Tensor(s)
    if tape is not None:

        def backward():
            g = out.grad
            if g is None:
                return
            x.accumulate_grad(g * s * (1.0 - s))

        tape.record(backward)
    return out


def gelu(x: Tensor, tape: GradTape | None = None) -> Tensor:
    """Tanh-form gelu: 0.5 x (1 + tanh(c (x + a x^3)))."""
    xd = x.data
    x2 = xd * xd
    th = np.tanh(_GELU_C * (xd + _GELU_A * (x2 * xd)))
    out = Tensor(0.5 * xd * (1.0 + th))
    if tape is not None:

        def backward():
            g = out.grad
            if g is None:
                return
            du = _GELU_C * (1.0 + 3.0 * _GELU_A * x2)
            dydx = 0.5 * (1.0 + th) + 0.5 * xd * (1.0 - th**2) * du
            x.accumulate_grad(g * dydx)

        tape.record(backward)
    return out


def softmax(x: Tensor, tape: GradTape | None = None) -> Tensor:
    """Row softmax over the last axis, max-subtracted for stability."""
    xd = x.data
    z = np.exp(xd - xd.max(axis=-1, keepdims=True))
    s = z / z.sum(axis=-1, keepdims=True)
    out = Tensor(s)
    if tape is not None:

        def backward():
            g = out.grad
            if g is None:
                return
            dot = (g * s).sum(axis=-1, keepdims=True)
            x.accumulate_grad(s * (g - dot))

        tape.record(backward)
    return out


def layernorm(
    x: Tensor, gain: Tensor, shift: Tensor, tape: GradTape | None = None, eps: float = 1e-5
) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then gain * xhat + shift."""
    d = x.data.shape[-1]
    if gain.shape != (d,) or shift.shape != (d,):
        raise DimensionError(f"layernorm gain/shift must have shape ({d},)")
    xd = x.data
    mu = xd.mean(axis=-1, keepdims=True)
    var = xd.var(axis=-1, keepdims=True)
    ih = 1.0 / np.sqrt(var + eps)
    xhat = (xd - mu) * ih
    out = Tensor(gain.data * xhat + shift.data)
    if tape is not None:

        def backward():
            g = out.grad
            if g is None:
                return
            g2, was_vec = _as2d(g)
            xh2, _ = _as2d(xhat)
            gain.accumulate_grad((g2 * xh2).sum(axis=0))
            shift.accumulate_grad(g2.sum(axis=0))
            dxh = g * gain.data
            m1 = dxh.mean(axis=-1, keepdims=True)
            m2 = (dxh * xhat).mean(axis=-1, keepdims=True)
            x.accumulate_grad(ih * (dxh - m1 - xhat * m2))

        tape.record(backward)
    return out


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
    out = Tensor(x.data * mask)
    if tape is not None:

        def backward():
            g = out.grad
            if g is None:
                return
            x.accumulate_grad(g * mask)

        tape.record(backward)
    return out


def mean_pool(x: Tensor, axis: int = -1, keepdims: bool = False, tape: GradTape | None = None) -> Tensor:
    """Arithmetic mean along one axis."""
    n = x.data.shape[axis]
    out = Tensor(x.data.mean(axis=axis, keepdims=keepdims))
    if tape is not None:

        def backward():
            g = out.grad
            if g is None:
                return
            ge = g if keepdims else np.expand_dims(g, axis)
            x.accumulate_grad(np.broadcast_to(ge, x.data.shape) / n)

        tape.record(backward)
    return out


def row_norms(x: Tensor, tape: GradTape | None = None, tiny: float = 1e-12) -> Tensor:
    """L2 norm of each row, shape (..., 1)."""
    n = np.sqrt((x.data**2).sum(axis=-1, keepdims=True))
    out = Tensor(n)
    if tape is not None:
        safe = np.maximum(n, tiny)

        def backward():
            g = out.grad
            if g is None:
                return
            x.accumulate_grad(g * x.data / safe)

        tape.record(backward)
    return out


def rownorm(x: Tensor, tape: GradTape | None = None, tiny: float = 1e-12) -> Tensor:
    """Scale each row to unit L2 norm; zero rows are a degenerate input."""
    n = np.sqrt((x.data**2).sum(axis=-1, keepdims=True))
    if np.any(n <= tiny):
        raise DegenerateInputError("cannot normalize a (near-)zero row")
    xhat = x.data / n
    out = Tensor(xhat)
    if tape is not None:

        def backward():
            g = out.grad
            if g is None:
                return
            dot = (g * xhat).sum(axis=-1, keepdims=True)
            x.accumulate_grad((g - xhat * dot) / n)

        tape.record(backward)
    return out
