import numpy as np
import pytest

from freqfuse.errors import ContractError, NumericError
from freqfuse.kernel import Tensor
from freqfuse.kernel.adam import BLOCK, AdamState, adam_step
from freqfuse.rng import named_stream


def one_param(value):
    p = {"w": Tensor(np.array(value, dtype=np.float64))}
    return p, AdamState(p)


def step(p, s, grad, lr, weight_decay, t):
    s.zero_grad()
    p["w"].grad[...] = grad
    adam_step(p, s, lr=lr, weight_decay=weight_decay, t=t)


def test_step_count_starts_at_one():
    p, s = one_param([1.0])
    with pytest.raises(ContractError):
        step(p, s, np.ones(1), lr=0.1, weight_decay=0.0, t=0)


def test_zero_grad_zero_decay_is_identity():
    p, s = one_param([1.0, -2.0])
    step(p, s, np.zeros(2), lr=0.1, weight_decay=0.0, t=1)
    assert np.array_equal(p["w"].data, [1.0, -2.0])


def test_first_step_is_signed_lr():
    # with bias correction, step one moves by ~lr in the direction of -sign(g)
    p, s = one_param([0.0, 0.0])
    g = np.array([3.0, -0.004])
    step(p, s, g, lr=0.01, weight_decay=0.0, t=1)
    assert np.allclose(p["w"].data, [-0.01, 0.01], rtol=1e-4)


def test_two_step_scalar_oracle():
    # straight-line reimplementation of two updates on a scalar
    lr, wd, b1, b2, eps = 0.05, 0.01, 0.9, 0.999, 1e-8
    theta = 0.7
    grads = [0.3, -0.2]
    m = v = 0.0
    for t, g_raw in enumerate(grads, start=1):
        g = g_raw + wd * theta
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        mhat = m / (1 - b1**t)
        vhat = v / (1 - b2**t)
        theta -= lr * mhat / (np.sqrt(vhat) + eps)

    p, s = one_param([0.7])
    for t, g_raw in enumerate(grads, start=1):
        step(p, s, np.array([g_raw]), lr=lr, weight_decay=wd, t=t)
    assert abs(p["w"].data[0] - theta) <= 1e-15


def test_weight_decay_pulls_toward_zero():
    p, s = one_param([1.0])
    step(p, s, np.zeros(1), lr=0.01, weight_decay=0.1, t=1)
    assert 0.0 < p["w"].data[0] < 1.0


def test_descends_a_quadratic():
    rng = named_stream(0, "test-adam-quad")
    target = rng.standard_normal(8)
    p, s = one_param(np.zeros(8))
    losses = []
    for t in range(1, 301):
        diff = p["w"].data - target
        losses.append(float(np.dot(diff, diff)))
        step(p, s, 2 * diff, lr=0.05, weight_decay=0.0, t=t)
    assert losses[-1] < 1e-3 * losses[0]


def test_non_finite_update_raises():
    p, s = one_param([1.0])
    with np.errstate(invalid="ignore"):
        with pytest.raises(NumericError):
            step(p, s, np.array([np.inf]), lr=0.1, weight_decay=0.0, t=1)


def test_non_finite_error_names_the_parameter():
    p = {"first": Tensor(np.ones(3)), "second": Tensor(np.ones((2, 2)))}
    s = AdamState(p)
    s.zero_grad()
    p["second"].grad[1, 0] = np.inf
    with np.errstate(invalid="ignore"):
        with pytest.raises(NumericError, match=r"adam_step\(second\)"):
            adam_step(p, s, lr=0.1, weight_decay=0.0, t=1)


def per_tensor_adam_step(params, grads, m, v, lr, weight_decay, t,
                         beta1=0.9, beta2=0.999, eps=1e-8):
    """The per-name update the fused one replaces, as the oracle."""
    bc1 = 1.0 - beta1**t
    bc2 = 1.0 - beta2**t
    for name, p in params.items():
        g = grads[name] + weight_decay * p
        m[name] *= beta1
        m[name] += (1.0 - beta1) * g
        v[name] *= beta2
        v[name] += (1.0 - beta2) * g * g
        p -= lr * (m[name] / bc1) / (np.sqrt(v[name] / bc2) + eps)


def test_fused_blocks_match_per_tensor_update_bit_for_bit():
    rng = named_stream(0, "test-adam-fused")
    # the last block is partial and spans the end of "big" and all of the rest
    shapes = {"big": (BLOCK // 100 + 1, 100), "idle": (37,), "small": (3, 5, 7)}
    total = sum(int(np.prod(shape)) for shape in shapes.values())
    assert total > BLOCK and total % BLOCK != 0
    init = {name: rng.standard_normal(shape) for name, shape in shapes.items()}
    params = {name: Tensor(value) for name, value in init.items()}
    state = AdamState(params)
    for p in params.values():
        assert p.data.flags.c_contiguous and np.shares_memory(p.data, state.theta)
    expect = {name: value.copy() for name, value in init.items()}
    m = {name: np.zeros(shape) for name, shape in shapes.items()}
    v = {name: np.zeros(shape) for name, shape in shapes.items()}
    for t in range(1, 6):
        grads = {name: rng.standard_normal(shape) for name, shape in shapes.items()}
        grads["idle"] = np.zeros(shapes["idle"])  # never reached by backward
        state.zero_grad()
        for name in ("big", "small"):
            params[name].accumulate_grad(grads[name])
        adam_step(params, state, lr=0.01, weight_decay=0.05, t=t)
        per_tensor_adam_step(expect, grads, m, v, lr=0.01, weight_decay=0.05, t=t)
        for name in shapes:
            assert np.array_equal(params[name].data, expect[name]), (t, name)
    assert not np.array_equal(params["idle"].data, init["idle"])  # weight decay still applies
