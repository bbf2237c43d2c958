import numpy as np
import pytest

from freqfuse.errors import DimensionError, NumericError
from freqfuse.kernel import GradTape, Tensor, dft_magnitude, ops
from freqfuse.losses import cross_entropy


def test_tensor_is_float64_contiguous():
    t = Tensor([[1, 2], [3, 4]])
    assert t.data.dtype == np.float64
    assert t.data.flags["C_CONTIGUOUS"]
    assert t.shape == (2, 2)
    assert t.size == 4


def test_tensor_scalar_ok():
    t = Tensor(3.5)
    assert t.shape == ()
    assert t.size == 1


def test_tensor_rejects_nan_and_inf():
    with pytest.raises(NumericError):
        Tensor([1.0, np.nan])
    with pytest.raises(NumericError):
        Tensor([np.inf, 0.0])
    # the escape hatch for internal use
    t = Tensor([np.nan], check=False)
    assert np.isnan(t.data[0])


def test_accumulate_grad_sums_and_checks_shape():
    t = Tensor([1.0, 2.0])
    t.accumulate_grad(np.array([1.0, 1.0]))
    t.accumulate_grad(np.array([0.5, -1.0]))
    assert np.array_equal(t.grad, [1.5, 0.0])
    with pytest.raises(DimensionError):
        t.accumulate_grad(np.zeros(3))
    t.zero_grad()
    assert t.grad is None


def test_backward_requires_scalar_without_seed():
    tape = GradTape()
    x = Tensor([1.0, 2.0])
    y = ops.scale(x, 2.0, tape)
    with pytest.raises(DimensionError):
        tape.backward(y)


def test_backward_with_seed_on_vector():
    tape = GradTape()
    x = Tensor([1.0, 2.0, 3.0])
    y = ops.scale(x, 3.0, tape)
    tape.backward(y, seed=np.array([1.0, 0.0, 2.0]))
    assert np.allclose(x.grad, [3.0, 0.0, 6.0])


def test_backward_replays_in_reverse_and_accumulates():
    # x used twice: d/dx (2x + 3x) = 5
    tape = GradTape()
    x = Tensor([1.0])
    y = ops.add(ops.scale(x, 2.0, tape), ops.scale(x, 3.0, tape), tape)
    s = ops.mean_pool(y, tape=tape)
    tape.backward(s)
    assert np.allclose(x.grad, [5.0])
    assert len(tape) == 4


# every differentiable op: its input shapes and a call on those inputs
_OPS = {
    "linear": ([(2, 3), (4, 3), (4,)], ops.linear),
    "matmul_nt": ([(2, 3), (4, 3)], ops.matmul_nt),
    "add": ([(2, 3), (2, 3)], ops.add),
    "mul": ([(2, 3), (2, 1)], ops.mul),
    "scale": ([(2, 3)], lambda x, tape: ops.scale(x, 7.0, tape)),
    "concat": ([(2, 3), (2, 2)], lambda a, b, tape: ops.concat([a, b], tape)),
    "sigmoid": ([(2, 3)], ops.sigmoid),
    "gelu": ([(2, 3)], ops.gelu),
    "softmax": ([(2, 3)], ops.softmax),
    "layernorm": ([(2, 3), (3,), (3,)], ops.layernorm),
    "dropout": ([(2, 3)], lambda x, tape: ops.dropout(x, 0.5, np.random.default_rng(0), True,
                                                      tape)),
    "mean_pool": ([(2, 3)], lambda x, tape: ops.mean_pool(x, tape=tape)),
    "row_norms": ([(2, 3)], ops.row_norms),
    "rownorm": ([(2, 3)], ops.rownorm),
    "dft_magnitude": ([(2, 4)], dft_magnitude),
    "cross_entropy": ([(2, 3)], lambda z, tape: cross_entropy(z, np.array([0, 2]), tape)),
}


@pytest.mark.parametrize("shapes, call", _OPS.values(), ids=_OPS.keys())
def test_unused_branch_contributes_no_grad(shapes, call):
    rng = np.random.default_rng(0)
    inputs = [Tensor(rng.standard_normal(shape)) for shape in shapes]
    tape = GradTape()
    call(*inputs, tape=tape)  # never reaches the loss
    assert len(tape) == 1
    x = inputs[0]
    used = ops.mean_pool(ops.mean_pool(ops.scale(x, 2.0, tape), tape=tape), tape=tape)
    tape.backward(used)
    assert np.allclose(x.grad, 2.0 / x.size)  # the used branch's gradient alone
    assert all(t.grad is None for t in inputs[1:])
