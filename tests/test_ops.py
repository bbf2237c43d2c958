import numpy as np
import pytest

from freqfuse.errors import ConfigError, DegenerateInputError, DimensionError
from freqfuse.kernel import GradTape, Tensor, ops
from freqfuse.rng import named_stream


# the matvec cases are ops.linear applied to a one-row batch (1, n)


def test_matvec_identity_passes_through():
    x = Tensor([[1.0, -2.0, 3.0]])
    out = ops.linear(x, Tensor(np.eye(3)), Tensor(np.zeros(3)))
    assert np.array_equal(out.data, x.data)


def test_matvec_zero_weight_returns_bias():
    b = Tensor([5.0, -1.0])
    out = ops.linear(Tensor(np.ones((1, 3))), Tensor(np.zeros((2, 3))), b)
    assert np.array_equal(out.data, b.data[None, :])


def test_matvec_matches_double_loop():
    rng = named_stream(0, "test-matvec")
    w = rng.standard_normal((4, 6))
    x = rng.standard_normal(6)
    b = rng.standard_normal(4)
    out = ops.linear(Tensor(x[None, :]), Tensor(w), Tensor(b))
    assert out.shape == (1, 4)
    expect = np.zeros(4)
    for i in range(4):
        acc = b[i]
        for j in range(6):
            acc += w[i, j] * x[j]
        expect[i] = acc
    assert np.max(np.abs(out.data[0] - expect)) <= 1e-12


def test_matvec_shape_mismatch():
    with pytest.raises(DimensionError):
        ops.linear(Tensor(np.zeros((1, 4))), Tensor(np.zeros((2, 3))), Tensor(np.zeros(2)))
    with pytest.raises(DimensionError):
        ops.linear(Tensor(np.zeros((1, 3))), Tensor(np.zeros((2, 3))), Tensor(np.zeros(3)))
    with pytest.raises(DimensionError):
        ops.linear(Tensor(np.zeros((1, 3))), Tensor(np.zeros(3)), Tensor(np.zeros(1)))


def test_linear_and_layernorm_take_batches_only():
    w, b = Tensor(np.zeros((2, 3))), Tensor(np.zeros(2))
    gain, shift = Tensor(np.ones(3)), Tensor(np.zeros(3))
    for shape in ((3,), (2, 2, 3)):
        with pytest.raises(DimensionError):
            ops.linear(Tensor(np.ones(shape)), w, b)
        with pytest.raises(DimensionError):
            ops.layernorm(Tensor(np.ones(shape)), gain, shift)


def test_linear_rows_match_matvec():
    rng = named_stream(1, "test-linear")
    w = rng.standard_normal((5, 3))
    b = rng.standard_normal(5)
    x = rng.standard_normal((4, 3))
    batched = ops.linear(Tensor(x), Tensor(w), Tensor(b))
    for i in range(4):
        row = ops.linear(Tensor(x[i : i + 1]), Tensor(w), Tensor(b))
        assert np.allclose(batched.data[i], row.data[0], atol=1e-14)


def test_matmul_nt_is_a_bt():
    rng = named_stream(2, "test-matmul")
    a = rng.standard_normal((3, 5))
    b = rng.standard_normal((4, 5))
    out = ops.matmul_nt(Tensor(a), Tensor(b))
    assert np.allclose(out.data, a @ b.T, atol=1e-14)


def test_add_requires_same_shape():
    with pytest.raises(DimensionError):
        ops.add(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 1))))


def test_mul_broadcast_last_axis():
    a = Tensor([[1.0, 2.0], [3.0, 4.0]])
    g = Tensor([[10.0], [100.0]])
    out = ops.mul(a, g)
    assert np.array_equal(out.data, [[10.0, 20.0], [300.0, 400.0]])
    with pytest.raises(DimensionError):
        ops.mul(Tensor(np.zeros((2, 3))), Tensor(np.zeros(3)))
    with pytest.raises(DimensionError):  # only the second operand broadcasts
        ops.mul(g, a)


def test_mul_broadcast_backward_sums():
    tape = GradTape()
    a = Tensor([[1.0, 2.0], [3.0, 4.0]])
    g = Tensor([[2.0], [3.0]])
    out = ops.mul(a, g, tape)
    s = ops.mean_pool(ops.mean_pool(out, tape=tape), tape=tape)
    tape.backward(s)
    # d mean / d g_i = sum_j a_ij / 4
    assert np.allclose(g.grad, [[(1 + 2) / 4.0], [(3 + 4) / 4.0]])


def test_concat_segments_bit_exact():
    a = Tensor([[1.0, 2.0]])
    b = Tensor([[3.0]])
    c = Tensor([[4.0, 5.0, 6.0]])
    out = ops.concat([a, b, c])
    assert out.shape == (1, 6)
    assert np.array_equal(out.data[:, :2], a.data)
    assert np.array_equal(out.data[:, 2:3], b.data)
    assert np.array_equal(out.data[:, 3:], c.data)


def test_concat_backward_routes_segments():
    tape = GradTape()
    a = Tensor([1.0, 2.0])
    b = Tensor([3.0])
    out = ops.concat([a, b], tape)
    tape.backward(out, seed=np.array([10.0, 20.0, 30.0]))
    assert np.array_equal(a.grad, [10.0, 20.0])
    assert np.array_equal(b.grad, [30.0])


def test_sigmoid_values_and_saturation():
    out = ops.sigmoid(Tensor([0.0, 1000.0, -1000.0]))
    assert out.data[0] == 0.5
    assert out.data[1] == 1.0  # saturates cleanly, no overflow warning
    assert out.data[2] == 0.0
    rng = named_stream(3, "test-sigmoid")
    x = rng.standard_normal(100) * 10
    s = ops.sigmoid(Tensor(x)).data
    assert np.all(s >= 0.0) and np.all(s <= 1.0)
    assert np.allclose(s, 1.0 / (1.0 + np.exp(-x)))


def test_gelu_fixed_points():
    out = ops.gelu(Tensor([0.0, 10.0, -10.0]))
    assert out.data[0] == 0.0
    assert abs(out.data[1] - 10.0) < 1e-9
    assert abs(out.data[2]) < 1e-9


def test_softmax_rows_normalized_and_shift_invariant():
    rng = named_stream(4, "test-softmax")
    x = rng.standard_normal((8, 5)) * 3
    s = ops.softmax(x)
    assert np.allclose(s.sum(axis=-1), 1.0, atol=1e-12)
    assert np.all(s > 0)
    shifted = ops.softmax(x + 100.0)
    assert np.allclose(s, shifted, atol=1e-12)


def test_layernorm_normalizes_rows():
    rng = named_stream(5, "test-ln")
    x = rng.standard_normal((6, 16)) * 4 + 2
    d = 16
    out = ops.layernorm(Tensor(x), Tensor(np.ones(d)), Tensor(np.zeros(d))).data
    assert np.allclose(out.mean(axis=-1), 0.0, atol=1e-12)
    assert np.allclose(out.var(axis=-1), 1.0, atol=1e-4)  # eps shifts variance slightly


def test_layernorm_gain_shift_affine():
    rng = named_stream(6, "test-ln2")
    x = rng.standard_normal((3, 8))
    gain = rng.standard_normal(8)
    shift = rng.standard_normal(8)
    base = ops.layernorm(Tensor(x), Tensor(np.ones(8)), Tensor(np.zeros(8))).data
    out = ops.layernorm(Tensor(x), Tensor(gain), Tensor(shift)).data
    assert np.allclose(out, gain * base + shift, atol=1e-12)
    with pytest.raises(DimensionError):
        ops.layernorm(Tensor(x), Tensor(np.ones(7)), Tensor(np.zeros(8)))


def test_dropout_contract():
    x = Tensor(np.ones((4, 8)))
    assert ops.dropout(x, 0.0, training=True, rng=named_stream(0, "d")) is x
    assert ops.dropout(x, 0.5, training=False) is x
    with pytest.raises(ConfigError):
        ops.dropout(x, 1.0, training=True, rng=named_stream(0, "d"))
    with pytest.raises(ConfigError):
        ops.dropout(x, -0.1, training=True, rng=named_stream(0, "d"))
    with pytest.raises(ConfigError):
        ops.dropout(x, 0.5, training=True)


def test_dropout_deterministic_and_inverted():
    x = Tensor(np.ones((100, 50)))
    a = ops.dropout(x, 0.3, rng=named_stream(7, "drop"), training=True).data
    b = ops.dropout(x, 0.3, rng=named_stream(7, "drop"), training=True).data
    assert np.array_equal(a, b)
    kept = a[a != 0]
    assert np.allclose(kept, 1.0 / 0.7)  # inverted scaling
    assert abs(a.mean() - 1.0) < 0.02


def test_mean_pool_axes():
    x = Tensor([[1.0, 2.0], [3.0, 5.0]])
    assert np.array_equal(ops.mean_pool(x).data, [1.5, 4.0])
    kept = ops.mean_pool(x, keepdims=True)
    assert kept.shape == (2, 1)
    assert np.array_equal(kept.data, [[1.5], [4.0]])


def test_row_norms_and_rownorm():
    x = Tensor([[3.0, 4.0], [0.0, 2.0]])
    n = ops.row_norms(x)
    assert n.shape == (2, 1)
    assert np.allclose(n.data[:, 0], [5.0, 2.0])
    u = ops.rownorm(x)
    assert np.allclose(np.linalg.norm(u.data, axis=-1), 1.0, atol=1e-12)
    with pytest.raises(DegenerateInputError):
        ops.rownorm(Tensor([[0.0, 0.0]]))


def test_rownorm_gradient_is_tangent():
    # the unit-sphere projection gradient must be orthogonal to the output row
    tape = GradTape()
    x = Tensor([[1.0, 2.0, 2.0]])
    u = ops.rownorm(x, tape)
    tape.backward(u, seed=np.array([[1.0, 0.0, 0.0]]))
    assert abs(np.dot(x.grad[0], u.data[0])) < 1e-12
