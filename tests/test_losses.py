import numpy as np
import pytest

from freqfuse.errors import ContractError, DegenerateInputError
from freqfuse.kernel import GradTape, Tensor
from freqfuse.losses import (
    AUG_SIGMA,
    CROSS_WEIGHT,
    INTRA_WEIGHT,
    TAU_CROSS,
    TAU_INTRA,
    _objective,
    augment,
    cross_entropy,
    info_nce,
    total_loss,
)
from freqfuse.model import ForwardResult, TrainConfig
from freqfuse.rng import named_stream


def test_loss_constants():
    assert (INTRA_WEIGHT, CROSS_WEIGHT) == (0.3, 0.7)
    assert (TAU_INTRA, TAU_CROSS) == (0.07, 0.05)
    assert AUG_SIGMA == 0.1


def test_ce_uniform_logits_is_log_c():
    for c in (2, 5, 10):
        logits = Tensor(np.zeros((3, c)))
        loss = cross_entropy(logits, np.array([0, 1, c - 1]))
        assert abs(float(loss.data) - np.log(c)) <= 1e-12


def test_ce_confident_correct_is_near_zero():
    logits = np.zeros((2, 4))
    logits[0, 1] = 50.0
    logits[1, 3] = 50.0
    loss = cross_entropy(Tensor(logits), np.array([1, 3]))
    assert float(loss.data) <= 1e-12


def test_ce_hand_case_b2():
    logits = np.array([[1.0, 2.0, 0.5], [0.0, -1.0, 3.0]])
    labels = np.array([1, 2])
    # straight-line restatement of the definition
    want = 0.0
    for i in range(2):
        z = logits[i]
        want += -(z[labels[i]] - np.log(np.exp(z).sum()))
    want /= 2
    loss = cross_entropy(Tensor(logits), labels)
    assert abs(float(loss.data) - want) <= 1e-12


def test_ce_shift_invariance():
    rng = named_stream(0, "test-ce-shift")
    logits = rng.standard_normal((4, 6))
    labels = rng.integers(0, 6, size=4)
    a = float(cross_entropy(Tensor(logits), labels).data)
    b = float(cross_entropy(Tensor(logits + 123.0), labels).data)
    assert abs(a - b) <= 1e-12


def test_ce_contract_errors():
    with pytest.raises(ContractError):
        cross_entropy(Tensor(np.zeros(4)), np.array([0]))
    with pytest.raises(ContractError):
        cross_entropy(Tensor(np.zeros((2, 3))), np.array([0]))
    with pytest.raises(ContractError):
        cross_entropy(Tensor(np.zeros((2, 3))), np.array([0, 3]))


def test_ce_gradient_is_probs_minus_onehot():
    rng = named_stream(1, "test-ce-grad")
    logits = Tensor(rng.standard_normal((3, 4)))
    labels = np.array([2, 0, 1])
    tape = GradTape()
    loss = cross_entropy(logits, labels, tape)
    tape.backward(loss)
    z = logits.data
    probs = np.exp(z - z.max(axis=1, keepdims=True))
    probs /= probs.sum(axis=1, keepdims=True)
    onehot = np.eye(4)[labels]
    assert np.max(np.abs(logits.grad - (probs - onehot) / 3)) <= 1e-12


def test_info_nce_single_pair_is_zero():
    rng = named_stream(2, "test-nce-b1")
    x = Tensor(rng.standard_normal((1, 8)))
    y = Tensor(rng.standard_normal((1, 8)))
    assert float(info_nce(x, y, 0.07).data) <= 1e-12


def test_info_nce_indistinguishable_rows_is_log_b():
    # identical y rows make every candidate equally similar to every anchor
    rng = named_stream(3, "test-nce-logb")
    for b in (2, 5):
        x = Tensor(rng.standard_normal((b, 6)))
        y = Tensor(np.tile(rng.standard_normal(6), (b, 1)))
        loss = float(info_nce(x, y, 0.07).data)
        assert abs(loss - np.log(b)) <= 1e-12


def test_info_nce_aligned_orthogonal_pairs():
    # x == y orthonormal rows: positive cos 1, negatives 0, tau 0.05
    # loss = log(1 + exp(-20)) per row
    x = Tensor(np.eye(2))
    loss = float(info_nce(x, Tensor(np.eye(2)), TAU_CROSS).data)
    want = np.log(1.0 + np.exp(-20.0))
    assert abs(loss - want) <= 1e-15
    assert abs(loss - 2.061e-09) <= 1e-11


def test_info_nce_scale_invariant_rows():
    rng = named_stream(4, "test-nce-scale")
    x = rng.standard_normal((4, 8))
    y = rng.standard_normal((4, 8))
    a = float(info_nce(Tensor(x), Tensor(y), 0.07).data)
    b = float(info_nce(Tensor(x * 7.0), Tensor(y * 0.01), 0.07).data)
    assert abs(a - b) <= 1e-12


def test_info_nce_rejects_zero_rows_and_bad_tau():
    x = Tensor(np.zeros((2, 4)))
    with pytest.raises(DegenerateInputError):
        info_nce(x, Tensor(np.ones((2, 4))), 0.07)
    with pytest.raises(ContractError):
        info_nce(Tensor(np.ones((2, 4))), Tensor(np.ones((2, 4))), 0.0)
    with pytest.raises(ContractError):
        info_nce(Tensor(np.ones((2, 4))), Tensor(np.ones((3, 4))), 0.07)


def test_augment_deterministic_and_norm_preserving():
    rng = named_stream(5, "test-aug")
    x = Tensor(rng.standard_normal((6, 16)) * 3)
    a = augment(x, named_stream(9, "augment", 0)).data
    b = augment(x, named_stream(9, "augment", 0)).data
    assert np.array_equal(a, b)
    assert np.max(np.abs(np.linalg.norm(a, axis=1) - np.linalg.norm(x.data, axis=1))) <= 1e-12
    assert not np.allclose(a, x.data)


def test_augment_stays_close_in_angle():
    # mild perturbation: mean cosine to the original stays high
    rng = named_stream(6, "test-aug-angle")
    draws = named_stream(7, "test-aug-draws")
    cosines = []
    for _ in range(1000):
        x = Tensor(rng.standard_normal((1, 256)))
        a = augment(x, draws).data[0]
        cosines.append(
            float(np.dot(a, x.data[0]) / (np.linalg.norm(a) * np.linalg.norm(x.data[0])))
        )
    assert np.mean(cosines) > 0.9


def test_total_loss_hand_values():
    def mk(v):
        return Tensor(np.array(v))

    total, br = total_loss(mk(1.0), mk(0.2), mk(0.4), mk(0.5))
    # 1.0 + 0.3 * (0.2 + 0.4) / 2 + 0.7 * 0.5 = 1.44
    assert abs(br.total - 1.44) <= 1e-12
    assert abs(float(total.data) - 1.44) <= 1e-12
    assert (br.ce, br.intra_text, br.intra_image, br.cross) == (1.0, 0.2, 0.4, 0.5)

    total, br = total_loss(mk(0.9), mk(0.0), mk(0.0), mk(0.0))
    assert abs(br.total - 0.9) <= 1e-12

    total, br = total_loss(mk(0.0), mk(0.0), mk(0.0), mk(1.0))
    assert abs(br.total - 0.7) <= 1e-12


def test_total_loss_identity_random():
    rng = named_stream(8, "test-total")
    for _ in range(50):
        ce, it, iv, cr = rng.random(4)
        total, br = total_loss(
            Tensor(np.array(ce)), Tensor(np.array(it)), Tensor(np.array(iv)), Tensor(np.array(cr))
        )
        want = ce + 0.3 * (it + iv) / 2.0 + 0.7 * cr
        assert abs(br.total - want) <= 1e-12


def test_total_loss_backward_distributes_weights():
    tape = GradTape()
    ce = Tensor(np.array(1.0))
    it = Tensor(np.array(0.5))
    iv = Tensor(np.array(0.25))
    cr = Tensor(np.array(2.0))
    total, _ = total_loss(ce, it, iv, cr, tape)
    tape.backward(total)
    assert abs(float(ce.grad) - 1.0) <= 1e-15
    assert abs(float(it.grad) - 0.15) <= 1e-15
    assert abs(float(iv.grad) - 0.15) <= 1e-15
    assert abs(float(cr.grad) - 0.7) <= 1e-15


def test_objective_is_the_weighted_sum_of_its_terms():
    rng = named_stream(9, "test-objective")
    fwd = ForwardResult(
        t=Tensor(rng.standard_normal((4, 6))),
        v=Tensor(rng.standard_normal((4, 6))),
        features=None,
        k_agg=None,
        logits=Tensor(rng.standard_normal((4, 3))),
    )
    labels = np.array([0, 2, 1, 2])

    total, br = _objective(fwd, labels, TrainConfig(), named_stream(9, "test-aug"))
    aug = named_stream(9, "test-aug")
    t_aug = augment(fwd.t, aug)
    v_aug = augment(fwd.v, aug)
    want_total, want = total_loss(
        cross_entropy(fwd.logits, labels),
        info_nce(fwd.t, t_aug, TAU_INTRA),
        info_nce(fwd.v, v_aug, TAU_INTRA),
        info_nce(fwd.t, fwd.v, TAU_CROSS),
    )
    assert float(total.data) == float(want_total.data)
    assert br == want
    assert min(br.intra_text, br.intra_image, br.cross) > 0.0

    total, br = _objective(fwd, labels, TrainConfig(contrastive=False), named_stream(9, "test-aug"))
    ce = float(cross_entropy(fwd.logits, labels).data)
    assert float(total.data) == ce == br.ce == br.total
    assert (br.intra_text, br.intra_image, br.cross) == (0.0, 0.0, 0.0)
