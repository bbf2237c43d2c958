import numpy as np
import pytest

from conftest import naive_dft
from freqfuse.errors import DimensionError
from freqfuse.fusion import (
    FusionParams,
    K_FILTERS,
    init_fusion_params,
    spectral_stage,
)
from freqfuse.kernel import GradTape, Tensor
from freqfuse.rng import named_stream


def make_params(d, k=K_FILTERS, w_gate=None, b_gate=None, w_filter=None, b_filter=None):
    """Hand-built params with the same tensors for both modalities."""
    wf = Tensor(np.zeros((k, d)) if w_filter is None else np.array(w_filter, dtype=float))
    bf = Tensor(np.zeros(k) if b_filter is None else np.array(b_filter, dtype=float))
    wg = Tensor(np.zeros((d, 1)) if w_gate is None else np.array(w_gate, dtype=float))
    bg = Tensor(np.zeros(d) if b_gate is None else np.array(b_gate, dtype=float))
    return FusionParams(
        w_filter_text=wf,
        b_filter_text=bf,
        w_filter_image=Tensor(wf.data.copy()),
        b_filter_image=Tensor(bf.data.copy()),
        w_gate_text=wg,
        b_gate_text=bg,
        w_gate_image=Tensor(wg.data.copy()),
        b_gate_image=Tensor(bg.data.copy()),
    )


def test_stage_spectra_are_magnitude_spectra():
    rng = named_stream(0, "test-st")
    t = rng.standard_normal((1, 8))
    v = rng.standard_normal((1, 8))
    feats = spectral_stage(Tensor(t), Tensor(v), make_params(8))
    assert np.max(np.abs(feats.t_freq.data - np.abs(naive_dft(t[0])))) <= 1e-9
    assert np.max(np.abs(feats.v_freq.data - np.abs(naive_dft(v[0])))) <= 1e-9


def test_identity_filter_bank_passes_spectrum_through():
    # d = K = 4 with the filter rows forming the standard basis
    m = Tensor([[3.0, 1.0, 4.0, 1.5]])
    feats = spectral_stage(m, m, make_params(4, w_filter=np.eye(4)))
    assert np.array_equal(feats.t_compressed.data, feats.t_freq.data)
    assert np.array_equal(feats.v_compressed.data, feats.v_freq.data)


def test_zero_filter_bank_returns_bias():
    m = Tensor([[3.0, 1.0, 4.0, 1.5]])
    b = [7.0, -2.0, 0.5, 9.0]
    feats = spectral_stage(m, m, make_params(4, b_filter=b))
    assert np.array_equal(feats.t_compressed.data, [b])
    assert np.array_equal(feats.v_compressed.data, [b])


def test_filter_bank_width_checked():
    with pytest.raises(DimensionError):
        spectral_stage(Tensor(np.ones((1, 5))), Tensor(np.ones((1, 5))), make_params(4))


def test_zero_gate_preactivation_halves_spectrum():
    rng = named_stream(1, "test-gate0")
    d = 8
    t = Tensor(rng.standard_normal((1, d)))
    v = Tensor(rng.standard_normal((1, d)))
    params = make_params(d)  # all-zero gates: sigmoid(0) = 0.5 exactly
    feats = spectral_stage(t, v, params)
    assert np.array_equal(feats.t_enhanced.data, 0.5 * feats.t_freq.data)
    assert np.array_equal(feats.v_enhanced.data, 0.5 * feats.v_freq.data)


def test_saturated_gate_passes_spectrum():
    rng = named_stream(2, "test-gate-sat")
    d = 8
    t = Tensor(rng.standard_normal((1, d)))
    v = Tensor(rng.standard_normal((1, d)))
    params = make_params(d, b_gate=np.full(d, 50.0))
    feats = spectral_stage(t, v, params)
    assert np.max(np.abs(feats.t_enhanced.data - feats.t_freq.data)) <= 1e-12
    assert np.max(np.abs(feats.v_enhanced.data - feats.v_freq.data)) <= 1e-12


def oracle_stage(t, v, p, co_selection=True):
    """Straight-line reimplementation of the whole fusion stage in plain numpy,
    on one (d,) vector per modality."""
    tf = np.abs(naive_dft(t))
    vf = np.abs(naive_dft(v))
    tc = p.w_filter_text.data @ tf + p.b_filter_text.data
    vc = p.w_filter_image.data @ vf + p.b_filter_image.data
    t_driver = tc.mean()
    v_driver = vc.mean()
    gt_in = v_driver if co_selection else t_driver
    gv_in = t_driver if co_selection else v_driver
    g_t = 1.0 / (1.0 + np.exp(-(p.w_gate_text.data[:, 0] * gt_in + p.b_gate_text.data)))
    g_v = 1.0 / (1.0 + np.exp(-(p.w_gate_image.data[:, 0] * gv_in + p.b_gate_image.data)))
    return tf * g_t, vf * g_v


def test_stage_matches_straight_line_oracle():
    d, k = 8, 4
    rng = named_stream(3, "test-stage-oracle")
    params = init_fusion_params(d, k, rng)
    t = rng.standard_normal(d)
    v = rng.standard_normal(d)
    feats = spectral_stage(Tensor(t[None]), Tensor(v[None]), params)
    want_t, want_v = oracle_stage(t, v, params)
    assert np.max(np.abs(feats.t_enhanced.data[0] - want_t)) <= 1e-12
    assert np.max(np.abs(feats.v_enhanced.data[0] - want_v)) <= 1e-12


def test_self_driven_gates_when_co_selection_off():
    d = 8
    rng = named_stream(4, "test-selfgate")
    params = init_fusion_params(d, 4, rng)
    # make the two gate maps very different so the driver swap is visible
    params.w_gate_text.data[:] = 3.0
    params.w_gate_image.data[:] = -3.0
    t = rng.standard_normal(d)
    v = rng.standard_normal(d)
    feats = spectral_stage(Tensor(t[None]), Tensor(v[None]), params, co_selection=False)
    want_t, want_v = oracle_stage(t, v, params, co_selection=False)
    assert np.max(np.abs(feats.t_enhanced.data[0] - want_t)) <= 1e-12
    assert np.max(np.abs(feats.v_enhanced.data[0] - want_v)) <= 1e-12
    crossed = spectral_stage(Tensor(t[None]), Tensor(v[None]), params, co_selection=True)
    assert not np.allclose(feats.t_enhanced.data, crossed.t_enhanced.data)


def test_gates_bounded_and_never_amplify():
    for trial in range(20):
        rng = named_stream(trial, "test-gate-bounds")
        d = int(rng.integers(4, 33))
        params = init_fusion_params(d, 4, rng)
        # random but finite gate parameters of moderate size
        params.w_gate_text.data[:] = rng.standard_normal((d, 1)) * 3
        params.b_gate_text.data[:] = rng.standard_normal(d) * 3
        t = Tensor(rng.standard_normal((1, d)))
        v = Tensor(rng.standard_normal((1, d)))
        feats = spectral_stage(t, v, params)
        assert np.all(np.abs(feats.t_enhanced.data) <= feats.t_freq.data + 1e-15)
        assert np.all(np.abs(feats.v_enhanced.data) <= feats.v_freq.data + 1e-15)
        with np.errstate(divide="ignore"):
            ratio = feats.t_enhanced.data / np.where(feats.t_freq.data == 0, 1, feats.t_freq.data)
        assert np.all(ratio > 0.0) and np.all(ratio < 1.0)


def test_frequency_off_is_identity_on_inputs():
    rng = named_stream(5, "test-freq-off")
    t = Tensor(rng.standard_normal((3, 8)))
    v = Tensor(rng.standard_normal((3, 8)))
    params = init_fusion_params(8, 4, rng)
    feats = spectral_stage(t, v, params, frequency=False)
    assert feats.t_enhanced is t
    assert feats.v_enhanced is v
    assert feats.t_freq is None and feats.v_compressed is None


def test_batched_stage_matches_per_row():
    rng = named_stream(6, "test-batch-stage")
    d = 8
    params = init_fusion_params(d, 4, rng)
    t = rng.standard_normal((5, d))
    v = rng.standard_normal((5, d))
    batched = spectral_stage(Tensor(t), Tensor(v), params)
    for i in range(5):
        row = spectral_stage(Tensor(t[i : i + 1]), Tensor(v[i : i + 1]), params)
        assert np.allclose(batched.t_enhanced.data[i], row.t_enhanced.data[0], atol=1e-12)
        assert np.allclose(batched.v_enhanced.data[i], row.v_enhanced.data[0], atol=1e-12)


def test_gate_gradients_reach_both_modalities():
    # the text gate is driven by the image summary, so image filter weights
    # must receive gradient through the text branch
    rng = named_stream(8, "test-gate-grad")
    d = 8
    params = init_fusion_params(d, 4, rng)
    tape = GradTape()
    t = Tensor(rng.standard_normal((1, d)))
    v = Tensor(rng.standard_normal((1, d)))
    feats = spectral_stage(t, v, params, tape)
    from freqfuse.kernel import ops

    s = ops.mean_pool(ops.mean_pool(feats.t_enhanced, tape=tape), tape=tape)
    tape.backward(s)
    assert params.w_filter_image.grad is not None
    assert np.any(params.w_filter_image.grad != 0)
    assert params.w_filter_text.grad is None  # text summaries drive only the image gate
