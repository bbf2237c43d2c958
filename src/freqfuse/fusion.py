"""Spectral fusion stage: magnitude spectra, filter-bank compression, and
cross-modal gated co-selection.

Each modality's projected feature vector is mapped to its magnitude spectrum,
compressed to K scalar summaries by a learnable filter bank, and the average
summary of the OTHER modality drives a sigmoid gate over this modality's full
spectrum. Gating never amplifies: enhanced spectra are bounded by the raw
spectra elementwise.
"""

from dataclasses import dataclass

import numpy as np

from .kernel import GradTape, Tensor, dft_magnitude
from .kernel import ops

K_FILTERS = 4


@dataclass
class FusionParams:
    """Per-modality filter banks plus the two cross-modal gate maps.

    Filter weights are [K, d_model]; gate weights are [d_model, 1] (the gate
    input is the scalar average of the other modality's K summaries).
    """

    w_filter_text: Tensor
    b_filter_text: Tensor
    w_filter_image: Tensor
    b_filter_image: Tensor
    w_gate_text: Tensor
    b_gate_text: Tensor
    w_gate_image: Tensor
    b_gate_image: Tensor

    @property
    def k(self) -> int:
        return self.w_filter_text.shape[0]

    @property
    def d_model(self) -> int:
        return self.w_filter_text.shape[1]

    def named(self) -> dict[str, Tensor]:
        # this order fixes the flat parameter layout and the checkpoint's
        return {
            "fusion.w_filter_text": self.w_filter_text,
            "fusion.b_filter_text": self.b_filter_text,
            "fusion.w_gate_text": self.w_gate_text,
            "fusion.b_gate_text": self.b_gate_text,
            "fusion.w_gate_image": self.w_gate_image,
            "fusion.b_gate_image": self.b_gate_image,
            "fusion.w_filter_image": self.w_filter_image,
            "fusion.b_filter_image": self.b_filter_image,
        }


def init_fusion_params(d_model: int, k: int, rng: np.random.Generator) -> FusionParams:
    scale = 1.0 / np.sqrt(d_model)
    # small gate weights keep gates near 0.5 at the start of training
    return FusionParams(
        w_filter_text=Tensor(scale * rng.standard_normal((k, d_model))),
        b_filter_text=Tensor(np.zeros(k)),
        w_filter_image=Tensor(scale * rng.standard_normal((k, d_model))),
        b_filter_image=Tensor(np.zeros(k)),
        w_gate_text=Tensor(0.01 * rng.standard_normal((d_model, 1))),
        b_gate_text=Tensor(np.zeros(d_model)),
        w_gate_image=Tensor(0.01 * rng.standard_normal((d_model, 1))),
        b_gate_image=Tensor(np.zeros(d_model)),
    )


@dataclass
class SpectralFeatures:
    """Outputs of the fusion stage; spectral fields are None on the spatial path."""

    t_freq: Tensor | None
    v_freq: Tensor | None
    t_compressed: Tensor | None
    v_compressed: Tensor | None
    t_enhanced: Tensor
    v_enhanced: Tensor


def co_select(
    t_freq: Tensor,
    v_freq: Tensor,
    t_comp: Tensor,
    v_comp: Tensor,
    params: FusionParams,
    tape: GradTape | None = None,
    co_selection: bool = True,
) -> tuple[Tensor, Tensor]:
    """Gate each spectrum by a sigmoid driven by the other modality's summary.

    With co_selection=False each gate is driven by its own modality instead,
    which is the co-selection ablation.
    """
    t_driver = ops.mean_pool(t_comp, keepdims=True, tape=tape)
    v_driver = ops.mean_pool(v_comp, keepdims=True, tape=tape)
    gate_t_in = v_driver if co_selection else t_driver
    gate_v_in = t_driver if co_selection else v_driver
    g_text = ops.sigmoid(ops.linear(gate_t_in, params.w_gate_text, params.b_gate_text, tape), tape)
    g_image = ops.sigmoid(ops.linear(gate_v_in, params.w_gate_image, params.b_gate_image, tape), tape)
    return ops.mul(t_freq, g_text, tape), ops.mul(v_freq, g_image, tape)


def spectral_stage(
    t: Tensor,
    v: Tensor,
    params: FusionParams,
    tape: GradTape | None = None,
    frequency: bool = True,
    co_selection: bool = True,
) -> SpectralFeatures:
    """Full fusion stage on batches (B, d_model). Each filter bank compresses a
    spectrum to K scalar summaries, f_k = w_k . m + b_k. With frequency=False
    the stage is the identity on (t, v)."""
    if not frequency:
        return SpectralFeatures(
            t_freq=None,
            v_freq=None,
            t_compressed=None,
            v_compressed=None,
            t_enhanced=t,
            v_enhanced=v,
        )
    t_freq, v_freq = dft_magnitude(t, tape), dft_magnitude(v, tape)
    t_comp = ops.linear(t_freq, params.w_filter_text, params.b_filter_text, tape)
    v_comp = ops.linear(v_freq, params.w_filter_image, params.b_filter_image, tape)
    t_enh, v_enh = co_select(t_freq, v_freq, t_comp, v_comp, params, tape, co_selection)
    return SpectralFeatures(
        t_freq=t_freq,
        v_freq=v_freq,
        t_compressed=t_comp,
        v_compressed=v_comp,
        t_enhanced=t_enh,
        v_enhanced=v_enh,
    )
