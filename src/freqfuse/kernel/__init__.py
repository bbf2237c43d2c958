"""Numeric kernel: tensors, reverse-mode tape, DFT, layers, PSD square root, Adam."""

from .adam import AdamState, adam_step
from .eig import psd_sqrt
from .fft import dft, dft_magnitude, dft_magnitude_backward, dft_magnitude_raw
from .tensor import GradTape, Tensor, check_finite
from . import ops

__all__ = [
    "AdamState",
    "adam_step",
    "psd_sqrt",
    "dft",
    "dft_magnitude",
    "dft_magnitude_backward",
    "dft_magnitude_raw",
    "GradTape",
    "Tensor",
    "check_finite",
    "ops",
]
