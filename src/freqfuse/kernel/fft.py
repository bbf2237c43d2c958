"""Discrete Fourier transform kernels and the magnitude-spectrum op.

Convention: unnormalized forward transform, X[k] = sum_n x[n] exp(-2i pi k n / d).
With it, Parseval reads sum_k |X[k]|^2 = d * sum_n x[n]^2 and a constant input
c produces a pure DC bin of height d*|c|.

The transform is numpy's FFT, O(d log d) at any length and vectorized over
leading batch axes.
"""

import numpy as np

from ..errors import DimensionError
from .tensor import GradTape, Tensor, _op_output

# subgradient clamp for zero-magnitude bins in the backward pass
MAG_EPS = 1e-12


def dft(x: np.ndarray) -> np.ndarray:
    """Complex spectrum of real or complex input along the last axis."""
    if x.shape[-1] < 1:
        raise DimensionError("dft needs at least one sample")
    return np.fft.fft(x, axis=-1)


def dft_magnitude_raw(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(|X|, X) of a real input; the spectrum is kept for the adjoint."""
    spectrum = dft(x)
    return np.abs(spectrum), spectrum


def dft_magnitude_backward(spectrum: np.ndarray, grad_out: np.ndarray) -> np.ndarray:
    """Adjoint of the magnitude spectrum w.r.t. the real input.

    d|X[k]|/dx[n] = Re(conj(X[k]) exp(-2i pi k n / d)) / max(|X[k]|, MAG_EPS),
    so the full adjoint is one more forward transform:
    grad = Re(DFT(grad_out * conj(X) / max(|X|, MAG_EPS))).
    """
    mag = np.abs(spectrum)
    weighted = grad_out * np.conj(spectrum) / np.maximum(mag, MAG_EPS)
    return np.real(dft(weighted))


def dft_magnitude(x: Tensor, tape: GradTape | None = None) -> Tensor:
    """Magnitude spectrum |DFT(x)| along the last axis, differentiable."""
    mag, spectrum = dft_magnitude_raw(x.data)

    def backward(g):
        x.accumulate_grad(dft_magnitude_backward(spectrum, g))

    return _op_output(mag, tape, backward)
