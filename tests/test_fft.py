import numpy as np
import pytest

from conftest import naive_dft, rel_err
from freqfuse.kernel import GradTape, Tensor
from freqfuse.kernel.fft import MAG_EPS, dft, dft_magnitude, dft_magnitude_raw
from freqfuse.rng import named_stream


def test_constant_vector_is_pure_dc():
    x = np.full(8, 2.5)
    spectrum = dft(x)
    assert abs(spectrum[0] - 8 * 2.5) < 1e-12
    assert np.max(np.abs(spectrum[1:])) < 1e-12


def test_impulse_is_flat():
    x = np.zeros(16)
    x[0] = 1.0
    assert np.max(np.abs(dft(x) - 1.0)) < 1e-12


def test_matches_naive_oracle_across_sizes():
    for d in (4, 12, 64, 256):  # 12 is not a power of two
        rng = named_stream(d, "test-dft")
        x = rng.standard_normal(d)
        assert rel_err(dft(x), naive_dft(x)) <= 1e-9


def test_parseval_energy_identity():
    for trial in range(5):
        rng = named_stream(trial, "test-parseval")
        x = rng.standard_normal(64)
        time_energy = float(np.sum(x**2))
        freq_energy = float(np.sum(np.abs(dft(x)) ** 2)) / 64
        assert abs(time_energy - freq_energy) / time_energy <= 1e-9


def test_circular_shift_preserves_magnitude():
    rng = named_stream(0, "test-shift")
    x = rng.standard_normal(32)
    base = np.abs(dft(x))
    for shift in (1, 5, 17):
        rolled = np.abs(dft(np.roll(x, shift)))
        assert np.max(np.abs(rolled - base)) <= 1e-9


def test_real_input_conjugate_symmetry():
    rng = named_stream(1, "test-conj")
    d = 64
    x = rng.standard_normal(d)
    spectrum = dft(x)
    for k in range(1, d):
        assert abs(spectrum[k] - np.conj(spectrum[d - k])) <= 1e-9


def test_magnitude_raw_returns_spectrum():
    rng = named_stream(2, "test-magraw")
    x = rng.standard_normal(16)
    mags, spectrum = dft_magnitude_raw(x)
    assert np.allclose(mags, np.abs(spectrum), atol=1e-14)
    assert rel_err(spectrum, naive_dft(x)) <= 1e-9


def test_magnitude_backward_hand_case():
    # x = e_0, d = 8: spectrum is all-ones, so d|X_k|/dx_n = cos(2 pi k n / d)
    # and the ones-seeded gradient collapses to [d, 0, ..., 0].
    tape = GradTape()
    x = Tensor(np.eye(8)[0])
    m = dft_magnitude(x, tape)
    assert np.allclose(m.data, np.ones(8), atol=1e-12)
    tape.backward(m, seed=np.ones(8))
    expect = np.zeros(8)
    expect[0] = 8.0
    assert np.max(np.abs(x.grad - expect)) <= 1e-9


def test_magnitude_backward_matches_finite_differences():
    rng = named_stream(3, "test-magfd")
    x0 = rng.standard_normal(8)
    w = rng.standard_normal(8)  # fixed projection so the output is a scalar

    tape = GradTape()
    x = Tensor(x0.copy())
    m = dft_magnitude(x, tape)
    tape.backward(m, seed=w)
    analytic = x.grad.copy()

    h = 1e-6
    numeric = np.zeros(8)
    for i in range(8):
        xp, xm = x0.copy(), x0.copy()
        xp[i] += h
        xm[i] -= h
        fp = float(np.dot(w, dft_magnitude_raw(xp)[0]))
        fm = float(np.dot(w, dft_magnitude_raw(xm)[0]))
        numeric[i] = (fp - fm) / (2 * h)
    assert rel_err(analytic, numeric) <= 1e-6


def test_magnitude_backward_zero_input_is_finite():
    # all magnitudes are exactly zero; the eps guard must keep gradients finite
    tape = GradTape()
    x = Tensor(np.zeros(8))
    m = dft_magnitude(x, tape)
    tape.backward(m, seed=np.ones(8))
    assert np.all(np.isfinite(x.grad))
    assert MAG_EPS > 0


def test_batched_magnitude_matches_per_row():
    rng = named_stream(4, "test-magbatch")
    x = rng.standard_normal((3, 16))
    batched = dft_magnitude(Tensor(x)).data
    for i in range(3):
        row = dft_magnitude(Tensor(x[i])).data
        assert np.allclose(batched[i], row, atol=1e-12)


def test_empty_input_rejected():
    from freqfuse.errors import DimensionError

    with pytest.raises(DimensionError):
        dft(np.array([]))
