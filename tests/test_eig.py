import numpy as np
import pytest

from freqfuse.errors import ContractError, NumericError
from freqfuse.kernel.eig import psd_sqrt
from freqfuse.rng import named_stream


def test_rejects_bad_input():
    with pytest.raises(ContractError):
        psd_sqrt(np.array([[1.0, 2.0], [0.0, 1.0]]))
    with pytest.raises(ContractError):
        psd_sqrt(np.zeros((2, 3)))
    with pytest.raises(ContractError):
        psd_sqrt(np.zeros(4))
    with pytest.raises(NumericError):
        psd_sqrt(np.full((2, 2), np.nan))


def test_psd_sqrt_squares_back():
    for trial in range(5):
        rng = named_stream(trial, "test-sqrt")
        b = rng.standard_normal((6, 6))
        a = b @ b.T  # PSD by construction
        r = psd_sqrt(a)
        assert np.max(np.abs(r @ r - a)) <= 1e-8
        assert np.max(np.abs(r - r.T)) <= 1e-10


def test_psd_sqrt_clamps_tiny_negative():
    a = np.diag([1.0, -5e-11, -5e-9])  # within the 1e-8 violation band
    r = psd_sqrt(a)
    assert r[1, 1] == 0.0
    assert r[2, 2] == 0.0


def test_psd_sqrt_rejects_indefinite():
    with pytest.raises(ContractError):
        psd_sqrt(np.diag([1.0, -1e-3]))
