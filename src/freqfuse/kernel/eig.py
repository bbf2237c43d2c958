"""Square root of a symmetric positive semidefinite matrix, on numpy's `eigh`.

The retrieval fidelity verification path runs it on small density matrices.
"""

import numpy as np

from ..errors import ContractError
from .tensor import check_finite

SYMMETRY_TOL = 1e-10
PSD_VIOLATION = 1e-8


def psd_sqrt(a: np.ndarray) -> np.ndarray:
    """Symmetric square root of a PSD matrix via eigendecomposition.

    Raises ContractError if `a` is not square or not symmetric within 1e-10,
    or has an eigenvalue below -PSD_VIOLATION; eigenvalues in
    [-PSD_VIOLATION, 0) are clipped to 0.
    """
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ContractError(f"expected a square matrix, got shape {a.shape}")
    if np.max(np.abs(a - a.T)) > SYMMETRY_TOL:
        raise ContractError("matrix is not symmetric within 1e-10")
    check_finite(a, "psd_sqrt input")
    w, v = np.linalg.eigh(a)
    if np.min(w) < -PSD_VIOLATION:
        raise ContractError(f"matrix is not PSD: eigenvalue {np.min(w):.3e}")
    w = np.clip(w, 0.0, None)
    return (v * np.sqrt(w)) @ v.T
