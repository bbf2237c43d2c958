"""Retrieval over a knowledge base scored by state fidelity.

Feature vectors are normalized to unit vectors (pure states); a pure state's
density matrix is its rank-1 outer product. Fidelity between two density
matrices is Uhlmann's ||sqrt(rho_q) sqrt(rho_k)||_1^2, the squared sum of the
singular values of the product of the two square roots; it is symmetric by
construction and for two pure states collapses to the squared inner product
of the unit vectors. Retrieval uses the pure-state form; the general path
exists so the two can be checked against each other.

Retrieval is a non-differentiated lookup: similarities are computed from
plain arrays and no gradient flows into the knowledge base or through the
top-K selection.
"""

from dataclasses import dataclass, field

import numpy as np

from .data import KnowledgeEntry
from .errors import ConfigError, ContractError, DataError, DegenerateInputError, RetrievalError
from .kernel import Tensor, ops, psd_sqrt

TOP_K = 3
SOFTMAX_TAU = 0.1
NORM_EPS = 1e-12


@dataclass
class QuantumState:
    amplitudes: np.ndarray

    def __post_init__(self):
        self.amplitudes = np.asarray(self.amplitudes, dtype=np.float64)
        norm = np.linalg.norm(self.amplitudes)
        if abs(norm - 1.0) > 1e-10:
            raise ContractError(f"state norm {norm} is not 1 within 1e-10")


@dataclass
class DensityMatrix:
    rho: np.ndarray
    # set when the matrix is a known rank-1 outer product, enabling the fast path
    state: QuantumState | None = field(default=None)

    def __post_init__(self):
        self.rho = np.asarray(self.rho, dtype=np.float64)
        if self.rho.ndim != 2 or self.rho.shape[0] != self.rho.shape[1]:
            raise ContractError(f"density matrix must be square, got {self.rho.shape}")
        if not np.allclose(self.rho, self.rho.T, atol=1e-9):
            raise ContractError("density matrix must be symmetric")
        tr = float(np.trace(self.rho))
        if abs(tr - 1.0) > 1e-9:
            raise ContractError(f"density matrix trace {tr} is not 1 within 1e-9")


def normalize_to_state(x: np.ndarray) -> QuantumState:
    x = np.asarray(x, dtype=np.float64)
    norm = np.linalg.norm(x)
    if norm <= NORM_EPS:
        raise DegenerateInputError("cannot normalize a (near-)zero vector to a state")
    return QuantumState(x / norm)


def density(state: QuantumState) -> DensityMatrix:
    psi = state.amplitudes
    return DensityMatrix(np.outer(psi, psi), state=state)


def fidelity(rho_q: DensityMatrix, rho_k: DensityMatrix) -> float:
    """Fidelity in [0, 1]; rank-1 inputs take the inner-product fast path."""
    if rho_q.state is not None and rho_k.state is not None:
        overlap = float(rho_q.state.amplitudes @ rho_k.state.amplitudes)
        return float(np.clip(overlap * overlap, 0.0, 1.0))
    singular = np.linalg.svd(psd_sqrt(rho_q.rho) @ psd_sqrt(rho_k.rho), compute_uv=False)
    return float(np.clip(np.sum(singular) ** 2, 0.0, 1.0))


def fidelity_general(rho_q: DensityMatrix, rho_k: DensityMatrix) -> float:
    """General (Uhlmann) path regardless of rank; verification oracle."""
    return fidelity(DensityMatrix(rho_q.rho), DensityMatrix(rho_k.rho))


class KnowledgeBase:
    """Immutable entry store with unit-normalized rows precomputed for scoring."""

    def __init__(self, entries: list[KnowledgeEntry]):
        if not entries:
            raise RetrievalError("knowledge base is empty")
        self.entries = list(entries)
        dims = {e.embedding.shape for e in self.entries}
        if len(dims) != 1 or self.entries[0].embedding.ndim != 1:
            raise DataError(f"inconsistent embedding shapes: {sorted(dims)}")
        self.embeddings = np.stack([e.embedding for e in self.entries])
        norms = np.linalg.norm(self.embeddings, axis=1)
        if np.any(norms <= NORM_EPS):
            bad = self.entries[int(np.argmin(norms))].entry_id
            raise DataError(f"knowledge entry {bad!r} has zero-norm embedding")
        self.unit = self.embeddings / norms[:, None]

    def __len__(self):
        return len(self.entries)

    @property
    def d_model(self) -> int:
        return self.embeddings.shape[1]


@dataclass
class RetrievalResult:
    entries: list[KnowledgeEntry]
    similarities: np.ndarray  # descending
    weights: np.ndarray  # softmax over the retrieved K, sums to 1
    k_agg: np.ndarray
    indices: np.ndarray


def _similarities(qn: np.ndarray, kb: KnowledgeBase, similarity: str) -> np.ndarray:
    sims = qn @ kb.unit.T
    if similarity == "fidelity":
        return np.multiply(sims, sims, out=sims)
    if similarity == "cosine":
        return sims
    raise ConfigError(f"unknown similarity {similarity!r}")


def _top_k(
    queries: np.ndarray, kb: KnowledgeBase, k: int, tau: float, similarity: str
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Indices, similarities (descending) and softmax weights of the k best
    entries for each row of a (B, d) query matrix, each of shape (B, k)."""
    if k < 1 or k > len(kb):
        raise ConfigError(f"k={k} outside [1, {len(kb)}]")
    if tau <= 0:
        raise ConfigError(f"tau must be positive, got {tau}")
    if queries.shape[1] != kb.d_model:
        raise ContractError(
            f"query width {queries.shape[1]} does not match knowledge base width {kb.d_model}"
        )
    finite = np.isfinite(queries).all(axis=1)
    if not finite.all():
        raise ContractError(f"query row {int(np.argmin(finite))} contains NaN or Inf")
    norms = np.linalg.norm(queries, axis=1)
    if np.any(norms <= NORM_EPS):
        raise DegenerateInputError("cannot normalize a (near-)zero query vector")
    sims = _similarities(queries / norms[:, None], kb, similarity)
    # O(N) selection of each row's k-th best score; the entries at or above it
    # are k, or more when scores tie at the boundary. Sorting only those
    # candidates by (-sim, entry index) keeps ties in entry order.
    n = sims.shape[1]
    kth = np.partition(sims, n - k, axis=1)[:, n - k]
    rows, cols = np.divmod(np.flatnonzero(sims >= kth[:, None]), n)
    ranked = np.lexsort((cols, -sims[rows, cols], rows))
    # rows come out sorted, so each row's candidates start at its first position
    starts = np.searchsorted(rows, np.arange(len(queries)))
    order = cols[ranked[starts[:, None] + np.arange(k)]]
    top = np.take_along_axis(sims, order, axis=1)
    return order, top, ops.softmax(Tensor(top / tau)).data


def retrieve(
    q: np.ndarray,
    kb: KnowledgeBase,
    k: int = TOP_K,
    tau: float = SOFTMAX_TAU,
    similarity: str = "fidelity",
) -> RetrievalResult:
    q = np.asarray(q, dtype=np.float64)
    if q.ndim != 1:
        raise ContractError(f"expected a (d,) query, got {q.shape}")
    (order,), (top,), (weights,) = _top_k(q[None, :], kb, k, tau, similarity)
    return RetrievalResult(
        entries=[kb.entries[i] for i in order],
        similarities=top,
        weights=weights,
        k_agg=weights @ kb.embeddings[order],
        indices=order,
    )


def retrieve_batch(
    queries: np.ndarray,
    kb: KnowledgeBase,
    k: int = TOP_K,
    tau: float = SOFTMAX_TAU,
    similarity: str = "fidelity",
) -> np.ndarray:
    """Aggregated knowledge vectors for a batch of queries, shape (B, d_model)."""
    queries = np.asarray(queries, dtype=np.float64)
    if queries.ndim != 2:
        raise ContractError(f"expected (B, d) queries, got {queries.shape}")
    order, _, weights = _top_k(queries, kb, k, tau, similarity)
    return np.einsum("bk,bkd->bd", weights, kb.embeddings[order])
