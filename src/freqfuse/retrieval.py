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
from math import isqrt

import numpy as np

from .data import KnowledgeColumns, KnowledgeEntry
from .errors import ConfigError, ContractError, DataError, DegenerateInputError, RetrievalError
from .kernel import Tensor, ops, psd_sqrt
from .kernel.eig import SYMMETRY_TOL

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
        # psd_sqrt's tolerance, so that every accepted matrix can be scored;
        # a NaN fails the comparison and is rejected
        if not np.all(np.abs(self.rho - self.rho.T) <= SYMMETRY_TOL):
            raise ContractError(f"density matrix must be symmetric within {SYMMETRY_TOL}")
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


def _columns(entries: list[KnowledgeEntry]) -> KnowledgeColumns:
    dims = {e.embedding.shape for e in entries}
    if len(dims) != 1 or entries[0].embedding.ndim != 1:
        raise DataError(f"inconsistent embedding shapes: {sorted(dims)}")
    return KnowledgeColumns(
        ids=[e.entry_id for e in entries],
        texts=[e.text for e in entries],
        embeddings=np.stack([e.embedding for e in entries]),
    )


class KnowledgeBase:
    """Immutable columns (ids, texts, embeddings) with unit-normalized rows
    precomputed for scoring. Built from loaded columns or a list of entries."""

    def __init__(self, entries: KnowledgeColumns | list[KnowledgeEntry]):
        if not len(entries):
            raise RetrievalError("knowledge base is empty")
        self.columns = entries if isinstance(entries, KnowledgeColumns) else _columns(entries)
        self.embeddings = self.columns.embeddings
        with np.errstate(over="ignore"):
            norms = np.linalg.norm(self.embeddings, axis=1)
        finite = np.isfinite(norms)
        if not finite.all():
            bad = self.columns.ids[int(np.argmin(finite))]
            raise DataError(f"knowledge entry {bad!r} has an embedding whose norm is not finite")
        if np.any(norms <= NORM_EPS):
            bad = self.columns.ids[int(np.argmin(norms))]
            raise DataError(f"knowledge entry {bad!r} has zero-norm embedding")
        self.unit = self.embeddings / norms[:, None]

    def __len__(self):
        return len(self.columns)

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


def _block_width(n: int, k: int) -> int:
    """Entries per block for `_top_k`: about 2 sqrt(N), where the block-max
    pass and the candidate scan cost about the same, and never so wide that
    fewer than k whole blocks fit."""
    return min(2 * isqrt(n), n // k)


def _top_k(
    queries: np.ndarray, kb: KnowledgeBase, k: int, tau: float, similarity: str
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Indices, similarities (descending) and softmax weights of the k best
    entries for each row of a (B, d) query matrix, each of shape (B, k)."""
    if k < 1 or k > len(kb):
        raise ConfigError(f"k={k} outside [1, {len(kb)}]")
    if not 0 < tau < np.inf:
        raise ConfigError(f"tau must be positive and finite, got {tau}")
    if queries.shape[1] != kb.d_model:
        raise ContractError(
            f"query width {queries.shape[1]} does not match knowledge base width {kb.d_model}"
        )
    with np.errstate(over="ignore"):
        norms = np.linalg.norm(queries, axis=1)
    finite = np.isfinite(norms)
    if not finite.all():
        raise ContractError(
            f"query row {int(np.argmin(finite))} holds NaN or Inf or its norm overflows float64"
        )
    if np.any(norms <= NORM_EPS):
        raise DegenerateInputError("cannot normalize a (near-)zero query vector")
    sims = _similarities(queries / norms[:, None], kb, similarity)
    # Block-max selection. The k whole blocks with the largest maxima hold k
    # distinct entries scoring >= `bound`, the k-th largest block max, so every
    # top-k entry scores >= bound and lies in a block whose max is >= bound,
    # or in the tail after the last whole block. Only those entries are
    # ranked, by (row, -sim, entry index), so ties keep entry order exactly
    # as a full stable sort would.
    b, n = sims.shape
    width = _block_width(n, k)
    nb = n // width
    full = nb * width
    blocks = sims[:, :full].reshape(b, nb, width)
    tops = blocks.max(axis=2)
    bound = np.partition(tops, nb - k, axis=1)[:, nb - k, None]
    rows, block = np.nonzero(tops >= bound)
    vals = blocks[rows, block]
    i, j = np.nonzero(vals >= bound[rows])
    rows, cols, scores = rows[i], block[i] * width + j, vals[i, j]
    if full < n:
        tail_rows, tail_cols = np.nonzero(sims[:, full:] >= bound)
        tail_cols += full
        rows = np.concatenate((rows, tail_rows))
        cols = np.concatenate((cols, tail_cols))
        scores = np.concatenate((scores, sims[tail_rows, tail_cols]))
    ranked = np.lexsort((cols, -scores, rows))
    # every row has at least k candidates; its first k ranked are its top k
    starts = np.searchsorted(rows[ranked], np.arange(b))
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
        entries=[kb.columns[i] for i in order],
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
