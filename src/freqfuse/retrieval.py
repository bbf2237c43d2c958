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

from collections import Counter
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


# KB rows normalized together while `KnowledgeBase` builds its float32 unit
# rows, so no (N, d) float64 unit matrix is ever held
_UNIT_CHUNK_ROWS = 4096
# Below this many entries `_top_k` sends every (query, entry) pair straight to
# `_pair_scores` instead of screening first. On 2 cores (numpy 2.4.6, OpenBLAS
# 0.3.31, d=64, k=3) the two cost the same at about 96 entries: 403 against
# 356 us at B=32 and 3.80 against 3.79 ms at B=400. At 64 entries all pairs
# take 251 us at B=32 and 2.33 ms at B=400, a screen 256 us and 3.53 ms.
_SCREEN_MIN_ENTRIES = 96
# candidate pairs rescored together; bounds the gathered (pairs, d) rows
_PAIR_CHUNK = 1 << 12


class KnowledgeBase:
    """Immutable columns (ids, texts, embeddings) with the embeddings' norms
    and float32 unit rows (`unit32`) for the screening pass of `_top_k`.
    Built from loaded columns or a list of entries; ids must be distinct."""

    def __init__(self, entries: KnowledgeColumns | list[KnowledgeEntry]):
        if not len(entries):
            raise RetrievalError("knowledge base is empty")
        self.columns = entries if isinstance(entries, KnowledgeColumns) else _columns(entries)
        ids = self.columns.ids
        if len(set(ids)) != len(ids):
            counts = Counter(ids)
            dup = next(i for i in ids if counts[i] > 1)
            raise DataError(f"knowledge entry id {dup!r} appears more than once")
        self.embeddings = self.columns.embeddings
        self.norms = norms = np.empty(len(ids))
        self.unit32 = np.empty(self.embeddings.shape, dtype=np.float32)
        # a bad row's unit row is junk, and the checks below reject it
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            for start in range(0, len(ids), _UNIT_CHUNK_ROWS):
                rows = slice(start, start + _UNIT_CHUNK_ROWS)
                norms[rows] = np.linalg.norm(self.embeddings[rows], axis=1)
                self.unit32[rows] = self.unit_rows(rows)
        finite = np.isfinite(norms)
        if not finite.all():
            bad = ids[int(np.argmin(finite))]
            raise DataError(f"knowledge entry {bad!r} has an embedding whose norm is not finite")
        if np.any(norms <= NORM_EPS):
            bad = ids[int(np.argmin(norms))]
            raise DataError(f"knowledge entry {bad!r} has zero-norm embedding")

    def __len__(self):
        return len(self.columns)

    @property
    def d_model(self) -> int:
        return self.embeddings.shape[1]

    def unit_rows(self, index=slice(None)) -> np.ndarray:
        """Float64 unit rows of the indexed entries, computed on each call."""
        return self.embeddings[index] / self.norms[index, None]

    @property
    def unit(self) -> np.ndarray:
        return self.unit_rows()


@dataclass
class RetrievalResult:
    entries: list[KnowledgeEntry]
    similarities: np.ndarray  # descending
    weights: np.ndarray  # softmax over the retrieved K, sums to 1
    k_agg: np.ndarray
    indices: np.ndarray


def _block_width(n: int, k: int) -> int:
    """Entries per block for `_screen`: about 2 sqrt(N), where the block-max
    pass and the candidate scan cost about the same, and never so wide that
    fewer than k whole blocks fit."""
    return min(2 * isqrt(n), n // k)


def _check_options(kb: KnowledgeBase, k: int, tau: float, similarity: str) -> None:
    if k < 1 or k > len(kb):
        raise ConfigError(f"k={k} outside [1, {len(kb)}]")
    if not 0 < tau < np.inf:
        raise ConfigError(f"tau must be positive and finite, got {tau}")
    if similarity not in ("fidelity", "cosine"):
        raise ConfigError(f"unknown similarity {similarity!r}")


def _unit_queries(queries: np.ndarray, d_model: int) -> np.ndarray:
    """Rows of a (B, d) query matrix scaled to unit norm; each row is
    normalized on its own, so its bits do not depend on the other rows."""
    if queries.shape[1] != d_model:
        raise ContractError(
            f"query width {queries.shape[1]} does not match knowledge base width {d_model}"
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
    return queries / norms[:, None]


def _pair_scores(q: np.ndarray, unit: np.ndarray, similarity: str) -> np.ndarray:
    """Float64 score of each unit query row of `q` against the unit entry row
    of `unit` it meets when the two broadcast together. einsum sums each
    pair's d products in one order fixed by d alone (not by the pair's
    neighbours, the broadcast or the data's alignment), so a (query, entry)
    pair has the same bits whatever else is scored with it."""
    cos = np.einsum("...d,...d->...", q, unit)
    return cos * cos if similarity == "fidelity" else cos


def _block_max(s: np.ndarray, width: int) -> np.ndarray:
    """Max of each run of `width` rows of an (m * width, B) matrix, shape (m, B).
    A halving tree of elementwise maxima over half-blocks; numpy's max over
    the middle axis of (m, width, B) is about 2.5x slower at B=32."""
    blocks = s.reshape(len(s) // width, width, s.shape[1])
    half = (width + 1) // 2  # an odd width's middle row meets itself
    top = np.maximum(blocks[:, :half], blocks[:, width - half :])
    w = half
    while w > 1:
        half = w // 2
        np.maximum(top[:, :half], top[:, w - half : w], out=top[:, :half])
        w -= half
    return top[:, 0]


def _screen(qn: np.ndarray, kb: KnowledgeBase, k: int, similarity: str):
    """(rows, cols) of a superset of each query's top-k entries, found from
    float32 scores.

    With u = 2^-24, the float32 score of a pair is within
    delta = 4 (d + 2) u of its float64 `_pair_scores` score. That covers the
    rounding of both unit vectors to float32 (2u), Higham's gamma_d bound for
    a float32 dot product summed in any order, FMA and blocked BLAS included
    (about d u), the float32 squaring for fidelity (which doubles the cosine
    error and adds u), the float64 rescoring error (about d 2^-53) and
    flush-to-zero of subnormal products (about d 2^-126), with room to spare.

    Let t be the k-th largest float32 block max of a query. The k blocks
    with the largest maxima hold k distinct entries with float32 score >= t,
    so their float64 scores, and hence the true k-th score, are >= t - delta.
    Every entry that ranks within the top k, ties at k included, has a float64
    score >= that k-th score, so its float32 score is >= t - 2 delta. Keeping
    every entry at or above that floor keeps the whole top k; ranking the kept
    entries by float64 score gives it exactly."""
    delta = 4 * (kb.d_model + 2) * 2.0**-24
    s = kb.unit32 @ qn.astype(np.float32).T  # (N, B)
    if similarity == "fidelity":
        np.multiply(s, s, out=s)
    width = _block_width(len(s), k)
    nb = len(s) // width
    tops = _block_max(s[: nb * width], width)
    t = np.partition(tops, nb - k, axis=0)[nb - k]
    # one float32 step down, so rounding the subtraction never raises the floor
    floor = np.nextafter(t - np.float32(2 * delta), np.float32(-np.inf))
    block, rows = np.nonzero(tops >= floor)
    vals = s[: nb * width].reshape(nb, width, len(qn))[block, :, rows]
    i, j = np.nonzero(vals >= floor[rows, None])
    tail_cols, tail_rows = np.nonzero(s[nb * width :] >= floor)
    rows = np.concatenate((rows[i], tail_rows))
    cols = np.concatenate((block[i] * width + j, tail_cols + nb * width))
    return rows, cols


def _top_k(
    queries: np.ndarray, kb: KnowledgeBase, k: int, tau: float, similarity: str
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Indices, similarities (descending) and softmax weights of the k best
    entries for each row of a (B, d) query matrix, each of shape (B, k).

    Two passes. Candidates come from `_screen`, or on a KB of fewer than
    _SCREEN_MIN_ENTRIES entries are every (query, entry) pair. `_pair_scores`
    scores them in float64, and they are ranked by (row, -score, entry index),
    so ties keep entry order exactly as a full stable sort would. Every
    output row depends only on its query: retrieval is batch-invariant."""
    _check_options(kb, k, tau, similarity)
    qn = _unit_queries(queries, kb.d_model)
    b, n = len(qn), len(kb)
    if n < _SCREEN_MIN_ENTRIES:
        scores = _pair_scores(qn[:, None], kb.unit, similarity)
        order = np.argsort(-scores, axis=1, kind="stable")[:, :k]
        top = np.take_along_axis(scores, order, axis=1)
    else:
        rows, cols = _screen(qn, kb, k, similarity)
        scores = np.empty(len(rows))
        for start in range(0, len(rows), _PAIR_CHUNK):
            part = slice(start, start + _PAIR_CHUNK)
            scores[part] = _pair_scores(qn[rows[part]], kb.unit_rows(cols[part]), similarity)
        ranked = np.lexsort((cols, -scores, rows))
        # every row has at least k candidates; its first k ranked are its top k
        starts = np.searchsorted(rows[ranked], np.arange(b))
        pick = ranked[starts[:, None] + np.arange(k)]
        order, top = cols[pick], scores[pick]
    return order, top, ops.softmax(Tensor(top / tau)).data


def _aggregate(weights: np.ndarray, order: np.ndarray, kb: KnowledgeBase) -> np.ndarray:
    """sum_j w_j e_j per row: the weighted raw embeddings of the retrieved entries."""
    return np.einsum("bk,bkd->bd", weights, kb.embeddings[order])


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
    order, top, weights = _top_k(q[None, :], kb, k, tau, similarity)
    return RetrievalResult(
        entries=[kb.columns[i] for i in order[0]],
        similarities=top[0],
        weights=weights[0],
        k_agg=_aggregate(weights, order, kb)[0],
        indices=order[0],
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
    return _aggregate(weights, order, kb)
