"""Brute-force reference for `retrieve_batch`, written apart from the program.

For every query `TopKOracle.top_k` scores all entries, orders them by a full
stable sort on (-score, entry index) and keeps the first k, so ties at the k
boundary go to the earlier entry. Scores use the same arithmetic as the
program (unit rows, squared cosine), so exact ties compare as ties on both
sides.

`retrieve_batch` returns only the aggregated vectors sum_j w_j e_j. `check`
compares them with the aggregate of the reference top-k entries; tied entries
with different norms make a wrong choice at the boundary visible. The
retrieved weights are then read back by least squares over the reference
entries (tied entries share one weight), and their sum must be 1 within 1e-12.
`check` needs only the reference entries, not the whole knowledge base, so the
reference can be computed in another process.
"""

import numpy as np

WEIGHT_SUM_TOL = 1e-12
OUTPUT_RTOL = 1e-9


def unit_rows(rows: np.ndarray) -> np.ndarray:
    return rows / np.linalg.norm(rows, axis=-1)[..., None]


class TopKOracle:
    def __init__(self, embeddings: np.ndarray):
        self.embeddings = np.asarray(embeddings, dtype=np.float64)
        self.unit = unit_rows(self.embeddings)

    def top_k(self, queries: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
        """(indices, scores) of the k best entries per query, fidelity scoring."""
        cos = unit_rows(queries) @ self.unit.T
        scores = cos * cos
        positions = np.arange(scores.shape[1])
        idx = np.stack([np.lexsort((positions, -row))[:k] for row in scores])
        return idx, np.take_along_axis(scores, idx, axis=1)


def check(output: np.ndarray, chosen: np.ndarray, top: np.ndarray, tau: float) -> list[str]:
    """Messages for every query whose output row disagrees with its reference
    top-k: `chosen[b]` holds the entries' embeddings and `top[b]` their scores,
    in the order `TopKOracle.top_k` gave them."""
    errors = []
    for b in range(len(output)):
        z = top[b] / tau
        w = np.exp(z - z.max())
        w /= w.sum()
        expected = w @ chosen[b]
        scale = np.linalg.norm(expected)
        if not np.all(np.abs(output[b] - expected) <= OUTPUT_RTOL * scale):
            errors.append(f"query {b}: output is not the aggregate of the reference top-k")
            continue
        weight_sum = _weight_sum(output[b], chosen[b])
        if abs(weight_sum - 1.0) > WEIGHT_SUM_TOL:
            errors.append(f"query {b}: retrieved weights sum to {weight_sum!r}")
    return errors


def _weight_sum(out: np.ndarray, chosen: np.ndarray) -> float:
    groups: dict[bytes, list[int]] = {}
    for i, row in enumerate(unit_rows(chosen)):
        groups.setdefault(row.tobytes(), []).append(i)
    basis = np.stack([chosen[g].sum(axis=0) for g in groups.values()], axis=1)
    shared, *_ = np.linalg.lstsq(basis, out, rcond=None)
    return float(sum(w * len(g) for w, g in zip(shared, groups.values())))
