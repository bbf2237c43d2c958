import numpy as np
import pytest

import workloads
from freqfuse.data import KnowledgeEntry, generate_synthetic
from freqfuse.retrieval import KnowledgeBase, retrieve_batch
from oracle import TopKOracle
from oracle import check as check_output

K, TAU = 3, 0.1


def check(oracle, queries, output, k):
    idx, scores = oracle.top_k(queries, k)
    return check_output(output, oracle.embeddings[idx], scores, TAU)


def tie_kb():
    """Entry 0 and its copies at 5, 9 and 12 tie exactly; k=3 cuts the tie."""
    rng = np.random.default_rng(0)
    base = rng.standard_normal(8)
    rows = rng.standard_normal((16, 8))
    rows[0] = base
    for index, scale in ((5, 2.0), (9, 4.0), (12, 8.0)):
        rows[index] = scale * base
    return rows, (base + 0.01 * rng.standard_normal((4, 8)))


def aggregate(rows, queries, chosen, weight_scale=1.0):
    out = []
    for q, idx in zip(queries, chosen):
        qn = q / np.linalg.norm(q)
        unit = rows / np.linalg.norm(rows, axis=1)[:, None]
        z = (unit[idx] @ qn) ** 2 / TAU
        w = np.exp(z - z.max())
        out.append(weight_scale * (w / w.sum()) @ rows[idx])
    return np.array(out)


def test_oracle_accepts_retrieve_batch_with_boundary_ties():
    rows, queries = tie_kb()
    oracle = TopKOracle(rows)
    idx, scores = oracle.top_k(queries, K + 1)
    assert idx[:, :K].tolist() == [[0, 5, 9]] * len(queries)
    assert np.all(scores[:, K - 1] == scores[:, K])  # the tie crosses the boundary
    kb = KnowledgeBase([KnowledgeEntry(f"e{i}", "", r) for i, r in enumerate(rows)])
    assert check(oracle, queries, retrieve_batch(queries, kb, k=K, tau=TAU), K) == []


def test_oracle_rejects_wrong_top_k():
    rows, queries = tie_kb()
    oracle = TopKOracle(rows)
    late_tie = aggregate(rows, queries, [[0, 5, 12]] * len(queries))
    assert len(check(oracle, queries, late_tie, K)) == len(queries)
    too_few = aggregate(rows, queries, [[0, 5]] * len(queries))
    assert check(oracle, queries, too_few, K)


def test_oracle_rejects_weights_that_do_not_sum_to_one():
    rows, queries = tie_kb()
    oracle = TopKOracle(rows)
    assert check(oracle, queries, aggregate(rows, queries, [[0, 5, 9]] * 4), K) == []
    # within the output tolerance, but the weights sum to 1 + 1e-10
    drifted = aggregate(rows, queries, [[0, 5, 9]] * 4, weight_scale=1.0 + 1e-10)
    errors = check(oracle, queries, drifted, K)
    assert errors and all("sum to" in e for e in errors)


def test_large_kb_construction_passes_against_retrieve_batch(monkeypatch):
    monkeypatch.setattr(workloads, "LARGE_KB_SIZE", 600)
    manifest, samples, kb_entries = generate_synthetic(4, 20, 64, 0.3, seed=3)
    entries = workloads.large_kb_entries(kb_entries, seed=3)
    assert len(entries) == 600
    kb = KnowledgeBase(entries)
    oracle = TopKOracle(np.stack([e.embedding for e in entries]))
    queries = np.stack([s.image_features for s in samples[:32]])
    assert check(oracle, queries, retrieve_batch(queries, kb, k=K, tau=TAU), K) == []
    # prototypes reach the top-k, so their power-of-two copies tie at the boundary
    _, scores = oracle.top_k(queries, K + 1)
    assert np.any(scores[:, K - 1] == scores[:, K])


@pytest.mark.parametrize("k", [1, 2, 4])
def test_oracle_agrees_with_retrieve_batch_for_other_k(k):
    rows, queries = tie_kb()
    kb = KnowledgeBase([KnowledgeEntry(f"e{i}", "", r) for i, r in enumerate(rows)])
    assert check(TopKOracle(rows), queries, retrieve_batch(queries, kb, k=k, tau=TAU), k) == []
