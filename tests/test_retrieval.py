import numpy as np
import pytest

from freqfuse.data import KnowledgeEntry
from freqfuse.errors import (
    ConfigError,
    ContractError,
    DataError,
    DegenerateInputError,
    RetrievalError,
)
from freqfuse.retrieval import (
    DensityMatrix,
    KnowledgeBase,
    QuantumState,
    density,
    fidelity,
    fidelity_general,
    normalize_to_state,
    retrieve,
    retrieve_batch,
)
from freqfuse.kernel import Tensor, ops
from freqfuse.rng import named_stream


def entry(i, vec):
    return KnowledgeEntry(f"e{i}", f"entry {i}", np.asarray(vec, dtype=float))


def random_state(rng, d):
    return normalize_to_state(rng.standard_normal(d))


def test_normalize_three_four_five():
    s = normalize_to_state(np.array([3.0, 4.0]))
    assert np.allclose(s.amplitudes, [0.6, 0.8], atol=1e-15)
    again = normalize_to_state(s.amplitudes)
    assert np.allclose(again.amplitudes, s.amplitudes, atol=1e-15)


def test_normalize_rejects_zero():
    with pytest.raises(DegenerateInputError):
        normalize_to_state(np.zeros(4))


def test_state_norm_contract():
    with pytest.raises(ContractError):
        QuantumState(np.array([1.0, 1.0]))


def test_density_of_basis_state():
    rho = density(QuantumState(np.array([0.0, 1.0, 0.0]))).rho
    expect = np.zeros((3, 3))
    expect[1, 1] = 1.0
    assert np.array_equal(rho, expect)


def test_density_of_uniform_pair():
    rho = density(normalize_to_state(np.array([1.0, 1.0]))).rho
    assert np.allclose(rho, 0.25 * np.ones((2, 2)) * 2, atol=1e-15)
    assert np.allclose(rho, [[0.5, 0.5], [0.5, 0.5]], atol=1e-15)


def test_density_trace_one_many():
    for trial in range(100):
        rng = named_stream(trial, "test-trace")
        rho = density(random_state(rng, 8)).rho
        assert abs(np.trace(rho) - 1.0) <= 1e-12
        assert np.max(np.abs(rho - rho.T)) <= 1e-15


def test_density_matrix_contract():
    with pytest.raises(ContractError):
        DensityMatrix(np.eye(3))  # trace 3
    with pytest.raises(ContractError):
        DensityMatrix(np.array([[0.5, 0.2], [0.0, 0.5]]))  # asymmetric
    with pytest.raises(ContractError):
        DensityMatrix(np.ones(4))  # not a matrix
    with pytest.raises(ContractError):
        DensityMatrix(np.diag([np.nan, 0.5]))


def test_every_accepted_density_matrix_can_be_scored():
    # construction and psd_sqrt share one symmetry tolerance, 1e-10
    def skewed(gap):
        rho = np.diag([0.5, 0.5])
        rho[0, 1] = gap
        return rho

    with pytest.raises(ContractError, match="symmetric"):
        DensityMatrix(skewed(5e-10))
    d = DensityMatrix(skewed(5e-11))
    assert abs(fidelity(d, d) - 1.0) <= 1e-9


def test_fidelity_self_is_one():
    for trial in range(20):
        rng = named_stream(trial, "test-fid-self")
        rho = density(random_state(rng, 6))
        assert abs(fidelity(rho, rho) - 1.0) <= 1e-9
        assert abs(fidelity_general(rho, rho) - 1.0) <= 1e-9


def test_fidelity_orthogonal_is_zero():
    a = density(QuantumState(np.eye(4)[0]))
    b = density(QuantumState(np.eye(4)[2]))
    assert fidelity(a, b) == 0.0
    assert fidelity_general(a, b) <= 1e-12


def test_fidelity_hand_half():
    a = density(QuantumState(np.array([1.0, 0.0])))
    b = density(normalize_to_state(np.array([1.0, 1.0])))
    assert abs(fidelity(a, b) - 0.5) <= 1e-12
    assert abs(fidelity_general(a, b) - 0.5) <= 1e-9


def test_fidelity_symmetric_and_bounded():
    for trial in range(50):
        rng = named_stream(trial, "test-fid-sym")
        a = density(random_state(rng, 8))
        b = density(random_state(rng, 8))
        fab = fidelity(a, b)
        fba = fidelity(b, a)
        assert abs(fab - fba) <= 1e-9
        assert 0.0 <= fab <= 1.0


def test_fast_path_matches_general_path():
    worst = 0.0
    for trial in range(100):
        rng = named_stream(trial, "test-fid-paths")
        a = density(random_state(rng, 16))
        b = density(random_state(rng, 16))
        worst = max(worst, abs(fidelity(a, b) - fidelity_general(a, b)))
    assert worst <= 1e-7


def test_general_path_mixed_states():
    # rank-2 mixtures exercise the general (Uhlmann) route end to end
    rng = named_stream(0, "test-fid-mixed")
    a = random_state(rng, 6).amplitudes
    b = random_state(rng, 6).amplitudes
    mix = DensityMatrix(0.5 * np.outer(a, a) + 0.5 * np.outer(b, b))
    assert abs(fidelity(mix, mix) - 1.0) <= 1e-7
    pure = density(random_state(rng, 6))
    f = fidelity(mix, pure)
    assert 0.0 <= f <= 1.0
    assert abs(f - fidelity(pure, mix)) <= 1e-9


def random_density(rng, d, rank):
    vecs = rng.standard_normal((rank, d))
    rho = vecs.T @ vecs
    return DensityMatrix(rho / np.trace(rho))


def test_general_path_symmetric_on_random_mixed_states():
    worst = 0.0
    for trial in range(200):
        rng = named_stream(trial, "test-fid-general-sym")
        d = int(rng.integers(2, 17))
        a = random_density(rng, d, d)
        b = random_density(rng, d, min(3, d))
        worst = max(worst, abs(fidelity(a, b) - fidelity(b, a)))
    assert worst <= 1e-12


def test_retrieve_rejects_cancelled_zero_query():
    # exact cancellation of the two query halves gives a zero query
    t = np.array([1.0, 2.0])
    kb = KnowledgeBase([entry(0, [1.0, 0.0])])
    with pytest.raises(DegenerateInputError):
        retrieve(0.5 * (t + -t), kb, k=1)


def test_kb_validation():
    with pytest.raises(RetrievalError):
        KnowledgeBase([])
    with pytest.raises(DataError):
        KnowledgeBase([entry(0, [1.0, 0.0]), entry(1, [1.0, 0.0, 0.0])])
    with pytest.raises(DataError):
        KnowledgeBase([entry(0, [0.0, 0.0])])


def test_self_match_tops_the_ranking():
    rng = named_stream(1, "test-self-match")
    vecs = [rng.standard_normal(8) for _ in range(10)]
    kb = KnowledgeBase([entry(i, v) for i, v in enumerate(vecs)])
    res = retrieve(vecs[4] * 2.5, kb, k=3)  # scaled copy of entry 4
    assert res.indices[0] == 4
    assert abs(res.similarities[0] - 1.0) <= 1e-12
    assert res.entries[0].entry_id == "e4"


def test_equal_similarities_give_equal_thirds():
    # three copies of the same direction: softmax of equal scores
    kb = KnowledgeBase([entry(i, [1.0, 0.0]) for i in range(3)] + [entry(3, [0.0, 1.0])])
    res = retrieve(np.array([1.0, 0.0]), kb, k=3)
    assert np.max(np.abs(res.weights - 1.0 / 3.0)) <= 1e-12
    assert abs(res.weights.sum() - 1.0) <= 1e-12
    assert list(res.indices) == [0, 1, 2]  # ties keep entry order


def test_hand_softmax_sharpness():
    # similarities (1, 0, 0) at tau = 0.1: weights = softmax([10, 0, 0])
    kb = KnowledgeBase(
        [entry(0, [1.0, 0.0]), entry(1, [0.0, 1.0]), entry(2, [0.0, 1.0])]
    )
    res = retrieve(np.array([1.0, 0.0]), kb, k=3)
    z = np.exp([10.0, 0.0, 0.0])
    expect = z / z.sum()
    assert np.max(np.abs(res.weights - expect)) <= 1e-12
    assert abs(res.weights[0] - 0.9999092) <= 1e-6
    assert abs(res.weights[1] - 4.5395e-05) <= 1e-8


def test_weights_sum_to_one():
    for trial in range(30):
        rng = named_stream(trial, "test-wsum")
        kb = KnowledgeBase([entry(i, rng.standard_normal(8)) for i in range(12)])
        res = retrieve(rng.standard_normal(8), kb, k=3)
        assert abs(res.weights.sum() - 1.0) <= 1e-12
        assert np.all(np.diff(res.similarities) <= 1e-15)  # descending


def test_scale_invariance_of_results():
    rng = named_stream(2, "test-scale-inv")
    kb = KnowledgeBase([entry(i, rng.standard_normal(8)) for i in range(20)])
    q = rng.standard_normal(8)
    base = retrieve(q, kb, k=3)
    for c in (1e-6, 3.0, 1e6):
        res = retrieve(c * q, kb, k=3)
        assert np.array_equal(res.indices, base.indices)
        assert np.max(np.abs(res.weights - base.weights)) <= 1e-9
        assert np.max(np.abs(res.k_agg - base.k_agg)) <= 1e-9


def test_k_agg_is_weighted_raw_embeddings():
    # aggregation uses the stored embeddings, not their unit versions
    kb = KnowledgeBase([entry(0, [10.0, 0.0]), entry(1, [0.0, 0.1]), entry(2, [-3.0, -3.0])])
    res = retrieve(np.array([1.0, 0.0]), kb, k=2)
    expect = res.weights[0] * kb.embeddings[res.indices[0]] + res.weights[1] * kb.embeddings[res.indices[1]]
    assert np.allclose(res.k_agg, expect, atol=1e-15)


def test_top_k_matches_brute_force():
    rng = named_stream(3, "test-brute")
    kb = KnowledgeBase([entry(i, rng.standard_normal(16)) for i in range(200)])
    q = rng.standard_normal(16)
    res = retrieve(q, kb, k=3)
    qn = q / np.linalg.norm(q)
    brute = np.array([float(np.dot(qn, u)) ** 2 for u in kb.unit])
    brute_order = np.argsort(-brute, kind="stable")[:3]
    assert list(res.indices) == list(brute_order)


def test_fidelity_and_cosine_flag():
    kb = KnowledgeBase([entry(0, [1.0, 0.0]), entry(1, [-1.0, 0.001])])
    # fidelity is sign-blind so the anti-aligned entry scores ~1
    fid = retrieve(np.array([1.0, 0.0]), kb, k=2, similarity="fidelity")
    assert fid.indices[0] == 0
    assert fid.similarities[1] > 0.99
    cos = retrieve(np.array([1.0, 0.0]), kb, k=2, similarity="cosine")
    assert cos.similarities[1] < 0
    with pytest.raises(ConfigError):
        retrieve(np.array([1.0, 0.0]), kb, k=1, similarity="dot")


def test_retrieve_parameter_validation():
    kb = KnowledgeBase([entry(0, [1.0, 0.0]), entry(1, [0.0, 1.0])])
    with pytest.raises(ConfigError):
        retrieve(np.array([1.0, 0.0]), kb, k=0)
    with pytest.raises(ConfigError):
        retrieve(np.array([1.0, 0.0]), kb, k=3)
    with pytest.raises(ConfigError):
        retrieve(np.array([1.0, 0.0]), kb, k=1, tau=0.0)


def test_retrieve_batch_matches_single():
    rng = named_stream(4, "test-batch-retr")
    kb = KnowledgeBase([entry(i, rng.standard_normal(8)) for i in range(15)])
    queries = rng.standard_normal((6, 8))
    agg = retrieve_batch(queries, kb, k=3)
    assert agg.shape == (6, 8)
    for i in range(6):
        single = retrieve(queries[i], kb, k=3)
        assert np.max(np.abs(agg[i] - single.k_agg)) <= 1e-12
    with pytest.raises(ContractError):
        retrieve_batch(queries[0], kb)
    queries[2] = 0.0
    with pytest.raises(DegenerateInputError):
        retrieve_batch(queries, kb)


def test_retrieve_batch_rejects_bad_tau_and_width():
    kb = KnowledgeBase([entry(0, [1.0, 0.0]), entry(1, [0.0, 1.0])])
    queries = np.array([[1.0, 0.5], [0.2, 1.0]])
    for tau in (0.0, -1.0):
        with pytest.raises(ConfigError):
            retrieve_batch(queries, kb, k=2, tau=tau)
    with pytest.raises(ContractError):
        retrieve_batch(np.ones((2, 3)), kb, k=1)
    with pytest.raises(ContractError):
        retrieve(np.ones(3), kb, k=1)


def test_single_and_batch_agree_with_ties_at_k():
    # entries 1, 2 and 3 tie for the 2nd and 3rd places of the first query
    # and 4, 5 tie for the 1st and 2nd of the second; ties keep entry order
    kb = KnowledgeBase(
        [
            entry(0, [1.0, 0.0, 0.0]),
            entry(1, [0.0, 1.0, 0.0]),
            entry(2, [0.0, 2.0, 0.0]),
            entry(3, [0.0, -1.0, 0.0]),
            entry(4, [0.0, 0.0, 1.0]),
            entry(5, [0.0, 0.0, 3.0]),
        ]
    )
    queries = np.array([[2.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    agg = retrieve_batch(queries, kb, k=3)
    singles = [retrieve(q, kb, k=3) for q in queries]
    assert list(singles[0].indices) == [0, 1, 2]
    assert list(singles[1].indices) == [4, 5, 0]
    for row, single in zip(agg, singles):
        assert np.max(np.abs(row - single.k_agg)) <= 1e-12


@pytest.mark.parametrize("bad_row", [0, 2, 4])
def test_non_finite_query_row_is_rejected(bad_row):
    kb = KnowledgeBase([entry(i, np.eye(3)[i % 3] * (i + 1)) for i in range(6)])
    for value in (np.nan, np.inf, -np.inf):
        queries = np.ones((5, 3))
        queries[bad_row, 1] = value
        with pytest.raises(ContractError, match=f"row {bad_row}"):
            retrieve_batch(queries, kb, k=3)
        with pytest.raises(ContractError):
            retrieve(queries[bad_row], kb, k=3)


def _tie_heavy_kb(rng, n, d=4):
    # integer-valued directions, drawn with repeats and scaled by exact powers
    # of two, so many entries score exactly alike against any query
    pool = rng.integers(-2, 3, size=(max(1, n // 8), d)).astype(float)
    pool[~pool.any(axis=1)] = 1.0
    vecs = pool[rng.integers(0, len(pool), size=n)] * rng.choice([0.5, 1.0, 4.0], size=(n, 1))
    return KnowledgeBase([entry(i, v) for i, v in enumerate(vecs)])


def _oracle_top_k(scores, k):
    # full stable ranking by (-score, entry index), independent of _top_k
    positions = np.arange(scores.shape[-1])
    return np.stack([np.lexsort((positions, -row))[:k] for row in scores])


def test_top_k_matches_full_sort_oracle_with_ties():
    boundary_ties = 0
    for n in (1, 2, 8, 1000):
        for trial in range(4):
            rng = named_stream(trial, "test-topk-oracle", n)
            kb = _tie_heavy_kb(rng, n)
            # rows copied from entries tie with their duplicates; gaussian rows
            # almost never tie; integer rows fall in between
            queries = np.concatenate(
                [
                    kb.embeddings[rng.integers(0, n, size=3)],
                    rng.integers(-2, 3, size=(3, kb.d_model)).astype(float),
                    rng.standard_normal((3, kb.d_model)),
                ]
            )
            queries = queries[rng.permutation(len(queries))]
            queries[~queries.any(axis=1)] = 1.0
            for k in sorted({1, max(1, n // 2), n}):
                for similarity in ("fidelity", "cosine"):
                    cos = (queries / np.linalg.norm(queries, axis=1)[:, None]) @ kb.unit.T
                    scores = cos * cos if similarity == "fidelity" else cos
                    expect = _oracle_top_k(scores, k)
                    ranked = np.sort(scores, axis=1)[:, ::-1]
                    if k < n:
                        boundary_ties += int(np.sum(ranked[:, k - 1] == ranked[:, k]))
                    weights = ops.softmax(
                        Tensor(np.take_along_axis(scores, expect, axis=1) / 0.1)
                    ).data
                    agg = retrieve_batch(queries, kb, k=k, similarity=similarity)
                    want = np.einsum("bk,bkd->bd", weights, kb.embeddings[expect])
                    assert np.array_equal(agg, want), (n, trial, k, similarity)
                    for q in queries:
                        single = retrieve(q, kb, k=k, similarity=similarity)
                        qn = q / np.linalg.norm(q)
                        cos1 = (qn[None, :] @ kb.unit.T)[0]
                        score1 = cos1 * cos1 if similarity == "fidelity" else cos1
                        assert list(single.indices) == list(_oracle_top_k(score1[None], k)[0])
    assert boundary_ties > 50
