import tracemalloc
from math import isqrt

import numpy as np
import pytest

from freqfuse.data import KnowledgeColumns, KnowledgeEntry, TextColumn
from freqfuse.errors import (
    ConfigError,
    ContractError,
    DataError,
    DegenerateInputError,
    RetrievalError,
)
from freqfuse.retrieval import (
    _SCREEN_MIN_ENTRIES,
    DensityMatrix,
    KnowledgeBase,
    QuantumState,
    TopK,
    _screen,
    density,
    fidelity,
    fidelity_general,
    normalize_to_state,
    retrieve,
    retrieve_batch,
    top_k,
)
from freqfuse import retrieval
from freqfuse.kernel import ops
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
    with pytest.raises(DataError, match="'e1' has an embedding whose norm is not finite"):
        KnowledgeBase([entry(0, [1.0, 0.0]), entry(1, [1e300, 1e300])])


def test_kb_rejects_repeated_id():
    with pytest.raises(DataError, match="knowledge entry id 'e1' appears more than once"):
        KnowledgeBase([entry(1, [1.0, 0.0]), entry(0, [0.0, 1.0]), entry(1, [1.0, 1.0])])


def test_self_match_tops_the_ranking():
    rng = named_stream(1, "test-self-match")
    vecs = [rng.standard_normal(8) for _ in range(10)]
    kb = KnowledgeBase([entry(i, v) for i, v in enumerate(vecs)])
    res = retrieve(vecs[4] * 2.5, kb, k=3)  # scaled copy of entry 4
    assert res.indices[0] == 4
    assert abs(res.similarities[0] - 1.0) <= 1e-12
    assert kb.columns.ids[res.indices[0]] == "e4"


def test_top_k_is_one_named_result():
    rng = named_stream(5, "test-top-k-result")
    kb = KnowledgeBase([entry(i, rng.standard_normal(4)) for i in range(6)])
    queries = rng.standard_normal((3, 4))
    hits = top_k(queries, kb, k=2)
    assert isinstance(hits, TopK)
    assert [field.shape for field in hits] == [(3, 2)] * 3
    indices, similarities, weights = hits  # a 3-tuple, unpacked as such
    one = retrieve(queries[1], kb, k=2)
    assert isinstance(one, TopK)
    for got, want in zip(one, (indices[1], similarities[1], weights[1])):
        assert got.shape == (2,) and np.array_equal(got, want)
    with pytest.raises(ContractError, match=r"expected \(B, d\) queries"):
        top_k(queries[0], kb)


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
    base_agg = retrieve_batch(q[None], kb, k=3)[0]
    for c in (1e-6, 3.0, 1e6):
        res = retrieve(c * q, kb, k=3)
        assert np.array_equal(res.indices, base.indices)
        assert np.max(np.abs(res.weights - base.weights)) <= 1e-9
        assert np.max(np.abs(retrieve_batch(c * q[None], kb, k=3)[0] - base_agg)) <= 1e-9


def test_k_agg_is_weighted_raw_embeddings():
    # aggregation uses the stored embeddings, not their unit versions
    kb = KnowledgeBase([entry(0, [10.0, 0.0]), entry(1, [0.0, 0.1]), entry(2, [-3.0, -3.0])])
    q = np.array([1.0, 0.0])
    res = retrieve(q, kb, k=2)
    expect = res.weights[0] * kb.embeddings[res.indices[0]] + res.weights[1] * kb.embeddings[res.indices[1]]
    assert np.allclose(retrieve_batch(q[None], kb, k=2)[0], expect, atol=1e-15)


def test_top_k_matches_brute_force():
    rng = named_stream(3, "test-brute")
    kb = KnowledgeBase([entry(i, rng.standard_normal(16)) for i in range(200)])
    q = rng.standard_normal(16)
    res = retrieve(q, kb, k=3)
    qn = q / np.linalg.norm(q)
    brute = np.array([float(np.einsum("d,d->", qn, u)) ** 2 for u in kb.unit])
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
        single = retrieve_batch(queries[i][None], kb, k=3)[0]
        assert np.max(np.abs(agg[i] - single)) <= 1e-12
    with pytest.raises(ContractError):
        retrieve_batch(queries[0], kb)
    queries[2] = 0.0
    with pytest.raises(DegenerateInputError):
        retrieve_batch(queries, kb)


def test_retrieve_batch_rejects_bad_tau_and_width():
    kb = KnowledgeBase([entry(0, [1.0, 0.0]), entry(1, [0.0, 1.0])])
    queries = np.array([[1.0, 0.5], [0.2, 1.0]])
    for tau in (0.0, -1.0, np.nan, np.inf):
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
    for row, q in zip(agg, queries):
        assert np.max(np.abs(row - retrieve_batch(q[None], kb, k=3)[0])) <= 1e-12


@pytest.mark.parametrize("bad_row", [0, 2, 4])
def test_non_finite_query_row_is_rejected(bad_row):
    kb = KnowledgeBase([entry(i, np.eye(3)[i % 3] * (i + 1)) for i in range(6)])
    for value in (np.nan, np.inf, -np.inf, 1e300):  # 1e300 is finite; its norm is not
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


def _pair_oracle_scores(queries, kb, similarity):
    # the per-pair formula: each score is einsum's sum of one (query, entry)
    # pair's d products, here over every pair at once
    qn = queries / np.linalg.norm(queries, axis=1)[:, None]
    cos = np.einsum("...d,...d->...", qn[:, None], kb.unit)
    return cos * cos if similarity == "fidelity" else cos


def _oracle_top_k(scores, k):
    # full stable ranking by (-score, entry index), independent of top_k
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
                    scores = _pair_oracle_scores(queries, kb, similarity)
                    expect = _oracle_top_k(scores, k)
                    ranked = np.sort(scores, axis=1)[:, ::-1]
                    if k < n:
                        boundary_ties += int(np.sum(ranked[:, k - 1] == ranked[:, k]))
                    weights = ops.softmax(np.take_along_axis(scores, expect, axis=1) / 0.1)
                    agg = retrieve_batch(queries, kb, k=k, similarity=similarity)
                    want = np.einsum("bk,bkd->bd", weights, kb.embeddings[expect])
                    assert np.array_equal(agg, want), (n, trial, k, similarity)
                    for q in queries:
                        single = retrieve(q, kb, k=k, similarity=similarity)
                        score1 = _pair_oracle_scores(q[None], kb, similarity)
                        assert list(single.indices) == list(_oracle_top_k(score1, k)[0])
    assert boundary_ties > 50


def _layout(n, k):
    """(block width, chunk rows) of `_screen` on n entries at k, read from the
    module's constants so that a monkeypatched value applies. A chunk of m
    blocks holds its rows j, j + m, j + 2m, ... in block j."""
    width = min(retrieval._BLOCK_WIDTH, isqrt(n), n // k)
    return width, max(retrieval._SCREEN_CHUNK_ROWS // width, k) * width


def _blocked_kb(rng, n, k, anchors):
    """n gaussian entries with each anchor copied, exactly and scaled by powers
    of two, into places of the screen's layout at k, so its copies tie within
    a block and across blocks and chunks:
    - anchor 0 into three rows of one strided block of the first chunk, and
      into the last row;
    - anchor 1 into its last and first blocks (rows m - 1 and m) and both
      sides of the first chunk boundary;
    - anchor 2 into both sides of the last chunk's last whole block (the
      first row past it, if any) and the last row but one;
    - anchor a also into row 3 + a, so that it has two copies in any layout.
    A place past the KB or taken by an earlier place is skipped."""
    vecs = rng.standard_normal((n, anchors.shape[1]))
    width, step = _layout(n, k)
    m = min(step, n) // width  # blocks in the first chunk
    last = (n - 1) // step * step
    end = last + (n - last) // width * width  # past the last chunk's whole blocks
    places = [
        (0, (1, 1 + m, 1 + 2 * m, n - 1, 3)),
        (1, (m - 1, m, step - 1, step, 4)),
        (2, (end - 1, end, n - 2, 5)),
    ]
    taken = set()
    for a, positions in places:
        free = [p for p in positions if p < n and p not in taken]
        taken.update(free)
        for scale, p in zip((1.0, 2.0, 0.25, 8.0, 0.5), free):
            vecs[p] = scale * anchors[a]
    return KnowledgeBase([entry(i, v) for i, v in enumerate(vecs)])


# 4097 entries are one chunk of 64 blocks and a row past them; 20011 are a
# chunk of 256 blocks and one of 56 with 43 rows past them
@pytest.mark.parametrize("n", [4097, 20011])
def test_block_max_top_k_is_exact_where_blocks_prune(n):
    rng = named_stream(0, "test-block-topk", n)
    anchors = rng.standard_normal((3, 6))
    queries = np.concatenate(
        [anchors, anchors + 0.01 * rng.standard_normal(anchors.shape),
         rng.standard_normal((3, 6))]
    )
    width, step = _layout(n, 3)
    nb = min(step, n) // width  # blocks in the first chunk
    for k in (1, 3, nb - 1, nb, nb + 1, n):
        kb = _blocked_kb(rng, n, k, anchors)
        for similarity in ("fidelity", "cosine"):
            scores = _pair_oracle_scores(queries, kb, similarity)
            expect = _oracle_top_k(scores, k)
            order, top, weights = top_k(queries, kb, k, 0.1, similarity)
            assert np.array_equal(order, expect), (n, k, similarity)
            want = np.take_along_axis(scores, expect, axis=1)
            assert np.array_equal(top, want)
            assert np.array_equal(weights, ops.softmax(want / 0.1))
            # anchor copies tie at the top of their queries' rankings
            best = np.sort(scores, axis=1)[:, -2:]
            assert np.sum(best[:, 0] == best[:, 1]) >= 3


@pytest.mark.parametrize("k", [3, 257], ids=["k-below-blocks", "k-above-blocks"])
def test_screen_is_exact_at_chunk_sizes(k):
    # KBs of one chunk less one row, one chunk, one chunk and a row, and under
    # half a chunk, at the real constants: 256 blocks of 64 a chunk, or k
    # blocks when k is larger. One less row than k blocks of 64 narrows the
    # blocks to 63, so that KB is one chunk and a few rows past its blocks.
    _, step = _layout(64 * k, k)
    for n in (step - 1, step, step + 1, step // 2 - 7):
        rng = named_stream(3, "test-screen-chunk-sizes", n)
        vecs = rng.standard_normal((n, 6))
        copies = rng.permutation(n)[:40]
        vecs[copies] = vecs[copies[0]] * rng.choice([0.5, 1.0, 4.0], size=(40, 1))
        kb = KnowledgeBase([entry(i, v) for i, v in enumerate(vecs)])
        queries = np.concatenate([vecs[copies[:2]] + 0.01 * rng.standard_normal((2, 6)),
                                  rng.standard_normal((4, 6))])
        _exact_top_k(queries, kb, k)


@pytest.mark.parametrize("n", [8, 20000], ids=["all-pairs", "screened"])
def test_retrieval_is_batch_invariant(n):
    # every output row of a batch equals the single-query result bit for bit,
    # in the full batch, a permuted batch and a subset
    rng = named_stream(0, "test-batch-invariance", n)
    vecs = rng.standard_normal((n, 64))
    vecs[n // 2] = 4.0 * vecs[1]  # an exact tie
    kb = KnowledgeBase([entry(i, v) for i, v in enumerate(vecs)])
    queries = np.concatenate([vecs[[1, 3]] + 0.01 * rng.standard_normal((2, 64)),
                              rng.standard_normal((30, 64))])
    perm = rng.permutation(len(queries))
    assert (n < _SCREEN_MIN_ENTRIES) == (n == 8)
    for similarity in ("fidelity", "cosine"):
        singles = [retrieve(q, kb, k=3, similarity=similarity) for q in queries]
        single_aggs = [retrieve_batch(q[None], kb, k=3, similarity=similarity)[0]
                       for q in queries]
        for batch in (np.arange(len(queries)), perm, perm[:7]):
            order, top, weights = top_k(queries[batch], kb, 3, 0.1, similarity)
            agg = retrieve_batch(queries[batch], kb, k=3, similarity=similarity)
            for row, i in enumerate(batch):
                single = singles[i]
                assert np.array_equal(order[row], single.indices), (similarity, i)
                assert np.array_equal(top[row], single.similarities), (similarity, i)
                assert np.array_equal(weights[row], single.weights), (similarity, i)
                assert np.array_equal(agg[row], single_aggs[i]), (similarity, i)


def _crowded_kb(rng, n, d, queries, per_query):
    """n gaussian entries with, for each query, `per_query` entries at random
    places whose fidelities sit within a few deltas of 1, half of them near the
    query and half near its negation, so float32 rounding reorders them; and
    for each of those a twin a few float64 steps away, so the two round to the
    same float32 row while their float64 scores differ."""
    vecs = rng.standard_normal((n, d))
    places = rng.permutation(n)[: 2 * per_query * len(queries)].reshape(len(queries), -1, 2)
    for q, spots in zip(queries, places):
        sign = np.where(np.arange(per_query) % 2, -1.0, 1.0)[:, None]
        near = sign * (q + 2e-4 * np.linalg.norm(q) * rng.standard_normal((per_query, d)))
        vecs[spots[:, 0]] = near
        vecs[spots[:, 1]] = near * (1.0 + 1e-15 * rng.standard_normal((per_query, d)))
    return KnowledgeBase([entry(i, v) for i, v in enumerate(vecs)])


def test_screen_margin_keeps_the_exact_top_k():
    n, d = 3001, 16
    width, _ = _layout(n, 3)
    nb = n // width
    assert n >= _SCREEN_MIN_ENTRIES
    rng = named_stream(0, "test-screen-margin")
    queries = rng.standard_normal((4, d))
    twins = 0
    for k in (1, 3, nb - 1, nb, nb + 1):
        kb = _crowded_kb(rng, n, d, queries, per_query=60)
        unit32 = kb.unit32
        twins += len(unit32) - len(np.unique(unit32, axis=0))
        for similarity in ("fidelity", "cosine"):
            scores = _pair_oracle_scores(queries, kb, similarity)
            expect = _oracle_top_k(scores, k)
            order, top, weights = top_k(queries, kb, k, 0.1, similarity)
            assert np.array_equal(order, expect), (k, similarity)
            want = np.take_along_axis(scores, expect, axis=1)
            assert np.array_equal(top, want), (k, similarity)
            assert np.array_equal(weights, ops.softmax(want / 0.1))
            # the screen keeps each query's top k, and ranks by float64, not float32
            rows, cols = _screen(queries / np.linalg.norm(queries, axis=1)[:, None], kb, k,
                                 similarity)
            kept = set(zip(rows.tolist(), cols.tolist()))
            assert all((r, c) in kept for r in range(len(queries)) for c in expect[r])
    # twins round to one float32 row yet score differently in float64
    assert twins > 100


def _exact_top_k(queries, kb, k):
    """top_k equals the float64 brute-force ranking bit for bit, for both
    similarities; returns each similarity's expected indices."""
    expected = {}
    for similarity in ("fidelity", "cosine"):
        scores = _pair_oracle_scores(queries, kb, similarity)
        expect = _oracle_top_k(scores, k)
        order, top, weights = top_k(queries, kb, k, 0.1, similarity)
        assert np.array_equal(order, expect), (k, similarity)
        want = np.take_along_axis(scores, expect, axis=1)
        assert np.array_equal(top, want), (k, similarity)
        assert np.array_equal(weights, ops.softmax(want / 0.1)), (k, similarity)
        expected[similarity] = expect
    return expected


def _near(rng, q, fid, count):
    """`count` vectors whose fidelity with the unit vector q is `fid`, each
    with its own random orthogonal part."""
    ortho = rng.standard_normal((count, len(q)))
    ortho -= (ortho @ q)[:, None] * q
    ortho /= np.linalg.norm(ortho, axis=1)[:, None]
    return np.sqrt(fid) * q + np.sqrt(1.0 - fid) * ortho


# blocks of 13 in chunks of 6: 6006 entries are 77 whole chunks; 6050 add a
# last chunk of 3 blocks with 5 rows past them
@pytest.mark.parametrize("n", [6006, 6050])
def test_streaming_screen_finds_top_k_in_the_last_chunk_behind_decoys(n, monkeypatch):
    # the early chunks hold decoys that score high (fidelity 0.9), so the
    # running floor keeps them; the true top 3 (fidelity 0.995 and 0.999) sit
    # in the last chunk, one of them past its whole blocks when it has such
    # rows, so that chunk must raise the floor before the final drop
    d, k = 16, 3
    monkeypatch.setattr("freqfuse.retrieval._BLOCK_WIDTH", 13)
    monkeypatch.setattr("freqfuse.retrieval._SCREEN_CHUNK_ROWS", 6 * 13)
    width, step = _layout(n, k)
    rng = named_stream(0, "test-streaming-decoys", n)
    queries = rng.standard_normal((4, d))
    unit = queries / np.linalg.norm(queries, axis=1)[:, None]
    vecs = rng.standard_normal((n, d))
    last = (n - 1) // step * step  # start of the last chunk
    m = (n - last) // width  # its blocks: block j holds rows last + j + m i
    decoys = rng.permutation(last)[: 4 * 35].reshape(4, 35)
    # three in the last chunk's first three blocks, so that they hold the 3
    # largest block maxima, and a better one in the last rows: past the
    # blocks, or in the last chunk's last blocks
    best = np.array([[last + j + m * (r + 3 * j) for j in range(3)] + [n - 1 - r]
                     for r in range(4)])
    for row, q in enumerate(unit):
        vecs[decoys[row]] = _near(rng, q, 0.9, 35) * rng.uniform(0.5, 2.0, (35, 1))
        vecs[best[row, :3]] = _near(rng, q, 0.995, 3) * np.array([[1.0], [3.0], [0.125]])
        vecs[best[row, 3]] = _near(rng, q, 0.999, 1)[0]
    kb = KnowledgeBase([entry(i, v) for i, v in enumerate(vecs)])
    expect = _exact_top_k(queries, kb, k)
    for r in range(4):
        assert expect["fidelity"][r][0] == best[r, 3]
        assert set(expect["fidelity"][r]) < set(best[r])
    # the decoys kept from the early chunks are dropped by the final floor
    rows, cols = _screen(unit, kb, k, "fidelity")
    for r in range(4):
        assert not set(cols[rows == r].tolist()) & set(decoys[r].tolist()), r


@pytest.mark.parametrize("n", [6006, 6050])
def test_streaming_screen_keeps_ties_across_a_chunk_boundary(n, monkeypatch):
    # an anchor's exact copies (scaled by powers of two, so their unit rows are
    # the same bits) sit on both sides of each chunk boundary, which are the
    # last row of the last block and the first row of block 0, and in the last
    # row: every copy ties, and the earliest copies win at the k boundary
    d = 6
    rng = named_stream(1, "test-streaming-ties", n)
    anchor = rng.standard_normal(d)
    queries = np.concatenate([anchor[None], anchor + 0.01 * rng.standard_normal((2, d)),
                              rng.standard_normal((2, d))])
    monkeypatch.setattr("freqfuse.retrieval._BLOCK_WIDTH", 13)
    for k, blocks in ((1, 4), (3, 4), (5, 4), (9, 2)):  # k = 5 and 9: k blocks a chunk
        monkeypatch.setattr("freqfuse.retrieval._SCREEN_CHUNK_ROWS", blocks * 13)
        _, step = _layout(n, k)
        vecs = rng.standard_normal((n, d))
        places = [p for edge in range(step, n, step) for p in (edge - 1, edge)]
        places.append(n - 1)
        for scale, p in zip(np.resize([1.0, 2.0, 0.25, 8.0], len(places)), places):
            vecs[p] = scale * anchor
        kb = KnowledgeBase([entry(i, v) for i, v in enumerate(vecs)])
        expect = _exact_top_k(queries, kb, k)
        assert list(expect["fidelity"][0][: min(k, len(places))]) == places[:k]


def test_screen_memory_does_not_grow_with_the_kb():
    """numpy's traced peak during one 32-query `retrieve_batch` is about the
    same at 20,000 and 80,000 entries: the screen holds one chunk's scores."""
    peaks = []
    for n in (20_000, 80_000):
        rng = named_stream(2, "test-screen-memory", n)
        embeddings = rng.standard_normal((n, 64))
        kb = KnowledgeBase(KnowledgeColumns(ids=TextColumn(f"e{i}" for i in range(n)),
                                            texts=TextColumn([""] * n), embeddings=embeddings))
        queries = rng.standard_normal((32, 64))
        retrieve_batch(queries, kb)
        tracemalloc.start()
        try:
            retrieve_batch(queries, kb)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    # one pass over the whole KB would hold 4x the scores at 80,000 entries
    assert peaks[1] < 1.25 * peaks[0], peaks
