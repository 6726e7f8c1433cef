"""Property tests: the fused kernel pass answers a batch exactly like Q
batches of one, and both exactly like the naive scan.

The fused pass is the kernel's only scan: ``reverse_topk`` /
``reverse_kranks`` run it with Q = 1, the ``reverse_*_batch`` entry
points with the whole batch.  The acceptance bar: any coalesced
micro-batch — Q ∈ {1, 2, 5, 16}, dims 2–8, uniform and clustered data,
near-tie pressure, float32 and float64 filter paths — must return, query
by query, exactly the answers of the same queries sent one at a time,
and ``NaiveRRQ`` is the oracle for both, on either side of the
small-batch crossover where per-tile gate counts switch from direct
comparisons to sorted tallies.  Sharing tile matmuls, sorted-tally
counting and per-query minRank feedback across the batch may only move
*work*, never results.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.naive import NaiveRRQ
from repro.data.datasets import ProductSet, WeightSet
from repro.data.synthetic import generate_products, generate_weights
from repro.vectorized.girkernel import GirKernelRRQ

BATCH_SIZES = (1, 2, 5, 16)


def _batch(rng, P, nq):
    """A query batch mixing dataset members and off-grid points."""
    picks = rng.choice(P.size, size=min(nq, P.size), replace=False)
    queries = [P[int(i)] for i in picks]
    while len(queries) < nq:
        queries.append(rng.uniform(0.05, 0.95, size=P.dim))
    return queries


def _assert_batch_identical(kernel, naive, queries, k):
    """One fused batch of Q == Q sequential batches of one == NaiveRRQ."""
    seq_rtk = [kernel.reverse_topk(q, k) for q in queries]
    fused_rtk = kernel.reverse_topk_batch(queries, k)
    assert [r.weights for r in fused_rtk] == [r.weights for r in seq_rtk]
    seq_rkr = [kernel.reverse_kranks(q, k) for q in queries]
    fused_rkr = kernel.reverse_kranks_batch(queries, k)
    assert [r.entries for r in fused_rkr] == [r.entries for r in seq_rkr]
    for q, rtk, rkr in zip(queries, fused_rtk, fused_rkr):
        assert rtk.weights == naive.reverse_topk(q, k).weights
        assert rkr.entries == naive.reverse_kranks(q, k).entries


@given(
    st.sampled_from(BATCH_SIZES),
    st.sampled_from(["UN", "CL"]),
    st.integers(2, 8),
    st.sampled_from(["float32", "float64"]),
    st.integers(0, 2**31 - 1),
)
@settings(max_examples=25, deadline=None)
def test_fused_batch_identical(nq, dist, dim, filter_dtype, seed):
    P = generate_products(dist, 70, dim, seed=seed)
    W = generate_weights("CL" if dist == "CL" else "UN", 60, dim,
                         seed=seed + 1)
    kernel = GirKernelRRQ(P, W, partitions=8, filter_dtype=filter_dtype)
    naive = NaiveRRQ(P, W)
    rng = np.random.default_rng(seed + 2)
    queries = _batch(rng, P, nq)
    k = int(rng.integers(1, 20))
    _assert_batch_identical(kernel, naive, queries, k)


@given(
    st.sampled_from(BATCH_SIZES),
    st.sampled_from(["float32", "float64"]),
    st.integers(0, 2**31 - 1),
)
@settings(max_examples=15, deadline=None)
def test_fused_batch_near_tie_pressure(nq, filter_dtype, seed):
    """Low-entropy grids: scores collide everywhere, so a batch must
    route its marginal pairs through the rational tie-break exactly as
    the same queries sent one at a time do."""
    rng = np.random.default_rng(seed)
    P = ProductSet(rng.integers(0, 4, size=(60, 3)) / 4.0)
    W_raw = rng.integers(1, 4, size=(50, 3)).astype(float)
    W = WeightSet(W_raw / W_raw.sum(axis=1, keepdims=True))
    kernel = GirKernelRRQ(P, W, partitions=4, filter_dtype=filter_dtype)
    naive = NaiveRRQ(P, W)
    queries = _batch(rng, P, nq)
    for k in (1, 7, 50):
        _assert_batch_identical(kernel, naive, queries, k)


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=10, deadline=None)
def test_fused_domin_pressure(seed):
    """Batches mixing dominated queries (empty RTK answers via the
    Domin pre-pass) with ordinary ones: per-query early exits must not
    disturb the shared pass for the rest of the batch."""
    P = generate_products("UN", 80, 4, seed=seed)
    W = generate_weights("UN", 60, 4, seed=seed + 1)
    kernel = GirKernelRRQ(P, W, partitions=8)
    naive = NaiveRRQ(P, W)
    rng = np.random.default_rng(seed + 2)
    dominated = P.values.max(axis=0) * 0.999
    queries = [dominated] + _batch(rng, P, 4) + [dominated]
    for k in (1, 5):
        _assert_batch_identical(kernel, naive, queries, k)


@given(
    st.sampled_from([(1, 1), (3, 7), (4096, 4096)]),
    st.integers(0, 2**31 - 1),
)
@settings(max_examples=10, deadline=None)
def test_fused_blocking_invariance(blocks, seed):
    """Fused answers must not depend on tile geometry either."""
    w_block, p_block = blocks
    P = generate_products("UN", 60, 4, seed=seed)
    W = generate_weights("UN", 50, 4, seed=seed + 1)
    reference = GirKernelRRQ(P, W, partitions=8)
    blocked = GirKernelRRQ(P, W, partitions=8,
                           w_block=w_block, p_block=p_block)
    rng = np.random.default_rng(seed + 2)
    queries = _batch(rng, P, 5)
    for k in (2, 9):
        ref_rtk = reference.reverse_topk_batch(queries, k)
        blk_rtk = blocked.reverse_topk_batch(queries, k)
        assert [r.weights for r in blk_rtk] == [r.weights for r in ref_rtk]
        ref_rkr = reference.reverse_kranks_batch(queries, k)
        blk_rkr = blocked.reverse_kranks_batch(queries, k)
        assert [r.entries for r in blk_rkr] == [r.entries for r in ref_rkr]


@given(
    st.sampled_from([1, 2, 3, 4, 5, 8]),
    st.sampled_from(["float32", "float64"]),
    st.integers(0, 2**31 - 1),
)
@settings(max_examples=20, deadline=None)
def test_fused_count_crossover_matches_naive(nq, filter_dtype, seed):
    """Both sides of the direct-count / sorted-tally crossover
    (``nq < log2(tile rows) / 2``) answer exactly like NaiveRRQ.

    300 products give a 256-row tile (crossover at nq = 4) and a
    44-row tile (crossover at nq ~ 2.7), so nq = 3 runs both counting
    paths inside one weight block.  A coarse value grid makes
    duplicates of q and near-ties common; each batch also repeats one
    query and carries a heavily dominated one.
    """
    rng = np.random.default_rng(seed)
    dim = 3
    P = ProductSet(rng.integers(0, 6, size=(300, dim)) / 6.0)
    W_raw = rng.integers(1, 5, size=(90, dim)).astype(float)
    W = WeightSet(W_raw / W_raw.sum(axis=1, keepdims=True))
    kernel = GirKernelRRQ(P, W, partitions=8, filter_dtype=filter_dtype)
    naive = NaiveRRQ(P, W)
    queries = [P[int(i)] for i in rng.choice(P.size, size=nq)]
    if nq >= 2:
        queries[1] = queries[0]
    if nq >= 3:
        queries[2] = np.full(dim, 5.0 / 6.0)
    k = int(rng.integers(1, 15))
    for res, q in zip(kernel.reverse_topk_batch(queries, k), queries):
        assert res.weights == naive.reverse_topk(q, k).weights
    for res, q in zip(kernel.reverse_kranks_batch(queries, k), queries):
        assert res.entries == naive.reverse_kranks(q, k).entries


def test_fused_per_query_k_and_empty_batch():
    """Per-query ``k`` values and the empty batch degenerate cleanly."""
    P = generate_products("UN", 50, 3, seed=11)
    W = generate_weights("UN", 40, 3, seed=12)
    kernel = GirKernelRRQ(P, W, partitions=8)
    queries = [P[i] for i in (0, 7, 21)]
    ks = [1, 5, 13]
    fused = kernel.reverse_topk_batch(queries, ks)
    for q, k, res in zip(queries, ks, fused):
        assert res == kernel.reverse_topk(q, k)
    fused_rkr = kernel.reverse_kranks_batch(queries, ks)
    for q, k, res in zip(queries, ks, fused_rkr):
        assert res.entries == kernel.reverse_kranks(q, k).entries
    assert kernel.reverse_topk_batch([], 5) == []
    assert kernel.reverse_kranks_batch([], 5) == []
