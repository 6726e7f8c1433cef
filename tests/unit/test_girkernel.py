"""Unit tests for repro.vectorized.girkernel (the weight-blocked kernel)."""

import numpy as np
import pytest

from repro.algorithms.naive import NaiveRRQ
from repro.core.gir import GridIndexRRQ
from repro.data.synthetic import uniform_products, uniform_weights
from repro.errors import InvalidParameterError
from repro.queries.engine import RRQEngine
from repro.vectorized.girkernel import GirKernelRRQ, KernelStats


@pytest.fixture
def data():
    P = uniform_products(180, 5, seed=31)
    W = uniform_weights(150, 5, seed=32)
    return P, W


class TestConstruction:
    def test_mirrors_gir_grid(self, data):
        P, W = data
        gir = GridIndexRRQ(P, W, partitions=16)
        kernel = GirKernelRRQ(P, W, partitions=16)
        np.testing.assert_array_equal(kernel.grid.alpha_p, gir.grid.alpha_p)
        np.testing.assert_array_equal(kernel.grid.alpha_w, gir.grid.alpha_w)
        np.testing.assert_array_equal(kernel.PA, gir.PA)
        np.testing.assert_array_equal(kernel.WA, gir.WA)
        assert kernel.partitions == 16
        assert kernel.use_domin

    def test_from_gir_reuses_quantization(self, data):
        P, W = data
        gir = GridIndexRRQ(P, W, partitions=8)
        kernel = GirKernelRRQ.from_gir(gir)
        assert kernel.grid is gir.grid
        assert kernel.PA is gir.PA
        assert kernel.WA is gir.WA
        assert kernel.partitions == 8

    def test_rejects_bad_blocks(self, data):
        P, W = data
        with pytest.raises(InvalidParameterError):
            GirKernelRRQ(P, W, w_block=0)
        with pytest.raises(InvalidParameterError):
            GirKernelRRQ(P, W, p_block=-1)

    def test_memory_report(self, data):
        P, W = data
        kernel = GirKernelRRQ(P, W, partitions=16)
        report = kernel.memory_report()
        # Two pre-gathered float64 bound matrices per side, same shapes
        # as P and W.
        assert report["bound_matrix_bytes"] == (2 * P.values.nbytes
                                                + 2 * W.values.nbytes)
        assert report["grid_bytes"] > 0

    def test_registered_engine_method(self, data):
        P, W = data
        engine = RRQEngine(P, W, method="gir-kernel")
        naive = NaiveRRQ(P, W)
        assert (engine.reverse_topk(P[0], 7).weights
                == naive.reverse_topk(P[0], 7).weights)


class TestEquivalence:
    """Byte-identity against both the per-weight loop and the naive scan."""

    @pytest.mark.parametrize("w_block,p_block", [(1024, 2048), (7, 16), (1, 1)])
    def test_any_blocking_matches_gir(self, data, w_block, p_block):
        P, W = data
        gir = GridIndexRRQ(P, W, partitions=16)
        kernel = GirKernelRRQ(P, W, partitions=16,
                              w_block=w_block, p_block=p_block)
        for qi in (0, 50, 177):
            q = P[qi]
            for k in (1, 5, 40):
                assert (kernel.reverse_topk(q, k)
                        == gir.reverse_topk(q, k))
                assert (kernel.reverse_kranks(q, k).entries
                        == gir.reverse_kranks(q, k).entries)

    def test_matches_naive(self, data):
        P, W = data
        kernel = GirKernelRRQ(P, W, partitions=16)
        naive = NaiveRRQ(P, W)
        for qi in (3, 99):
            q = P[qi]
            for k in (1, 7, 25):
                assert (kernel.reverse_topk(q, k).weights
                        == naive.reverse_topk(q, k).weights)
                assert (kernel.reverse_kranks(q, k).entries
                        == naive.reverse_kranks(q, k).entries)

    def test_use_domin_false_equivalent(self, data):
        P, W = data
        naive = NaiveRRQ(P, W)
        kernel = GirKernelRRQ(P, W, partitions=16, use_domin=False)
        q = P.values.max(axis=0) * 0.999  # heavy domination pressure
        for k in (1, 3, 20):
            assert (kernel.reverse_topk(q, k).weights
                    == naive.reverse_topk(q, k).weights)
            assert (kernel.reverse_kranks(q, k).entries
                    == naive.reverse_kranks(q, k).entries)

    def test_domin_abort_empty_rtk(self, data):
        P, W = data
        kernel = GirKernelRRQ(P, W, partitions=16)
        q = P.values.max(axis=0) * 0.999
        result = kernel.reverse_topk(q, 3)
        assert result.weights == frozenset()
        assert kernel.last_stats.pairs_domin_skipped >= 0

    def test_k_exceeds_weights(self, data):
        P, W = data
        kernel = GirKernelRRQ(P, W, partitions=16)
        naive = NaiveRRQ(P, W)
        result = kernel.reverse_kranks(P[0], W.size + 50)
        assert len(result.entries) == W.size
        assert result.entries == naive.reverse_kranks(P[0], W.size + 50).entries
        rtk = kernel.reverse_topk(P[0], W.size + 50)
        assert rtk.weights == naive.reverse_topk(P[0], W.size + 50).weights


class TestStats:
    def test_last_stats_populated(self, data):
        P, W = data
        kernel = GirKernelRRQ(P, W, partitions=16)
        kernel.reverse_topk(P[0], 10)
        stats = kernel.last_stats
        assert isinstance(stats, KernelStats)
        assert stats.queries == 1
        assert stats.pairs_total > 0
        assert 0.0 < stats.filter_rate() <= 1.0
        assert stats.pairs_decided == stats.pairs_case1 + stats.pairs_case2

    @pytest.mark.parametrize("kind", ["rtk", "rkr"])
    def test_single_query_is_one_fused_scan(self, data, kind):
        P, W = data
        kernel = GirKernelRRQ(P, W, partitions=16)
        query = kernel.reverse_topk if kind == "rtk" else kernel.reverse_kranks
        query(P[0], 10)
        stats = kernel.last_stats
        assert stats.fused_batches == 1
        assert stats.fused_queries == 1
        assert stats.queries == 1

    def test_snapshot_shape(self, data):
        P, W = data
        kernel = GirKernelRRQ(P, W, partitions=16)
        kernel.reverse_kranks(P[0], 5)
        snap = kernel.last_stats.snapshot()
        assert set(snap) == {"queries", "stage_s", "pairs",
                             "weights_pruned", "filter_rate", "fused"}
        assert set(snap["stage_s"]) == {"filter", "refine", "merge"}
        assert set(snap["pairs"]) == {"total", "case1", "case2",
                                      "refined", "domin_skipped", "f32"}
        assert set(snap["fused"]) == {"batches", "queries"}

    def test_merge_accumulates(self, data):
        P, W = data
        kernel = GirKernelRRQ(P, W, partitions=16)
        total = KernelStats()
        for qi in (0, 1, 2):
            kernel.reverse_topk(P[qi], 5)
            total.merge(kernel.last_stats)
        assert total.queries == 3
        assert total.pairs_total >= kernel.last_stats.pairs_total

    def test_counter_tallies_refinements(self, data):
        P, W = data
        kernel = GirKernelRRQ(P, W, partitions=16)
        result = kernel.reverse_topk(P[0], 10)
        assert result.counter.pairwise > 0
