"""Unit tests for the micro-batching scheduler (repro.service.scheduler).

The deterministic trick used throughout: construct the scheduler with
``auto_start=False``, stage requests while the dispatcher is parked, then
``start()`` — the first ``get`` plus a non-empty queue guarantees exactly
one coalesced batch, no timing luck required.
"""

import threading

import pytest

from repro.algorithms.naive import NaiveRRQ
from repro.errors import (
    DeadlineExceededError,
    InvalidParameterError,
    KernelUnavailableError,
    ServiceOverloadError,
    ServiceUnavailableError,
)
from repro.queries.engine import RRQEngine
from repro.service import scheduler as scheduler_mod
from repro.service.limits import ServiceLimits
from repro.service.scheduler import MicroBatchScheduler
from repro.service.server import canonical_json, encode_result
from repro.vectorized.batch import BatchOracle


@pytest.fixture(scope="module")
def engine():
    from repro.data.synthetic import uniform_products, uniform_weights

    P = uniform_products(140, 4, seed=901)
    W = uniform_weights(110, 4, seed=902)
    return RRQEngine(P, W, method="gir")


def make_scheduler(engine, **kwargs):
    kwargs.setdefault("auto_start", False)
    return MicroBatchScheduler(engine, **kwargs)


def payload(result, kind):
    return canonical_json(encode_result(result, kind))


def answers_by_path(scheduler):
    return scheduler.metrics.snapshot()["answers"]["by_path"]


class TestCoalescing:
    def test_staged_requests_form_one_batch(self, engine):
        scheduler = make_scheduler(
            engine, batch_window_s=0.1,
            limits=ServiceLimits(max_batch=16),
        )
        queries = [engine.products[i] for i in (0, 7, 23, 41, 99)]
        futures = [scheduler.submit(q, "rtk", 8) for q in queries[:3]]
        futures += [scheduler.submit(q, "rkr", 5) for q in queries[3:]]
        scheduler.start()
        try:
            results = [f.result(timeout=10) for f in futures]
        finally:
            scheduler.close()

        for q, result in zip(queries[:3], results[:3]):
            assert result.weights == engine.reverse_topk(q, 8).weights
        for q, result in zip(queries[3:], results[3:]):
            assert result.entries == engine.reverse_kranks(q, 5).entries

        snap = scheduler.metrics.snapshot()
        assert snap["batches"]["total"] == 1
        assert snap["batches"]["coalesced"] == 1
        assert snap["batches"]["max_size"] == 5

    def test_batch_respects_max_batch(self, engine):
        scheduler = make_scheduler(
            engine, batch_window_s=0.1,
            limits=ServiceLimits(max_batch=2),
        )
        futures = [scheduler.submit(engine.products[i], "rtk", 5)
                   for i in range(5)]
        scheduler.start()
        try:
            for f in futures:
                f.result(timeout=10)
        finally:
            scheduler.close()
        snap = scheduler.metrics.snapshot()
        assert snap["batches"]["max_size"] <= 2
        assert snap["batches"]["batched_requests"] == 5

    def test_zero_window_disables_coalescing(self, engine):
        scheduler = make_scheduler(engine, batch_window_s=0.0)
        scheduler.start()
        try:
            for i in (3, 4, 5):
                result = scheduler.answer(engine.products[i], "rtk", 6)
                assert result.weights == engine.reverse_topk(
                    engine.products[i], 6).weights
        finally:
            scheduler.close()
        snap = scheduler.metrics.snapshot()
        assert snap["batches"]["total"] == 3
        assert snap["batches"]["coalesced"] == 0
        assert snap["batches"]["mean_size"] == 1.0

    def test_batched_equals_single_path(self, engine):
        """The all_ranks_multi path and the engine path agree exactly."""
        q = engine.products[17]
        coalescing = make_scheduler(engine, batch_window_s=0.1)
        futures = [coalescing.submit(q, "rkr", 4),
                   coalescing.submit(engine.products[2], "rkr", 4)]
        coalescing.start()
        try:
            batched = futures[0].result(timeout=10)
        finally:
            coalescing.close()
        assert batched.entries == engine.reverse_kranks(q, 4).entries


class TestKernelPath:
    def test_kernel_batches_match_engine_and_feed_metrics(self, engine):
        scheduler = make_scheduler(
            engine, batch_window_s=0.1,
            limits=ServiceLimits(max_batch=16),
        )
        queries = [engine.products[i] for i in (0, 7, 23, 41)]
        futures = [scheduler.submit(q, "rtk", 8) for q in queries[:2]]
        futures += [scheduler.submit(q, "rkr", 5) for q in queries[2:]]
        scheduler.start()
        try:
            results = [f.result(timeout=10) for f in futures]
        finally:
            scheduler.close()
        for q, result in zip(queries[:2], results[:2]):
            assert result.weights == engine.reverse_topk(q, 8).weights
        for q, result in zip(queries[2:], results[2:]):
            assert result.entries == engine.reverse_kranks(q, 5).entries
        kernel = scheduler.metrics.snapshot()["kernel"]
        assert kernel["queries"] == 4
        assert kernel["pairs"]["total"] + kernel["pairs"]["domin_skipped"] > 0
        assert 0.0 <= kernel["filter_rate"] <= 1.0
        assert kernel["stage_s"]["filter"] >= 0.0

    def test_coalesced_batch_dispatches_fused(self, engine):
        """A coalesced batch runs one fused kernel call per query kind
        (not one per query), and the answers still match the engine."""
        scheduler = make_scheduler(
            engine, batch_window_s=0.1,
            limits=ServiceLimits(max_batch=16),
        )
        queries = [engine.products[i] for i in (3, 11, 29, 57, 88)]
        futures = [scheduler.submit(q, "rtk", 6) for q in queries[:3]]
        futures += [scheduler.submit(q, "rkr", 4) for q in queries[3:]]
        scheduler.start()
        try:
            results = [f.result(timeout=10) for f in futures]
        finally:
            scheduler.close()
        for q, result in zip(queries[:3], results[:3]):
            assert result.weights == engine.reverse_topk(q, 6).weights
        for q, result in zip(queries[3:], results[3:]):
            assert result.entries == engine.reverse_kranks(q, 4).entries
        fused = scheduler.metrics.snapshot()["kernel"]["fused"]
        assert fused["queries"] == 5
        assert fused["batches"] == 2  # one rtk group + one rkr group

    def test_kernel_payloads_match_naive(self, engine):
        """The acceptance bar: a coalesced batch's HTTP payloads are
        byte-identical to NaiveRRQ's, and the fused kernel produced
        every one of them."""
        naive = NaiveRRQ(engine.products, engine.weights)
        scheduler = make_scheduler(
            engine, batch_window_s=0.1,
            limits=ServiceLimits(max_batch=16),
        )
        queries = [engine.products[i] for i in (5, 31, 77)]
        futures = [scheduler.submit(q, "rtk", 7) for q in queries]
        futures += [scheduler.submit(q, "rkr", 4) for q in queries]
        scheduler.start()
        try:
            answers = [f.result(timeout=10) for f in futures]
        finally:
            scheduler.close()
        for q, got in zip(queries, answers[:3]):
            assert payload(got, "rtk") == payload(
                naive.reverse_topk(q, 7), "rtk")
        for q, got in zip(queries, answers[3:]):
            assert payload(got, "rkr") == payload(
                naive.reverse_kranks(q, 4), "rkr")
        assert answers_by_path(scheduler)["fused"] == 6
        assert scheduler.metrics.snapshot()["kernel"]["queries"] == 6

    def test_kernel_and_dense_payloads_identical(self, engine):
        """The served kernel answers and the dense all_ranks_multi sweep
        (BatchOracle) encode to the same HTTP payloads."""
        oracle = BatchOracle(engine.products, engine.weights)
        scheduler = make_scheduler(
            engine, batch_window_s=0.1,
            limits=ServiceLimits(max_batch=16),
        )
        queries = [engine.products[i] for i in (5, 31, 77)]
        futures = [scheduler.submit(q, "rtk", 7) for q in queries]
        futures += [scheduler.submit(q, "rkr", 4) for q in queries]
        scheduler.start()
        try:
            answers = [f.result(timeout=10) for f in futures]
        finally:
            scheduler.close()
        kernel = ([payload(a, "rtk") for a in answers[:3]]
                  + [payload(a, "rkr") for a in answers[3:]])
        dense = ([payload(a, "rtk")
                  for a in oracle.reverse_topk_many(queries, 7)]
                 + [payload(a, "rkr")
                    for a in oracle.reverse_kranks_many(queries, 4)])
        assert kernel == dense
        assert answers_by_path(scheduler)["fused"] == 6

    def test_use_kernel_option_removed(self, engine):
        """There is no dense serving path to opt into any more: the
        scheduler rejects ``use_kernel`` and exposes no such switch."""
        with pytest.raises(TypeError, match="use_kernel"):
            make_scheduler(engine, use_kernel=False)
        scheduler = make_scheduler(engine)
        try:
            assert not hasattr(scheduler, "use_kernel")
        finally:
            scheduler.close()

    def test_single_request_takes_fused_kernel(self, engine):
        """A batch of one goes through the fused kernel, never the
        per-query engine."""
        naive = NaiveRRQ(engine.products, engine.weights)
        scheduler = make_scheduler(engine, batch_window_s=0.0)
        scheduler.start()
        try:
            rtk = scheduler.answer(engine.products[9], "rtk", 5)
            rkr = scheduler.answer(engine.products[9], "rkr", 5)
        finally:
            scheduler.close()
        assert payload(rtk, "rtk") == payload(
            naive.reverse_topk(engine.products[9], 5), "rtk")
        assert payload(rkr, "rkr") == payload(
            naive.reverse_kranks(engine.products[9], 5), "rkr")
        snap = scheduler.metrics.snapshot()
        assert snap["batches"]["coalesced"] == 0
        assert snap["kernel"]["fused"] == {"batches": 2, "queries": 2}
        assert answers_by_path(scheduler)["fused"] == 2
        assert answers_by_path(scheduler)["engine_locked"] == 0


class TestKernelRetry:
    """A failed kernel build is retried after a backoff, never latched:
    the process returns to the kernel once a build succeeds."""

    def test_static_build_failure_then_recovery(self, engine, monkeypatch):
        monkeypatch.setattr(scheduler_mod, "KERNEL_RETRY_BASE_S", 0.5)
        scheduler = make_scheduler(engine, batch_window_s=0.0)
        build = scheduler._build_static_kernel
        attempts = []

        def flaky_build():
            attempts.append(1)
            if len(attempts) == 1:
                raise MemoryError("injected build failure")
            return build()

        monkeypatch.setattr(scheduler, "_build_static_kernel", flaky_build)
        scheduler.start()
        q = engine.products[4]
        try:
            with pytest.raises(KernelUnavailableError,
                               match="injected build failure"):
                scheduler.answer(q, "rtk", 5)
            # Inside the backoff window no build is attempted.
            with pytest.raises(KernelUnavailableError):
                scheduler.answer(q, "rtk", 5)
            assert len(attempts) == 1
            kernel = scheduler.metrics.snapshot()["kernel"]
            assert kernel["available"] == {"static": False}
            assert kernel["build_failures"] == {"static": 1}
            scheduler_mod.time.sleep(0.55)
            got = scheduler.answer(q, "rtk", 5)
        finally:
            scheduler.close()
        assert len(attempts) == 2
        assert payload(got, "rtk") == payload(
            NaiveRRQ(engine.products, engine.weights).reverse_topk(q, 5),
            "rtk")
        kernel = scheduler.metrics.snapshot()["kernel"]
        assert kernel["available"] == {"static": True}
        assert kernel["build_failures"] == {"static": 1}
        assert answers_by_path(scheduler)["fused"] == 1

    def test_backoff_doubles_up_to_the_cap(self, monkeypatch):
        monkeypatch.setattr(scheduler_mod, "KERNEL_RETRY_BASE_S", 1.0)
        monkeypatch.setattr(scheduler_mod, "KERNEL_RETRY_MAX_S", 3.0)
        from repro.service.metrics import ServiceMetrics

        metrics = ServiceMetrics()
        retry = scheduler_mod._Backoff("static", metrics)
        delays = []
        for _ in range(4):
            retry.failed(OSError("injected"))
            delays.append(retry._retry_at - scheduler_mod.time.monotonic())
        assert delays == pytest.approx([1.0, 2.0, 3.0, 3.0], abs=0.05)
        assert not retry.ready()
        assert metrics.snapshot()["kernel"]["build_failures"] == {"static": 4}
        retry.succeeded()
        assert retry.ready() and retry.failures == 0
        assert metrics.snapshot()["kernel"]["available"] == {"static": True}


class TestDeadlines:
    def test_expired_deadline_rejected_at_dispatch(self, engine):
        scheduler = make_scheduler(engine, batch_window_s=0.0)
        future = scheduler.submit(engine.products[0], "rtk", 5, deadline_s=0.0)
        scheduler.start()
        try:
            with pytest.raises(DeadlineExceededError):
                future.result(timeout=10)
        finally:
            scheduler.close()
        snap = scheduler.metrics.snapshot()
        assert snap["requests"]["rejected_deadline"] == 1

    def test_answer_times_out_while_parked(self, engine):
        """answer() enforces the deadline even if dispatch never happens."""
        scheduler = make_scheduler(engine, batch_window_s=0.0)
        with pytest.raises(DeadlineExceededError):
            scheduler.answer(engine.products[0], "rtk", 5, deadline_s=0.05)
        scheduler.close()

    def test_unbounded_deadline_allowed(self, engine):
        scheduler = make_scheduler(
            engine, batch_window_s=0.0,
            limits=ServiceLimits(default_deadline_s=None),
        )
        scheduler.start()
        try:
            result = scheduler.answer(engine.products[1], "rtk", 5)
            assert result.k == 5
        finally:
            scheduler.close()


class TestOverflow:
    def test_full_queue_rejects_submit(self, engine):
        scheduler = make_scheduler(
            engine, limits=ServiceLimits(max_queue_depth=4),
        )
        for i in range(4):
            scheduler.submit(engine.products[i], "rtk", 5)
        with pytest.raises(ServiceOverloadError):
            scheduler.submit(engine.products[4], "rtk", 5)
        assert scheduler.queue_depth() == 4
        snap = scheduler.metrics.snapshot()
        assert snap["requests"]["rejected_overload"] == 1
        scheduler.close()

    def test_close_fails_parked_requests_with_503(self, engine):
        """With the dispatcher parked, shutdown sheds the queue as 503s."""
        scheduler = make_scheduler(engine)
        future = scheduler.submit(engine.products[0], "rtk", 5)
        scheduler.close()
        with pytest.raises(ServiceUnavailableError):
            future.result(timeout=1)
        snap = scheduler.metrics.snapshot()
        assert snap["requests"]["rejected_unavailable"] == 1


class TestShutdownDrain:
    def test_close_drains_admitted_requests(self, engine):
        """Requests admitted before close() are answered, not dropped."""
        scheduler = make_scheduler(engine, batch_window_s=0.02)
        futures = [scheduler.submit(engine.products[i], "rtk", 6)
                   for i in range(4)]
        scheduler.start()
        scheduler.close(drain=True)
        for i, future in enumerate(futures):
            result = future.result(timeout=1)
            assert result.weights == engine.reverse_topk(
                engine.products[i], 6).weights

    def test_submit_after_close_is_503(self, engine):
        scheduler = make_scheduler(engine)
        scheduler.start()
        scheduler.close()
        with pytest.raises(ServiceUnavailableError):
            scheduler.submit(engine.products[0], "rtk", 5)

    def test_close_without_drain_sheds_queue(self, engine):
        scheduler = make_scheduler(engine)
        futures = [scheduler.submit(engine.products[i], "rtk", 5)
                   for i in range(3)]
        scheduler.close(drain=False)
        for future in futures:
            with pytest.raises(ServiceUnavailableError):
                future.result(timeout=1)


class TestValidation:
    def test_bad_kind_and_k(self, engine):
        scheduler = make_scheduler(engine)
        with pytest.raises(InvalidParameterError):
            scheduler.submit(engine.products[0], "nearest", 5)
        with pytest.raises(InvalidParameterError):
            scheduler.submit(engine.products[0], "rtk", 0)
        with pytest.raises(InvalidParameterError):
            MicroBatchScheduler(engine, batch_window_s=-1.0, auto_start=False)
        scheduler.close()

    def test_concurrent_submitters_all_answered(self, engine):
        scheduler = make_scheduler(engine, batch_window_s=0.02)
        scheduler.start()
        results = {}
        barrier = threading.Barrier(8)

        def hit(i):
            barrier.wait()
            results[i] = scheduler.answer(engine.products[i], "rtk", 7)

        threads = [threading.Thread(target=hit, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        scheduler.close()
        for i in range(8):
            assert results[i].weights == engine.reverse_topk(
                engine.products[i], 7).weights


class TestSnapshotBatchPath:
    """Coalesced batches over an MVCC engine pin one snapshot: no engine
    lock for the whole batch, answers byte-identical to the engine."""

    @pytest.fixture
    def durable(self, tmp_path):
        import numpy as np

        from repro.durability import DurableDynamicRRQ

        rng = np.random.default_rng(911)
        engine = DurableDynamicRRQ(tmp_path / "db", dim=4,
                                   backend="segmented", seal_every=16,
                                   auto_compact=False, fsync="never")
        for _ in range(60):
            engine.insert_product(rng.uniform(0, 0.9, 4))
        for _ in range(40):
            w = rng.uniform(0.1, 1.0, 4)
            engine.insert_weight(w / w.sum())
        yield engine
        engine.close()

    def test_batch_pins_one_snapshot_and_matches_engine(self, durable):
        scheduler = make_scheduler(
            durable, batch_window_s=0.1,
            limits=ServiceLimits(max_batch=16),
        )
        queries = [durable.products[i] for i in (0, 7, 23, 41)]
        futures = [scheduler.submit(q, "rtk", 8) for q in queries[:2]]
        futures += [scheduler.submit(q, "rkr", 5) for q in queries[2:]]
        scheduler.start()
        try:
            results = [f.result(timeout=10) for f in futures]
        finally:
            scheduler.close()
        for q, result in zip(queries[:2], results[:2]):
            assert result.weights == durable.reverse_topk(q, 8).weights
        for q, result in zip(queries[2:], results[2:]):
            assert result.entries == durable.reverse_kranks(q, 5).entries
        # The densified snapshot kernel answered the batch.
        assert scheduler.metrics.snapshot()["kernel"]["queries"] == 4
        assert scheduler._snap_kernel is not None

    def test_kernel_cache_rebuilds_only_when_the_store_moves(self, durable):
        import numpy as np

        scheduler = make_scheduler(
            durable, batch_window_s=0.1,
            limits=ServiceLimits(max_batch=16),
        )
        queries = [durable.products[i] for i in (1, 5, 9)]

        def run_batch():
            futures = [scheduler.submit(q, "rtk", 6) for q in queries]
            scheduler.start()
            return [f.result(timeout=10) for f in futures]

        run_batch()
        first = scheduler._snap_kernel
        assert first is not None
        # Same store generation -> the cached kernel is reused.
        futures = [scheduler.submit(q, "rkr", 4) for q in queries]
        [f.result(timeout=10) for f in futures]
        assert scheduler._snap_kernel is first

        durable.insert_product(np.full(4, 0.42))  # writer never blocked
        futures = [scheduler.submit(q, "rtk", 6) for q in queries]
        results = [f.result(timeout=10) for f in futures]
        scheduler.close()
        assert scheduler._snap_kernel is not first  # generation moved
        for q, result in zip(queries, results):
            assert result.weights == durable.reverse_topk(q, 6).weights

    @staticmethod
    def _naive_over_live(durable):
        """NaiveRRQ over the store's live rows.  The fixture only
        inserts, so global ids equal dense indices."""
        from repro.data.datasets import ProductSet, WeightSet

        snap = durable.pin_snapshot()
        try:
            (p_rows, _), (w_rows, _) = snap.live_products(), \
                snap.live_weights()
            return NaiveRRQ(ProductSet(p_rows, value_range=snap.value_range),
                            WeightSet(w_rows))
        finally:
            snap.release()

    def test_single_request_uses_snapshot_kernel(self, durable):
        naive = self._naive_over_live(durable)
        scheduler = make_scheduler(durable, batch_window_s=0.0)
        scheduler.start()
        q = durable.products[3]
        try:
            rtk = scheduler.answer(q, "rtk", 5)
            rkr = scheduler.answer(q, "rkr", 5)
        finally:
            scheduler.close()
        assert payload(rtk, "rtk") == payload(naive.reverse_topk(q, 5), "rtk")
        assert payload(rkr, "rkr") == payload(
            naive.reverse_kranks(q, 5), "rkr")
        assert scheduler.metrics.snapshot()["kernel"]["queries"] == 2
        assert answers_by_path(scheduler)["snapshot_fused"] == 2
        assert answers_by_path(scheduler)["snapshot_merge"] == 0

    def test_snapshot_build_failure_merges_then_recovers(self, durable,
                                                         monkeypatch):
        """While the snapshot kernel cannot be built, batches take the
        exact merge path; after the backoff the kernel is back."""
        from repro.storage import SnapshotKernel

        monkeypatch.setattr(scheduler_mod, "KERNEL_RETRY_BASE_S", 0.05)
        naive = self._naive_over_live(durable)
        build = SnapshotKernel.build.__func__
        attempts = []

        def flaky_build(cls, snap, **kwargs):
            attempts.append(1)
            if len(attempts) == 1:
                raise OSError("injected build failure")
            return build(cls, snap, **kwargs)

        monkeypatch.setattr(SnapshotKernel, "build",
                            classmethod(flaky_build))
        scheduler = make_scheduler(durable, batch_window_s=0.0)
        scheduler.start()
        q = durable.products[8]
        try:
            merged = scheduler.answer(q, "rkr", 6)
            assert answers_by_path(scheduler)["snapshot_merge"] == 1
            kernel = scheduler.metrics.snapshot()["kernel"]
            assert kernel["available"] == {"snapshot": False}
            scheduler_mod.time.sleep(0.06)
            fused = scheduler.answer(q, "rkr", 6)
        finally:
            scheduler.close()
        expected = payload(naive.reverse_kranks(q, 6), "rkr")
        assert payload(merged, "rkr") == expected
        assert payload(fused, "rkr") == expected
        assert answers_by_path(scheduler)["snapshot_fused"] == 1
        kernel = scheduler.metrics.snapshot()["kernel"]
        assert kernel["available"] == {"snapshot": True}
        assert kernel["build_failures"] == {"snapshot": 1}


class TestKernelHotSwap:
    """The auto-tuner's flip: one reference assignment swaps the static
    batch-path kernel, and the persisted cache must never hand back a
    kernel whose grid config no longer matches the engine's."""

    def _run_batch(self, scheduler, queries, k=6):
        futures = [scheduler.submit(q, "rtk", k) for q in queries]
        scheduler.start()
        return [f.result(timeout=10) for f in futures]

    def test_swap_kernel_flips_the_batch_path(self, engine):
        from repro.tuning import CandidateConfig, build_tuned_kernel

        scheduler = make_scheduler(
            engine, batch_window_s=0.1, limits=ServiceLimits(max_batch=8))
        queries = [engine.products[i] for i in (0, 3, 9)]
        self._run_batch(scheduler, queries)
        old = scheduler._get_kernel()
        tuned = build_tuned_kernel(
            engine.products, engine.weights,
            CandidateConfig(partitions=16, boundaries="quantile"))
        scheduler.swap_kernel(tuned, CandidateConfig(
            partitions=16, boundaries="quantile"))
        assert scheduler._get_kernel() is tuned is not old
        futures = [scheduler.submit(q, "rtk", 6) for q in queries]
        results = [f.result(timeout=10) for f in futures]
        scheduler.close()
        for q, result in zip(queries, results):
            assert result.weights == engine.reverse_topk(q, 6).weights

    def test_swap_persists_config_store_and_pointer(self, engine,
                                                    tmp_path):
        from repro.tuning import CandidateConfig, build_tuned_kernel
        from repro.vectorized.kernelstore import (
            config_digest_of,
            read_tuned_pointer,
        )

        config = CandidateConfig(partitions=16)
        tuned = build_tuned_kernel(engine.products, engine.weights, config)
        scheduler = make_scheduler(engine, batch_window_s=0.0,
                                   kernel_cache_dir=str(tmp_path))
        scheduler.swap_kernel(tuned, config)
        scheduler.close()
        pointer = read_tuned_pointer(tmp_path)
        assert pointer["digest"] == config_digest_of(tuned)
        assert pointer["config"]["partitions"] == 16
        assert (tmp_path / f"cfg-{pointer['digest'][:12]}").is_dir()
        # A fresh scheduler warm-starts straight into the tuned config.
        again = make_scheduler(engine, batch_window_s=0.0,
                               kernel_cache_dir=str(tmp_path))
        loaded = again._get_kernel()
        again.close()
        assert loaded.partitions == 16
        assert config_digest_of(loaded) == pointer["digest"]

    def test_stale_cache_refused_after_config_change(self, tmp_path):
        """Regression: the static/ cache recorded layout but not grid
        config, so restarting with different partitions silently served
        a kernel quantized under the old boundaries."""
        from repro.data.synthetic import uniform_products, uniform_weights
        from repro.vectorized.kernelstore import store_config_digest

        P = uniform_products(60, 3, seed=921)
        W = uniform_weights(40, 3, seed=922)
        coarse = RRQEngine(P, W, method="gir", partitions=8)
        scheduler = make_scheduler(coarse, batch_window_s=0.0,
                                   kernel_cache_dir=str(tmp_path))
        assert scheduler._get_kernel() is not None  # builds + persists
        scheduler.close()
        cached_digest = store_config_digest(tmp_path / "static")
        assert cached_digest is not None

        fine = RRQEngine(P, W, method="gir", partitions=32)
        scheduler = make_scheduler(fine, batch_window_s=0.0,
                                   kernel_cache_dir=str(tmp_path))
        assert scheduler._load_cached_static_kernel() is None  # refused
        kernel = scheduler._get_kernel()                       # rebuilt
        scheduler.close()
        assert kernel.partitions == 32
        assert store_config_digest(tmp_path / "static") != cached_digest

        # Matching config -> the cache is honored again.
        same = RRQEngine(P, W, method="gir", partitions=32)
        scheduler = make_scheduler(same, batch_window_s=0.0,
                                   kernel_cache_dir=str(tmp_path))
        assert scheduler._load_cached_static_kernel() is not None
        scheduler.close()


class TestSnapshotTuning:
    """set_snapshot_tuning retargets the MVCC snapshot-kernel cache at
    the tuned config (the durable half of the tuner's hot-swap)."""

    durable = TestSnapshotBatchPath.durable

    def test_tuning_change_rebuilds_snapshot_kernel(self, durable):
        from repro.tuning import CandidateConfig

        scheduler = make_scheduler(
            durable, batch_window_s=0.1,
            limits=ServiceLimits(max_batch=16))
        queries = [durable.products[i] for i in (2, 11, 30)]
        futures = [scheduler.submit(q, "rtk", 6) for q in queries]
        scheduler.start()
        [f.result(timeout=10) for f in futures]
        default_kernel = scheduler._snap_kernel
        assert default_kernel is not None
        assert default_kernel.variant is None

        config = CandidateConfig(partitions=16, boundaries="quantile")
        scheduler.set_snapshot_tuning(config)
        futures = [scheduler.submit(q, "rtk", 6) for q in queries]
        results = [f.result(timeout=10) for f in futures]
        scheduler.close()
        tuned_kernel = scheduler._snap_kernel
        assert tuned_kernel is not default_kernel
        assert tuned_kernel.variant == config.short()
        for q, result in zip(queries, results):
            assert result.weights == durable.reverse_topk(q, 6).weights
