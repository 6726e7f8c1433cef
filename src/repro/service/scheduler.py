"""Micro-batching admission scheduler for concurrent reverse-rank queries.

Requests are admitted into a bounded queue; a dispatcher thread collects
everything that arrives within a configurable *batch window* and answers
the micro-batch — a batch of one included — with one fused kernel call
per query kind (``reverse_topk_batch`` / ``reverse_kranks_batch``):

* static engines use :class:`~repro.vectorized.girkernel.GirKernelRRQ`,
  built lazily over the engine's own grid; every query of the batch
  shares the (P-tile × W-block) bound matmuls (Eq. 3/4);
* MVCC engines (the segmented store) pin one snapshot per batch and use
  a :class:`~repro.storage.SnapshotKernel` over it, cached until the
  store generation moves.

Answers are byte-identical to :class:`~repro.algorithms.naive.NaiveRRQ`
on every path (the integration tests enforce byte-equality of the HTTP
payloads).  The remaining paths are fallbacks, each named by the
``answer_path`` span annotation and ``rrq_answers_total{path=...}``:

* ``snapshot_merge`` — an MVCC batch whose snapshot kernel is
  unavailable (a side is empty, or a build failed) runs the snapshot's
  exact segment merge;
* ``engine_locked`` — a flat dynamic engine (no snapshots) answers each
  request under its own lock;
* ``naive_fallback`` — a static batch whose kernel cannot be built fails
  with :class:`~repro.errors.KernelUnavailableError`, and the service
  answers from its exact naive scan, flagged ``degraded``.

A failed kernel build is retried after an exponential backoff rather
than latched off; ``rrq_kernel_available{backend=...}`` reports the
state.  Admission control (queue bounds, deadlines) lives in
:mod:`repro.service.limits`; this module enforces it at submit and
dispatch time and reports every batch to
:class:`~repro.service.metrics.ServiceMetrics`.
"""

from __future__ import annotations

import queue
import threading
import time
from concurrent.futures import Future
from concurrent.futures import TimeoutError as _FutureTimeoutError
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from ..data.datasets import check_query_point
from ..errors import (
    DeadlineExceededError,
    InvalidParameterError,
    KernelUnavailableError,
    ServiceOverloadError,
    ServiceUnavailableError,
)
from ..obs.trace import current, span, use_context
from ..resilience.faults import fire
from ..stats.counters import OpCounter
from ..vectorized.girkernel import GirKernelRRQ
from .limits import Deadline, ServiceLimits
from .metrics import ServiceMetrics

#: Default coalescing window, in seconds (2 ms).
DEFAULT_BATCH_WINDOW_S = 0.002

#: How often the dispatcher re-checks the shutdown flag while idle.
_IDLE_POLL_S = 0.05

#: Backoff after a failed kernel build: the first retry waits this long,
#: each further consecutive failure doubles it, up to the cap.
KERNEL_RETRY_BASE_S = 0.5
KERNEL_RETRY_MAX_S = 30.0

_KINDS = ("rtk", "rkr")


@dataclass
class _Pending:
    """One admitted request waiting for dispatch.

    ``ctx`` is the submitter's span context (or ``None`` when tracing is
    dark), captured at admission so the dispatcher thread can re-enter
    the request's trace — a ContextVar does not cross threads by itself.
    """

    q: np.ndarray
    kind: str
    k: int
    deadline: Deadline
    future: "Future" = field(default_factory=Future)
    ctx: Optional[object] = None


class _Backoff:
    """Retry gate for one backend's kernel build: exponential backoff,
    never a latch.  Build outcomes are reported to ``metrics``."""

    def __init__(self, backend: str, metrics: ServiceMetrics):
        self.backend = backend
        self.metrics = metrics
        self.failures = 0
        self._retry_at = 0.0
        #: ``repr`` of the exception behind the latest failure.
        self.last_error: Optional[str] = None

    def ready(self) -> bool:
        return time.monotonic() >= self._retry_at

    def failed(self, exc: BaseException) -> None:
        self.last_error = repr(exc)
        self.failures += 1
        delay = min(KERNEL_RETRY_BASE_S * 2 ** (self.failures - 1),
                    KERNEL_RETRY_MAX_S)
        self._retry_at = time.monotonic() + delay
        self.metrics.record_kernel_build(self.backend, ok=False)

    def succeeded(self) -> None:
        self.reset()
        self.metrics.record_kernel_build(self.backend, ok=True)

    def reset(self) -> None:
        self.failures = 0
        self._retry_at = 0.0


class MicroBatchScheduler:
    """Coalesces concurrent single queries into fused kernel batches.

    Parameters
    ----------
    engine:
        Any library engine/algorithm exposing ``reverse_topk``,
        ``reverse_kranks``, ``products`` and ``weights`` (an
        :class:`~repro.queries.engine.RRQEngine` in practice).  Static
        engines supply the arrays (and, for GIR, the grid) the kernel is
        built from; dynamic engines answer through snapshots or under
        their own lock.
    batch_window_s:
        How long the dispatcher waits for more requests after the first
        one arrives.  ``0`` disables coalescing entirely (every request
        is its own batch of one).
    limits:
        Admission bounds (queue depth, default deadline, max batch size).
    metrics:
        Destination for batch/rejection tallies; a private instance is
        created when omitted.
    kernel_cache_dir:
        Directory for mmap kernel warm starts
        (:mod:`repro.vectorized.kernelstore`).  Static engines persist
        their lazily built kernel under ``<dir>/static`` and reload it
        zero-copy on the next process start (validated against the
        engine's arrays); MVCC engines persist snapshot kernels of
        sealed state under ``<dir>/gen-<manifest generation>-<lsn>``
        (see :class:`~repro.storage.SnapshotKernel`).  ``None`` disables
        caching.
    auto_start:
        Start the dispatcher thread immediately (tests pass ``False`` to
        stage requests deterministically before opening the tap).
    """

    def __init__(self, engine, batch_window_s: float = DEFAULT_BATCH_WINDOW_S,
                 limits: Optional[ServiceLimits] = None,
                 metrics: Optional[ServiceMetrics] = None,
                 kernel_cache_dir: Optional[str] = None,
                 auto_start: bool = True):
        if batch_window_s < 0:
            raise InvalidParameterError("batch_window_s must be >= 0")
        self.engine = engine
        self.batch_window_s = float(batch_window_s)
        self.limits = limits or ServiceLimits()
        self.metrics = metrics or ServiceMetrics()
        self._dim = engine.products.dim
        # A dynamic engine's product/weight views expose no ``.values``
        # (the arrays change under mutation), so no static kernel can be
        # built over them: MVCC engines answer through pinned snapshots,
        # flat ones under the engine's own lock.
        self._dynamic = not hasattr(engine.products, "values")
        self._engine_lock = getattr(engine, "lock", None)
        if self._dynamic:
            self._P = self._W = None
        else:
            self._P = engine.products.values
            self._W = engine.weights.values
        self.kernel_cache_dir = kernel_cache_dir
        self._kernel: Optional[GirKernelRRQ] = None
        self._kernel_retry = _Backoff("static", self.metrics)
        # MVCC engines (the segmented store) pin one immutable snapshot
        # per batch: queries run against it without the engine lock and
        # never observe mutations that land mid-batch.
        self._pin_snapshot = getattr(engine, "pin_snapshot", None)
        self._snap_kernel = None
        self._snap_kernel_retry = _Backoff("snapshot", self.metrics)
        #: Tuned snapshot-kernel config (a CandidateConfig), set by the
        #: auto-tuner's hot-swap on MVCC engines; None = default build.
        self._snapshot_tuning = None
        self._queue: "queue.Queue[_Pending]" = queue.Queue(
            maxsize=self.limits.max_queue_depth
        )
        self._stop = threading.Event()
        self._closing = threading.Event()
        self._thread: Optional[threading.Thread] = None
        if auto_start:
            self.start()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def start(self) -> None:
        """Start the dispatcher thread (idempotent)."""
        if self._thread is not None and self._thread.is_alive():
            return
        self._stop.clear()
        self._closing.clear()
        self._thread = threading.Thread(
            target=self._run, name="rrq-scheduler", daemon=True
        )
        self._thread.start()

    def close(self, drain: bool = True, drain_timeout_s: float = 5.0) -> None:
        """Graceful shutdown: drain in-flight work, shed the rest with 503s.

        New submissions are refused immediately with
        :class:`ServiceUnavailableError` (HTTP 503).  With ``drain`` the
        dispatcher keeps answering already-admitted requests for up to
        ``drain_timeout_s``; anything still queued after that (or when
        ``drain=False``) fails with a structured
        :class:`ServiceUnavailableError` instead of a dropped connection.
        """
        self._closing.set()
        if drain and self._thread is not None and self._thread.is_alive():
            deadline = time.monotonic() + drain_timeout_s
            while not self._queue.empty() and time.monotonic() < deadline:
                time.sleep(0.005)
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
        while True:
            try:
                pending = self._queue.get_nowait()
            except queue.Empty:
                break
            self.metrics.record_unavailable()
            pending.future.set_exception(
                ServiceUnavailableError(
                    "service shut down before the request was dispatched"
                )
            )

    def __enter__(self) -> "MicroBatchScheduler":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # admission
    # ------------------------------------------------------------------

    def queue_depth(self) -> int:
        """Requests currently waiting for dispatch (approximate)."""
        return self._queue.qsize()

    def submit(self, q, kind: str, k: int,
               deadline_s: Optional[float] = None) -> "Future":
        """Admit one query; returns a Future resolving to its result.

        Raises :class:`ServiceOverloadError` immediately when the queue
        is full.  The Future resolves to an :class:`RTKResult` /
        :class:`RKRResult`, or raises :class:`DeadlineExceededError` if
        the request's deadline passes before dispatch.
        """
        if kind not in _KINDS:
            raise InvalidParameterError("kind must be 'rtk' or 'rkr'")
        if k <= 0:
            raise InvalidParameterError("k must be positive")
        if self._closing.is_set():
            self.metrics.record_unavailable()
            raise ServiceUnavailableError(
                "service is shutting down; request not admitted"
            )
        q_arr = check_query_point(q, self._dim)
        pending = _Pending(
            q=q_arr, kind=kind, k=int(k),
            deadline=self.limits.deadline(deadline_s),
            ctx=current(),
        )
        try:
            self._queue.put_nowait(pending)
        except queue.Full:
            self.metrics.record_rejection(overload=True)
            raise ServiceOverloadError(
                f"admission queue full ({self.limits.max_queue_depth} "
                "requests waiting)"
            ) from None
        return pending.future

    def answer(self, q, kind: str, k: int,
               deadline_s: Optional[float] = None):
        """Submit and block until the result (or rejection) is available."""
        pending_deadline = self.limits.deadline(deadline_s)
        future = self.submit(q, kind, k, deadline_s)
        try:
            return future.result(timeout=pending_deadline.remaining())
        except (TimeoutError, _FutureTimeoutError):
            self.metrics.record_rejection(overload=False)
            raise DeadlineExceededError(
                "request deadline exceeded while waiting for dispatch"
            ) from None

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------

    def _run(self) -> None:
        while not self._stop.is_set():
            try:
                first = self._queue.get(timeout=_IDLE_POLL_S)
            except queue.Empty:
                continue
            batch = self._collect(first)
            self._dispatch(batch)

    def _collect(self, first: _Pending) -> List[_Pending]:
        """The micro-batch: ``first`` plus arrivals within the window."""
        batch = [first]
        if self.batch_window_s <= 0 or self.limits.max_batch <= 1:
            return batch
        window_closes = time.monotonic() + self.batch_window_s
        while len(batch) < self.limits.max_batch:
            remaining = window_closes - time.monotonic()
            if remaining <= 0:
                break
            try:
                batch.append(self._queue.get(timeout=remaining))
            except queue.Empty:
                break
        return batch

    def _dispatch(self, batch: List[_Pending]) -> None:
        live = []
        for pending in batch:
            if pending.deadline.expired():
                self.metrics.record_rejection(overload=False)
                pending.future.set_exception(
                    DeadlineExceededError(
                        "request deadline exceeded before dispatch"
                    )
                )
            else:
                live.append(pending)
        if not live:
            return
        counter = OpCounter()
        try:
            fire("scheduler.dispatch")
            snap = (self._pin_snapshot()
                    if self._pin_snapshot is not None else None)
            if snap is not None:
                try:
                    self._answer_snapshot(live, snap, counter)
                finally:
                    snap.release()
            elif self._dynamic:
                for pending in live:
                    self._answer_locked(pending, counter)
            else:
                kernel = self._get_kernel()
                if kernel is None:
                    raise KernelUnavailableError(
                        "the fused kernel failed to build "
                        f"({self._kernel_retry.last_error}); retrying "
                        "after backoff"
                    )
                self._answer_fused(live, kernel, counter, "fused")
        except Exception as exc:  # surface backend failures to callers
            for pending in live:
                if not pending.future.done():
                    pending.future.set_exception(exc)
        self.metrics.record_batch(len(live), counter)

    def _answer_locked(self, pending: _Pending, counter: OpCounter) -> None:
        """Flat dynamic engine: one request under the engine's own lock.

        The span closes before the future resolves, so the submitting
        thread never reads a trace whose dispatch span is still open.
        """
        with use_context(pending.ctx), span("engine.query") as sp:
            sp.annotate("kind", pending.kind)
            sp.annotate("answer_path", "engine_locked")
            lock = self._engine_lock
            if lock is not None:
                lock.acquire()
            try:
                if pending.kind == "rtk":
                    result = self.engine.reverse_topk(pending.q, pending.k)
                else:
                    result = self.engine.reverse_kranks(pending.q, pending.k)
            finally:
                if lock is not None:
                    lock.release()
        counter.merge(result.counter)
        self.metrics.record_answers("engine_locked")
        pending.future.set_result(result)

    def _answer_snapshot(self, live: List[_Pending], snap,
                         counter: OpCounter) -> None:
        """MVCC path: the whole batch reads one pinned snapshot.

        No engine lock is taken — writers proceed concurrently and the
        batch still sees one consistent state.  The batch runs through
        the snapshot's fused kernel; while that is unavailable the
        snapshot's exact merge path answers instead.
        """
        kernel = self._get_snapshot_kernel(snap)
        if kernel is not None:
            self._answer_fused(live, kernel, counter, "snapshot_fused")
            return
        for pending in live:
            with use_context(pending.ctx), span("snapshot.query") as sp:
                sp.annotate("kind", pending.kind)
                sp.annotate("batch_size", len(live))
                sp.annotate("generation", snap.generation)
                sp.annotate("answer_path", "snapshot_merge")
                if pending.kind == "rtk":
                    result = snap.reverse_topk(pending.q, pending.k)
                else:
                    result = snap.reverse_kranks(pending.q, pending.k)
            counter.merge(result.counter)
            self.metrics.record_answers("snapshot_merge")
            pending.future.set_result(result)

    def _answer_fused(self, live: List[_Pending], backend,
                      counter: OpCounter, path: str) -> None:
        """Answer the whole batch through the fused multi-query kernel.

        Requests are grouped by kind and each group runs as *one*
        ``reverse_topk_batch`` / ``reverse_kranks_batch`` call, sharing
        the (P-tile × W-block) boundary matmuls across every query of
        the group — byte-identical to NaiveRRQ (the property suite
        enforces it).  Futures resolve only after every group answered,
        so a failure leaves them all to the caller.
        """
        groups: dict = {}
        for idx, pending in enumerate(live):
            groups.setdefault(pending.kind, []).append(idx)
        results: List[Optional[object]] = [None] * len(live)
        group_stats = {}
        for kind, idxs in groups.items():
            queries = [live[i].q for i in idxs]
            ks = [live[i].k for i in idxs]
            if kind == "rtk":
                answers = backend.reverse_topk_batch(queries, ks)
            else:
                answers = backend.reverse_kranks_batch(queries, ks)
            for i, res in zip(idxs, answers):
                results[i] = res
            stats = backend.last_stats.snapshot()
            group_stats[kind] = stats
            ctx = live[idxs[0]].ctx
            self.metrics.record_kernel(
                stats, trace_id=ctx.trace.trace_id if ctx else None)
        self.metrics.record_answers(path, len(live))
        for pending, result in zip(live, results):
            with use_context(pending.ctx), span("kernel.fused") as sp:
                sp.annotate("kind", pending.kind)
                sp.annotate("batch_size", len(live))
                sp.annotate("answer_path", path)
                sp.annotate("kernel_stats", group_stats[pending.kind])
            counter.merge(result.counter)
            pending.future.set_result(result)

    def _get_snapshot_kernel(self, snap):
        """Fused kernel for ``snap``, cached across batches.

        Rebuilt only when the store generation (or the tuned config)
        moved.  ``None`` sends the batch down the merge path: when a
        side of the snapshot is empty, or a build failed and its retry
        backoff has not elapsed yet.
        """
        cached = self._snap_kernel
        tuning = self._snapshot_tuning
        variant = tuning.short() if tuning is not None else None
        if cached is not None and cached.matches(snap) and \
                getattr(cached, "variant", None) == variant:
            return cached
        if not self._snap_kernel_retry.ready():
            return None
        try:
            from ..storage import SnapshotKernel

            kernel = SnapshotKernel.build(
                snap, cache_dir=self.kernel_cache_dir, tuning=tuning,
            )
        except Exception as exc:  # serving falls back to the merge path
            self._snap_kernel_retry.failed(exc)
            self._snap_kernel = None
            return None
        self._snap_kernel_retry.succeeded()
        self._snap_kernel = kernel
        return kernel

    def _get_kernel(self) -> Optional[GirKernelRRQ]:
        """The static engine's fused kernel, built lazily on first use.

        Loaded from the kernel cache when a valid entry exists; else it
        wraps the engine's own grid when the engine is (or fronts) a
        :class:`~repro.core.gir.GridIndexRRQ` — no re-quantization —
        and otherwise quantizes fresh from the static arrays.  A build
        failure returns ``None`` and is retried after a backoff, so one
        failure never switches the process off the kernel for good.
        """
        if self._kernel is not None or not self._kernel_retry.ready():
            return self._kernel
        try:
            kernel = self._load_cached_static_kernel()
            if kernel is None:
                kernel = self._build_static_kernel()
                self._save_static_kernel(kernel)
        except Exception as exc:  # requests get the naive fallback
            self._kernel_retry.failed(exc)
            return None
        self._kernel_retry.succeeded()
        self._kernel = kernel
        return kernel

    def _build_static_kernel(self) -> GirKernelRRQ:
        from ..core.gir import GridIndexRRQ

        algorithm = getattr(self.engine, "algorithm", self.engine)
        if isinstance(algorithm, GirKernelRRQ):
            return algorithm
        if isinstance(algorithm, GridIndexRRQ):
            return GirKernelRRQ.from_gir(algorithm)
        return GirKernelRRQ(self.engine.products, self.engine.weights)

    def _expected_static_digest(self) -> Optional[str]:
        """The config digest the static-path kernel build *would* produce.

        Mirrors :meth:`_get_kernel`'s construction recipe without doing
        any of its work: the engine's own grid when it fronts a
        GIR/kernel algorithm, otherwise the default equal-width recipe.
        ``None`` means the recipe cannot be predicted cheaply — callers
        then refuse the cache rather than trust an unverifiable entry.
        """
        try:
            from ..core.gir import GridIndexRRQ
            from ..core.grid import DEFAULT_PARTITIONS
            from ..vectorized.girkernel import (DEFAULT_P_BLOCK,
                                                DEFAULT_W_BLOCK)
            from ..vectorized.kernelstore import (config_digest_of,
                                                  kernel_config_digest)

            algorithm = getattr(self.engine, "algorithm", self.engine)
            if isinstance(algorithm, GirKernelRRQ):
                return config_digest_of(algorithm)
            if isinstance(algorithm, GridIndexRRQ):
                return kernel_config_digest(
                    algorithm.grid.alpha_p, algorithm.grid.alpha_w,
                    DEFAULT_W_BLOCK, DEFAULT_P_BLOCK,
                    algorithm.use_domin, "float32",
                )
            # GirKernelRRQ(products, weights) default construction.
            w_range = float(self._W.max())
            alpha_p = np.linspace(0.0, self.engine.products.value_range,
                                  DEFAULT_PARTITIONS + 1)
            alpha_w = np.linspace(0.0, w_range, DEFAULT_PARTITIONS + 1)
            return kernel_config_digest(alpha_p, alpha_w,
                                        DEFAULT_W_BLOCK, DEFAULT_P_BLOCK,
                                        True, "float32")
        except Exception:
            return None

    def _load_cached_static_kernel(self) -> Optional[GirKernelRRQ]:
        """mmap warm start for the static-engine kernel, if cached.

        A tuned cache (``tuned.json`` pointer) resolves to its
        ``cfg-<digest>`` per-config store, loaded only when the store's
        recorded config digest matches the pointer.  The default
        ``static/`` entry is loaded only when its recorded digest
        matches the config this scheduler would build — ``kernel.meta``
        used to record layout but not boundaries/partitions/f32
        settings, silently reusing a kernel built under an older grid
        after a config change.  Either way the mapped ``P``/``W``
        arrays must still compare equal to the engine's own (a
        memcmp-speed scan); any mismatch refuses the cache and rebuilds.
        """
        if self.kernel_cache_dir is None:
            return None
        try:
            import os

            from ..vectorized.kernelstore import (config_store_dir,
                                                  load_kernel,
                                                  read_tuned_pointer)

            pointer = read_tuned_pointer(self.kernel_cache_dir)
            if pointer is not None:
                kernel = load_kernel(
                    config_store_dir(self.kernel_cache_dir,
                                     pointer["digest"]),
                    expected_digest=pointer["digest"],
                )
            else:
                expected = self._expected_static_digest()
                if expected is None:
                    return None
                kernel = load_kernel(
                    os.path.join(self.kernel_cache_dir, "static"),
                    expected_digest=expected,
                )
            if kernel.P.shape == self._P.shape and \
                    kernel.W.shape == self._W.shape and \
                    np.array_equal(kernel.P, self._P) and \
                    np.array_equal(kernel.W, self._W):
                return kernel
        except Exception:
            pass
        return None

    def _save_static_kernel(self, kernel: Optional[GirKernelRRQ]) -> None:
        if self.kernel_cache_dir is None or kernel is None:
            return
        try:
            import os

            from ..vectorized.kernelstore import save_kernel

            save_kernel(os.path.join(self.kernel_cache_dir, "static"),
                        kernel)
        except Exception:
            # Cache persistence is best-effort; serving never depends on it.
            pass

    def swap_kernel(self, kernel: GirKernelRRQ, config=None) -> None:
        """Hot-swap the static batch-path kernel (auto-tuner flip).

        The dispatcher reads ``self._kernel`` once per batch, so a
        single reference assignment is the whole flip: in-flight
        batches finish on the old kernel, the next batch sees the new
        one.  When a kernel cache is configured the tuned kernel is
        persisted to its own ``cfg-<digest>`` store and ``tuned.json``
        is flipped to it, so restarts come back up already tuned
        (persistence is best-effort, the in-memory swap is not).
        """
        if self.kernel_cache_dir is not None:
            try:
                from ..vectorized.kernelstore import (config_digest_of,
                                                      config_store_dir,
                                                      save_kernel,
                                                      write_tuned_pointer)

                digest = config_digest_of(kernel)
                save_kernel(config_store_dir(self.kernel_cache_dir, digest),
                            kernel)
                write_tuned_pointer(
                    self.kernel_cache_dir, digest,
                    config.as_dict() if config is not None else None,
                )
            except Exception:
                pass
        self._kernel = kernel
        self._kernel_retry.succeeded()

    def set_snapshot_tuning(self, config) -> None:
        """Adopt a tuned config for snapshot kernels (MVCC engines).

        The next ``_get_snapshot_kernel`` miss rebuilds under
        ``config`` (a :class:`~repro.tuning.tuner.CandidateConfig`);
        callers pair this with an engine checkpoint so a fresh
        generation exists to densify.  A pending build backoff is
        cleared, so the new config is tried on the next batch.
        """
        self._snapshot_tuning = config
        self._snap_kernel = None
        self._snap_kernel_retry.reset()
