"""``repro-rrq serve`` with layer spans recorded around public functions.

Usage::

    PYTHONPATH=src python3 e2ebench/traced_serve.py SPANS.json serve ARGS...

Everything after ``SPANS.json`` is passed to ``repro.cli.main`` unchanged.
Before the server starts, this script wraps the functions each layer
exposes (the HTTP handler, ``QueryService.query``, ``ResultCache``, the
scheduler's ``submit``, the engines, the kernel, the segment store and
the WAL) so each call becomes a span: name, start, end, parent span,
request id.  Spans stay in memory; on SIGTERM the server shuts down
normally and the spans are written to ``SPANS.json``.  Nothing in the
program is modified on disk.

A request is traced only when its ``X-Trace-Id`` header starts with
``t``; other requests pay just the wrappers' flag checks.  The benchmark
alternates traced and untraced requests, which gives the tracing
overhead from one server.  Background work that belongs to no request
(seals, compactions, snapshot-kernel builds) is always recorded.
"""

from __future__ import annotations

import functools
import json
import signal
import sys
import threading
import time
from collections import defaultdict, deque


class Recorder:
    """In-memory span store shared by every wrapper."""

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(int)
        self._lock = threading.Lock()
        self._ids = iter(range(1, 1 << 62))
        self._tls = threading.local()
        #: (query bytes, kind) -> queue of (rid, traced, submit time).
        self._submitted = defaultdict(deque)

    # -- thread-local request context -------------------------------------

    def stack(self):
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        return stack

    def request(self):
        return getattr(self._tls, "request", (None, False))

    def set_request(self, rid, traced):
        self._tls.request = (rid, traced)

    def answering(self):
        return getattr(self._tls, "answering", False)

    def set_answering(self, flag):
        self._tls.answering = flag

    # -- spans -------------------------------------------------------------

    def open(self, name, rids=None, attrs=None):
        stack = self.stack()
        rid, _ = self.request()
        span = {"id": next(self._ids), "name": name,
                "thread": threading.get_ident(),
                "parent": stack[-1]["id"] if stack else None,
                "rids": rids if rids is not None else
                ([rid] if rid is not None else []),
                "attrs": attrs or {}, "start": time.monotonic(),
                "end": None}
        stack.append(span)
        return span

    def close(self, span):
        span["end"] = time.monotonic()
        self.stack().pop()
        with self._lock:
            self.spans.append(span)

    def count(self, name, n=1):
        with self._lock:
            self.counts[name] += n

    # -- request identity across the scheduler's thread hop ----------------

    def note_submit(self, key):
        rid, traced = self.request()
        with self._lock:
            self._submitted[key].append((rid, traced, time.monotonic()))

    def take(self, keys):
        """Request identities for the queries an answering call serves."""
        out = []
        with self._lock:
            for key in keys:
                queue = self._submitted.get(key)
                out.append(queue.popleft() if queue else (None, False, None))
        return out

    def dump(self, path):
        with self._lock:
            body = {"spans": self.spans, "counts": dict(self.counts)}
        with open(path, "w") as fh:
            json.dump(body, fh)


REC = Recorder()


def _key(q, kind):
    import numpy as np

    return (np.asarray(q, dtype=np.float64).tobytes(), kind)


def _in_request_span(name, count=None):
    """Span the call when the current request is traced."""
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if count:
                REC.count(count)
            if not REC.request()[1]:
                return fn(*args, **kwargs)
            span = REC.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                REC.close(span)
        return wrapper
    return deco


def _always_span(name):
    """Span background work, whatever request (if any) is current.

    The span carries no request id: a seal or compaction serves the store,
    not the write that happened to trigger it.
    """
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = REC.open(name, rids=[])
            try:
                return fn(*args, **kwargs)
            finally:
                REC.close(span)
        return wrapper
    return deco


def _answering(name, kind, batch):
    """Span an engine/kernel call on the scheduler's dispatcher thread.

    The requests it answers are recovered from the query points that
    ``submit`` saw, so queue wait (submit to this call's start) is known
    per request.
    """
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(self, q, k, *args, **kwargs):
            if REC.answering():
                # An engine fronting another wrapped engine: the outer
                # call already claimed the requests.
                return fn(self, q, k, *args, **kwargs)
            queries = list(q) if batch else [q]
            ids = REC.take([_key(x, kind) for x in queries])
            REC.count(name + ".calls")
            REC.count(name + ".queries", len(queries))
            traced = any(flag for _, flag, _ in ids)
            span = REC.open(name, rids=[rid for rid, _, _ in ids],
                            attrs={"submitted": [t for _, _, t in ids],
                                   "queries": len(queries)}) \
                if traced else None
            REC.set_answering(True)
            try:
                result = fn(self, q, k, *args, **kwargs)
            finally:
                REC.set_answering(False)
                if span is not None:
                    REC.close(span)
            if span is None:
                return result
            stats = getattr(self, "last_stats", None)
            if batch or name == "kernel.query":
                if stats is not None:
                    span["attrs"]["kernel"] = stats.snapshot()
            return result
        return wrapper
    return deco


def install():
    """Wrap each layer's public entry points; call once per process."""
    from repro.core.gir import GridIndexRRQ
    from repro.durability.engine import DurableDynamicRRQ
    from repro.durability.wal import WalWriter
    from repro.queries.engine import RRQEngine
    from repro.service import server as srv
    from repro.service.cache import ResultCache
    from repro.service.scheduler import MicroBatchScheduler
    from repro.storage.kernel import SnapshotKernel
    from repro.storage.snapshot import StoreSnapshot
    from repro.storage.store import SegmentStore
    from repro.vectorized.girkernel import GirKernelRRQ

    handler = srv._RequestHandler
    do_post = handler.do_POST

    @functools.wraps(do_post)
    def traced_post(self):
        rid = self.headers.get("X-Trace-Id")
        traced = bool(rid) and rid.startswith("t")
        REC.set_request(rid, traced)
        try:
            if not traced:
                return do_post(self)
            span = REC.open("server.http")
            try:
                return do_post(self)
            finally:
                REC.close(span)
        finally:
            REC.set_request(None, False)

    handler.do_POST = traced_post

    srv.QueryService.query = _in_request_span("service.query")(
        srv.QueryService.query)
    srv.DurableQueryService.mutate = _in_request_span("service.mutate")(
        srv.DurableQueryService.mutate)

    cache_get = ResultCache.get

    @functools.wraps(cache_get)
    def traced_get(self, key):
        value = cache_get(self, key)
        if REC.request()[1]:
            REC.count("cache.gets")
            REC.count("cache.hits", value is not None)
        return value

    ResultCache.get = traced_get
    ResultCache.invalidate = _in_request_span(
        "cache.invalidate", count="cache.invalidations")(ResultCache.invalidate)

    submit = MicroBatchScheduler.submit

    @functools.wraps(submit)
    def traced_submit(self, q, kind, k, *args, **kwargs):
        REC.note_submit(_key(q, kind))
        return submit(self, q, kind, k, *args, **kwargs)

    MicroBatchScheduler.submit = traced_submit

    for cls in (RRQEngine, GridIndexRRQ):
        cls.reverse_topk = _answering("engine.query", "rtk", False)(
            cls.reverse_topk)
        cls.reverse_kranks = _answering("engine.query", "rkr", False)(
            cls.reverse_kranks)
    StoreSnapshot.reverse_topk = _answering("storage.merge", "rtk", False)(
        StoreSnapshot.reverse_topk)
    StoreSnapshot.reverse_kranks = _answering("storage.merge", "rkr", False)(
        StoreSnapshot.reverse_kranks)
    GirKernelRRQ.reverse_topk = _answering("kernel.query", "rtk", False)(
        GirKernelRRQ.reverse_topk)
    GirKernelRRQ.reverse_kranks = _answering("kernel.query", "rkr", False)(
        GirKernelRRQ.reverse_kranks)
    GirKernelRRQ.reverse_topk_batch = _answering(
        "kernel.batch", "rtk", True)(GirKernelRRQ.reverse_topk_batch)
    GirKernelRRQ.reverse_kranks_batch = _answering(
        "kernel.batch", "rkr", True)(GirKernelRRQ.reverse_kranks_batch)

    SegmentStore.pin = _always_span("storage.pin")(SegmentStore.pin)
    SegmentStore.seal = _always_span("storage.seal")(SegmentStore.seal)
    SegmentStore.compact_run = _always_span("storage.compact")(
        SegmentStore.compact_run)
    build = SnapshotKernel.build.__func__
    SnapshotKernel.build = classmethod(
        _always_span("storage.kernel_build")(build))

    for op in ("insert_product", "insert_weight", "delete_product",
               "delete_weight"):
        setattr(DurableDynamicRRQ, op, _in_request_span(
            "durability.write", count="durability.writes")(
                getattr(DurableDynamicRRQ, op)))

    append = WalWriter.append

    @functools.wraps(append)
    def traced_append(self, op, data):
        before = self.bytes_written
        if not REC.request()[1]:
            record = append(self, op, data)
        else:
            span = REC.open("durability.wal_append")
            try:
                record = append(self, op, data)
            finally:
                REC.close(span)
        REC.count("durability.wal_bytes", self.bytes_written - before)
        REC.count("durability.wal_appends")
        return record

    WalWriter.append = traced_append


def main(argv):
    if len(argv) < 2:
        print("usage: traced_serve.py SPANS.json serve ARGS...",
              file=sys.stderr)
        return 2
    out, cli_args = argv[0], argv[1:]
    install()

    def stop(signum, frame):
        raise KeyboardInterrupt

    signal.signal(signal.SIGTERM, stop)
    from repro.cli import main as cli_main

    try:
        code = cli_main(cli_args)
    finally:
        REC.dump(out)
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
