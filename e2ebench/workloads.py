"""The benchmark's three workloads, each against a real ``serve`` process.

``static-solo``
    A static Grid-index (``repro-rrq build``) served with the default
    configuration; UN data, d=4, |P|=1500, |W|=600.  One closed-loop
    connection alternates RTK and RKR with no repeated query, so every
    request is dispatched alone and answered by the per-query engine.
``static-pair``
    A static index on UN data, d=6, |P|=2000, |W|=12000, served with
    ``--batch-window-ms 25 --max-batch 2``.  Two closed-loop connections
    step in lockstep and send the same kind at each step, so every
    dispatch is one fused kernel batch of two.
``durable-mixed``
    ``serve --durable --storage segmented --fsync always`` bootstrapped
    with UN data, d=4, |P|=500, |W|=500.  One closed-loop reader
    alternates RTK and RKR over a hot set smaller than the result cache;
    one open-loop writer sends mostly ``insert_weight`` plus some
    ``delete_weight``, ``insert_product`` and ``delete_product`` at 20
    writes/s, so reads and writes share one store while it seals and
    compacts.

The data sets are small enough that a run answers at least 100 queries of
each kind, which the p90 needs (ten samples beyond it); a run that answers
fewer is not valid (``correct`` is false).

Every query uses k = 10 and a query point that is a product with fewer
than k dominators, so the Domin pre-pass alone cannot settle it.  Every
answer is compared byte for byte with :mod:`oracle`.

Inputs are generated here; the server sees nothing else.  Each workload's
data set and query set are pinned (``Spec.data_seed``), so runs with
different ``--seed`` values answer the same queries and their figures
can be compared; the seed sets the order of the queries (within blocks
of ``ORDER_BLOCK``) and, on ``durable-mixed``, the write stream and the
reader's picks.  A static run measures for the whole of ``--seconds``:
its query set is larger than a run answers on the hardware it was tuned
on (2 vCPUs), and no query is sent twice.  A faster host that uses the
set up ends the window early.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

import layers
from benchstats import failed_frac, percentile, supports
from httpload import Connection, ServerProcess, run_cli
from oracle import ReplayOracle, check_read, encode_answer, static_ranks

K = 10
KINDS = ("rtk", "rkr")
#: Set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: Static workloads: the seed orders query groups within blocks of this
#: many.
ORDER_BLOCK = 8
#: durable-mixed: open-loop write rate.
WRITE_RATE = 20.0
#: durable-mixed: write mix (op, share).  Deletes offset most weight
#: inserts so |W|, and with it read cost, stays level through a run.
WRITE_MIX = (("insert_weight", 0.5), ("delete_weight", 0.3),
             ("insert_product", 0.1), ("delete_product", 0.1))
#: durable-mixed shape guard: seals and compactions per measured window.
MIN_SEALS, MIN_COMPACTIONS = 3, 1
#: durable-mixed shape guard: the writer may never start a write later
#: than this after its due time.
MAX_WRITER_LATE_S = 1.0


@dataclass
class Spec:
    name: str
    dim: int
    n_products: int
    n_weights: int
    serve_flags: List[str]
    #: Seed of the pinned data set and query set.
    data_seed: int
    #: Static: queries of each kind in the set, more than a run answers.
    #: Durable: hot points of each kind.
    per_kind: int
    #: Static: closed-loop connections stepping in lockstep.
    clients: int = 1
    durable: bool = False


SPECS: Dict[str, Spec] = {
    "static-solo": Spec("static-solo", 4, 1500, 600, [], 1701, 185),
    "static-pair": Spec("static-pair", 6, 2000, 12000,
                        ["--batch-window-ms", "25", "--max-batch", "2"],
                        1702, 200, clients=2),
    # The hot set (2 x 16 points) is far smaller than the default result
    # cache (1024 entries), so repeated reads could hit it.
    "durable-mixed": Spec("durable-mixed", 4, 500, 500,
                          ["--durable", "--storage", "segmented",
                           "--fsync", "always"], 1703, 16, durable=True),
}


@dataclass
class Record:
    """One client operation."""

    rid: str
    kind: str
    status: Optional[int]
    body: bytes
    sent: float
    done: float
    query: Optional[int] = None
    due: Optional[float] = None
    op: Optional[str] = None
    gid: Optional[int] = None
    vector: Optional[list] = None
    measured: bool = True

    @property
    def ok(self) -> bool:
        return self.status is not None and 200 <= self.status < 300


@dataclass
class Outcome:
    """What one run measured and checked."""

    metrics: Dict[str, float]
    attempted: int
    failed: int
    correct: bool
    detail: dict = field(default_factory=dict)


# ----------------------------------------------------------------------
# inputs
# ----------------------------------------------------------------------


def make_data(rng, spec: Spec):
    P = rng.random((spec.n_products, spec.dim))
    W = rng.dirichlet(np.ones(spec.dim), spec.n_weights)
    return P, W / W.sum(axis=1, keepdims=True)


def write_data(directory: Path, P, W) -> None:
    from repro.data import io
    from repro.data.datasets import ProductSet, WeightSet

    directory.mkdir(parents=True)
    io.save_products(directory / "products.rrq", ProductSet(P))
    io.save_weights(directory / "weights.rrq", WeightSet(W))


def query_points(P, rng) -> List[int]:
    """Product indices with fewer than ``K`` dominators, in random order."""
    dominated = np.zeros(P.shape[0], dtype=np.int64)
    for i in range(P.shape[0]):
        dominated[i] = np.count_nonzero(np.all(P < P[i], axis=1))
    return [int(i) for i in rng.permutation(P.shape[0]) if dominated[i] < K]


def query_body(P, index: int, kind: str) -> bytes:
    return json.dumps({"vector": P[index].tolist(), "kind": kind,
                       "k": K}).encode()


# ----------------------------------------------------------------------
# shared pieces
# ----------------------------------------------------------------------


class Run:
    """State of one benchmark run: inputs, server, and records."""

    def __init__(self, spec: Spec, seed: int, seconds: float, trace: bool,
                 work: Path, src: Path):
        self.spec, self.seed, self.seconds = spec, seed, seconds
        self.trace, self.work, self.src = trace, work, src
        data_rng = np.random.default_rng(spec.data_seed)
        self.P, self.W = make_data(data_rng, spec)
        self.data_dir = work / "data"
        write_data(self.data_dir, self.P, self.W)
        self.points = query_points(self.P, data_rng)
        self.rng = np.random.default_rng(seed)
        self.reads: List[Record] = []
        self.writes: List[Record] = []
        self._seq = 0
        self._lock = threading.Lock()
        self.server: Optional[ServerProcess] = None
        self.started: List[ServerProcess] = []
        self.spans_path = work / "spans.json"

    def rid(self) -> str:
        """Next request id.

        In traced runs requests alternate in blocks of four between
        traced (``t``) and untraced (``u``); a block holds both query
        kinds on every workload, so each kind has both flavours.
        """
        with self._lock:
            n = self._seq
            self._seq += 1
        return ("t" if self.trace and (n // 4) % 2 == 0 else "u") + str(n)

    def start_server(self, target: Path, log: Path) -> ServerProcess:
        """Start ``serve`` on a free port and wait until it answers.

        The port is picked before the server binds it, so another process
        may take it first; a server that exits early is started again.
        """
        args = [str(target), *self.spec.serve_flags]
        attempts = 3
        while True:
            server = ServerProcess(self.src, args, log,
                                   spans_out=self.spans_path if self.trace
                                   else None)
            self.started.append(server)
            try:
                server.wait_ready()
                return server
            except RuntimeError:
                attempts -= 1
                if server.proc.poll() is None or not attempts:
                    raise

    def read(self, conn: Connection, index: int, kind: str,
             measured: bool = True) -> Record:
        rid = self.rid()
        status, body, sent, done = conn.post(
            "/query", query_body(self.P, index, kind), rid)
        rec = Record(rid, kind, status, body, sent, done, query=index,
                     measured=measured)
        with self._lock:
            self.reads.append(rec)
        return rec

    def setups(self, one_setup) -> List[float]:
        """Run ``one_setup(i)`` (returns a live server) and time it.

        Untraced runs set up ``SETUP_REPEATS`` times and keep the last
        server; a traced run sets up once (it reports no ``setup_s``).
        """
        times = []
        repeats = 1 if self.trace else SETUP_REPEATS
        for i in range(repeats):
            if self.server is not None:
                self.server.stop()
                self.server = None
            start = time.monotonic()
            self.server = one_setup(i)
            times.append(time.monotonic() - start)
        return times

    def lockstep(self, threads: int, step, seconds: float,
                 steps: int) -> float:
        """Run ``step(thread, n)`` on ``threads`` threads in lockstep.

        Step ``n`` starts on every thread only after every thread finished
        step ``n - 1``; the run stops at the first step boundary after
        ``seconds``, or after ``steps`` steps.  Returns the wall time.
        """
        start = time.monotonic()
        end = start + seconds
        stop = threading.Event()
        errors: List[BaseException] = []
        done = [0]

        def check_time():
            done[0] += 1
            if time.monotonic() >= end or done[0] >= steps:
                stop.set()

        barrier = threading.Barrier(threads, action=check_time)

        def loop(t: int):
            n = 0
            try:
                while not stop.is_set():
                    step(t, n)
                    n += 1
                    barrier.wait(timeout=120)
            except BaseException as exc:  # reported by the caller
                errors.append(exc)
                barrier.abort()

        workers = [threading.Thread(target=loop, args=(t,), daemon=True)
                   for t in range(threads)]
        for w in workers:
            w.start()
        for w in workers:
            w.join()
        if errors:
            raise errors[0]
        return time.monotonic() - start

    def read_metrics(self) -> Tuple[Dict[str, float], Dict[str, int]]:
        """End-to-end read metrics over the measured window, and the
        number of answered queries of each kind behind them."""
        out = {}
        samples = {}
        measured = [r for r in self.reads if r.measured]
        for kind in KINDS:
            lat = [(r.done - r.sent) * 1000.0 for r in measured
                   if r.kind == kind and r.ok]
            samples[kind] = len(lat)
            out[f"{kind}_p50_ms"] = percentile(lat, 0.5) if lat else 0.0
            out[f"{kind}_p90_ms"] = percentile(lat, 0.9) if lat else 0.0
        return out, samples

    def finish(self, metrics, samples, window_s, correct,
               detail) -> Outcome:
        """The run's outcome.  It is correct only when ``correct`` holds,
        no operation failed, and every kind has the samples its p90
        needs."""
        measured = [r for r in self.reads if r.measured]
        answered = sum(r.ok for r in measured)
        metrics["query_per_s"] = answered / window_s if window_s > 0 else 0.0
        records = self.reads + self.writes
        attempted = len(records)
        failed = sum(not r.ok for r in records)
        detail["failed_frac"] = failed_frac(attempted, failed)
        detail["samples"] = {kind: {"n": n, "p90_supported": supports(n, 0.9)}
                             for kind, n in samples.items()}
        enough = all(supports(n, 0.9) for n in samples.values())
        return Outcome(metrics, attempted, failed,
                       bool(correct and failed == 0 and enough), detail)


def _metrics_delta(before: dict, after: dict) -> dict:
    b, a = before["batches"], after["batches"]
    out = {"dispatches": a["total"] - b["total"],
           "coalesced": a["coalesced"] - b["coalesced"],
           "batched_requests": a["batched_requests"]
           - b["batched_requests"]}
    if "storage" in after:
        out["seals"] = (after["storage"]["seals_total"]
                        - before["storage"]["seals_total"])
        out["compactions"] = (after["storage"]["compactions_total"]
                              - before["storage"]["compactions_total"])
    return out


# ----------------------------------------------------------------------
# static workloads
# ----------------------------------------------------------------------


def run_static(run: Run) -> Outcome:
    spec = run.spec
    width = spec.clients
    warm, chosen = run.points[:4], run.points[4:4 + 2 * spec.per_kind]
    if len(chosen) < 2 * spec.per_kind:
        raise RuntimeError("too few query points")
    # The pinned set of each kind in pinned groups of ``width`` (the pairs
    # of static-pair, so every run fuses the same batches).  The seed
    # shuffles the groups only within consecutive blocks, so a run of any
    # seed that ends mid-set has answered nearly the same queries, and
    # runs compare like with like.
    by_kind = []
    for points in (chosen[:spec.per_kind], chosen[spec.per_kind:]):
        groups = [points[i:i + width] for i in range(0, len(points), width)]
        order = [b + j for b in range(0, len(groups), ORDER_BLOCK)
                 for j in run.rng.permutation(
                     min(ORDER_BLOCK, len(groups) - b))]
        by_kind.append([q for j in order for q in groups[j]])
    conns = [None] * width

    def one_setup(i: int) -> ServerProcess:
        index = run.work / f"index-{i}"
        run_cli(run.src, ["build", str(run.data_dir), "--index", str(index)],
                run.work / "build.log")
        server = run.start_server(index, run.work / f"serve-{i}.log")
        for t in range(width):
            conns[t] = Connection(server.port)
        # Warm-up: one RTK and one RKR dispatch shaped like the workload,
        # so lazy index and kernel builds land inside set-up.
        for n, kind in enumerate(KINDS):
            _together(width, lambda t: run.read(
                conns[t], warm[2 * n + t], kind, measured=False))
        return server

    setup_times = run.setups(one_setup)
    server = run.server
    before = server.get_json("/metrics")

    def step(t: int, n: int) -> None:
        run.read(conns[t], by_kind[n % 2][width * (n // 2) + t],
                 KINDS[n % 2])

    window = run.lockstep(width, step, run.seconds,
                          2 * spec.per_kind // width)
    after = server.get_json("/metrics")
    rss = server.peak_rss_mb()
    for c in conns:
        c.close()
    server.stop()
    run.server = None

    delta = _metrics_delta(before, after)
    if width > 1:
        shape_ok = (delta["dispatches"] > 0
                    and delta["coalesced"] == delta["dispatches"])
        shape = "every measured dispatch coalesced two requests"
    else:
        shape_ok = delta["dispatches"] > 0 and delta["coalesced"] == 0
        shape = "no measured dispatch was coalesced"

    # Every answer, warm-ups included, against the exact oracle.
    asked = sorted({r.query for r in run.reads})
    position = {q: j for j, q in enumerate(asked)}
    ranks = static_ranks(run.P, run.W, run.P[asked])
    mismatches = 0
    for rec in run.reads:
        if not rec.ok:
            continue
        expected = encode_answer(rec.kind, K, dict(enumerate(
            ranks[position[rec.query]].tolist())))
        mismatches += expected != rec.body

    metrics, samples = run.read_metrics()
    metrics["setup_s"] = percentile(setup_times, 0.5)
    metrics["server_rss_mb"] = rss
    detail = {"setup_s_samples": setup_times,
              "answers_checked": sum(r.ok for r in run.reads),
              "mismatches": mismatches, "server_delta": delta,
              "shape_guard": {"ok": shape_ok, "rule": shape}}
    outcome = run.finish(metrics, samples, window,
                         mismatches == 0 and shape_ok, detail)
    if run.trace:
        batches = delta["batched_requests"] / delta["dispatches"] \
            if delta["dispatches"] else 0.0
        outcome.metrics = _traced(run, {
            "batch_size_mean": batches,
            "trace_overhead_frac": layers.overhead_frac(
                [r for r in run.reads if r.measured])})
    return outcome


def _together(width: int, fn) -> None:
    """Call ``fn(t)`` for ``t < width`` concurrently and wait for all."""
    if width == 1:
        fn(0)
        return
    threads = [threading.Thread(target=fn, args=(t,), daemon=True)
               for t in range(width)]
    for th in threads:
        th.start()
    for th in threads:
        th.join()


def _traced(run: Run, server_counts: dict) -> Dict[str, float]:
    trace = json.loads(run.spans_path.read_text())
    return layers.layer_metrics(
        trace, [r for r in run.reads if r.measured], run.writes,
        server_counts)


# ----------------------------------------------------------------------
# durable-mixed
# ----------------------------------------------------------------------


def _write_schedule(rng, count: int, dim: int) -> List[tuple]:
    ops = [op for op, _ in WRITE_MIX]
    shares = [share for _, share in WRITE_MIX]
    schedule = []
    for op in rng.choice(len(ops), size=count, p=shares):
        op = ops[op]
        if op == "insert_product":
            schedule.append((op, rng.random(dim).tolist()))
        elif op == "insert_weight":
            w = rng.dirichlet(np.ones(dim))
            schedule.append((op, (w / w.sum()).tolist()))
        else:
            schedule.append((op, float(rng.random())))
    return schedule


def run_durable(run: Run) -> Outcome:
    from repro.data.datasets import ProductSet, WeightSet
    from repro.durability import DurableDynamicRRQ
    from repro.storage import DEFAULT_SEAL_ROWS

    spec = run.spec
    n = spec.per_kind
    hot = [run.points[:n], run.points[n:2 * n]]
    warm = run.points[2 * n:2 * n + 2]
    reader = Connection(0)
    writer = Connection(0)

    # The bootstrap leaves one row short of a seal in the WAL-backed
    # delta (weight inserts and deletes, alternating), so the window's
    # writes seal, and compact, several times.
    prefill_rng = np.random.default_rng([spec.data_seed, 3])
    doomed = prefill_rng.permutation(spec.n_weights).tolist()
    prefill = []
    for n in range(DEFAULT_SEAL_ROWS - 1):
        if n % 2:
            prefill.append(("delete_weight", doomed.pop(), None))
        else:
            w = prefill_rng.dirichlet(np.ones(spec.dim))
            prefill.append(("insert_weight", spec.n_weights + n // 2,
                            (w / w.sum()).tolist()))

    def one_setup(i: int) -> ServerProcess:
        store = run.work / f"durable-{i}"
        engine = DurableDynamicRRQ.bootstrap(
            store, ProductSet(run.P), WeightSet(run.W), fsync="always",
            backend="segmented")
        try:
            for op, gid, vector in prefill:
                if op == "delete_weight":
                    engine.delete_weight(gid)
                elif engine.insert_weight(vector)[0] != gid:
                    raise RuntimeError("unexpected id from the bootstrap")
        finally:
            engine.close()
        server = run.start_server(store, run.work / f"serve-{i}.log")
        reader.close()
        reader.port = writer.port = server.port
        for point, kind in zip(warm, KINDS):
            run.read(reader, point, kind, measured=False)
        return server

    setup_times = run.setups(one_setup)
    server = run.server
    before = server.get_json("/metrics")
    disk0 = server.disk_write_bytes()

    schedule = _write_schedule(np.random.default_rng([run.seed, 2]),
                               int(run.seconds * WRITE_RATE) + 1, spec.dim)
    live = {"product": list(range(spec.n_products)),
            "weight": list(range(spec.n_weights))}
    for op, gid, _ in prefill:
        if op == "delete_weight":
            live["weight"].remove(gid)
        else:
            live["weight"].append(gid)
    start = time.monotonic()
    end = start + run.seconds
    errors: List[BaseException] = []

    def read_loop():
        # Kinds alternate; each pass over a kind's hot points runs in an
        # order set by the seed.
        order = [[], []]
        try:
            for n in itertools.count():
                if time.monotonic() >= end:
                    break
                kind = n % 2
                if not order[kind]:
                    order[kind] = run.rng.permutation(hot[kind]).tolist()
                run.read(reader, order[kind].pop(), KINDS[kind])
        except BaseException as exc:  # reported below
            errors.append(exc)

    def write_loop():
        try:
            for i, (op, arg) in enumerate(schedule):
                due = start + i / WRITE_RATE
                if due >= end:
                    break
                delay = due - time.monotonic()
                if delay > 0:
                    time.sleep(delay)
                action, target = op.split("_")
                if action == "insert":
                    payload = {"type": target, "vector": arg}
                    gid = None
                else:
                    ids = live[target]
                    gid = ids[int(arg * len(ids))]
                    payload = {"type": target, "index": gid}
                rid = run.rid()
                status, body, sent, done = writer.post(
                    f"/{action}", json.dumps(payload).encode(), rid)
                rec = Record(rid, "write", status, body, sent, done,
                             due=due, op=op)
                if rec.ok:
                    if action == "insert":
                        gid = int(json.loads(body)["index"])
                        live[target].append(gid)
                        rec.vector = arg
                    else:
                        live[target].remove(gid)
                rec.gid = gid
                with run._lock:
                    run.writes.append(rec)
        except BaseException as exc:  # reported below
            errors.append(exc)

    threads = [threading.Thread(target=read_loop, daemon=True),
               threading.Thread(target=write_loop, daemon=True)]
    for th in threads:
        th.start()
    for th in threads:
        th.join()
    if errors:
        raise errors[0]
    window = max([r.done for r in run.reads if r.measured] + [end]) - start
    after = server.get_json("/metrics")
    disk = server.disk_write_bytes() - disk0
    rss = server.peak_rss_mb()
    reader.close()
    writer.close()
    server.stop()
    run.server = None

    delta = _metrics_delta(before, after)
    acked = [w for w in run.writes if w.ok]
    lateness = [w.sent - w.due for w in run.writes]
    due_writes = int(np.ceil(run.seconds * WRITE_RATE))
    late_max = max(lateness) if lateness else 0.0
    shape_ok = (delta["seals"] >= MIN_SEALS
                and delta["compactions"] >= MIN_COMPACTIONS
                and delta["coalesced"] == 0
                and len(run.writes) >= due_writes - 1
                and late_max <= MAX_WRITER_LATE_S)

    # Reads: some state between the writes acknowledged before the read
    # was sent and the writes sent before its response arrived.
    oracle = ReplayOracle(run.P, run.W, prefill + [
        (w.op, w.gid, w.vector) for w in acked])
    unknown = [w for w in run.writes if w.status is None]
    done_times = [w.done for w in acked]
    sent_times = [w.sent for w in acked]
    mismatches = 0
    for rec in sorted((r for r in run.reads if r.ok),
                      key=lambda r: (r.measured, r.sent)):
        lo = hi = len(prefill)
        if rec.measured:
            lo += int(np.searchsorted(done_times, rec.sent, side="right"))
            hi += int(np.searchsorted(sent_times, rec.done, side="left"))
        found = check_read(oracle, run.P[rec.query], rec.kind, K, lo,
                           max(lo, hi), rec.body)
        mismatches += found is None

    metrics, samples = run.read_metrics()
    metrics["setup_s"] = percentile(setup_times, 0.5)
    metrics["server_rss_mb"] = rss
    write_lat = [(w.done - w.due) * 1000.0 for w in acked]
    write_figures = {
        "write_p50_ms": percentile(write_lat, 0.5) if write_lat else 0.0,
        "write_p90_ms": percentile(write_lat, 0.9) if write_lat else 0.0,
        "disk_bytes_per_write": disk / len(acked) if acked else 0.0,
        "writer_late_ms_p90": (percentile(lateness, 0.9) * 1000.0
                               if lateness else 0.0),
    }
    detail = {"setup_s_samples": setup_times,
              "answers_checked": sum(r.ok for r in run.reads),
              "mismatches": mismatches, "server_delta": delta,
              "writes": {"sent": len(run.writes), "acked": len(acked),
                         "due": due_writes, "unknown": len(unknown),
                         "late_max_ms": late_max * 1000.0,
                         **write_figures},
              "shape_guard": {"ok": shape_ok, "rule": (
                  f">= {MIN_SEALS} seals, >= {MIN_COMPACTIONS} compaction, "
                  "no coalesced read, writer on schedule")}}
    outcome = run.finish(metrics, samples, window,
                         mismatches == 0 and shape_ok and not unknown,
                         detail)
    if run.trace:
        batches = delta["batched_requests"] / delta["dispatches"] \
            if delta["dispatches"] else 0.0
        outcome.metrics = _traced(run, {
            "batch_size_mean": batches,
            "trace_overhead_frac": layers.overhead_frac(
                [r for r in run.reads if r.measured]),
            **write_figures})
    return outcome


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 work: Path, src: Path) -> Outcome:
    run = Run(SPECS[name], seed, seconds, trace, work, src)
    try:
        if SPECS[name].durable:
            return run_durable(run)
        return run_static(run)
    finally:
        for server in run.started:
            server.stop()
