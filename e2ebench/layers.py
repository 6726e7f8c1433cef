"""Per-layer metrics from a traced run's spans and the client's records.

The traced server (``traced_serve.py``) writes ``{"spans": [...],
"counts": {...}}``.  Spans opened on one thread nest through ``parent``;
spans on the scheduler's dispatcher thread carry the request ids they
answered (``rids``).  Layer times are self times: a span's duration minus
what its own children cover.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Sequence

from benchstats import (median_or_zero, percentile, self_times,
                        unattributed_share)

#: Metric name -> unit, in the order the benchmark reports them.
PER_LAYER_UNITS = {
    "server.http_read_ms": "ms",
    "server.http_write_ms": "ms",
    "cache.hit_frac": "fraction",
    "cache.invalidations_per_write": "count",
    "scheduler.queue_wait_ms_p50": "ms",
    "scheduler.queue_wait_ms_p90": "ms",
    "scheduler.batch_size_mean": "count",
    "scheduler.lone_frac": "fraction",
    "engine.calls": "count",
    "engine.query_ms_p50": "ms",
    "kernel.calls": "count",
    "kernel.queries_per_call": "count",
    "kernel.batch_ms_p50": "ms",
    "kernel.filter_s": "s",
    "kernel.refine_s": "s",
    "kernel.merge_s": "s",
    "kernel.pairs_total": "count",
    "kernel.decided_frac": "fraction",
    "kernel.refined_frac": "fraction",
    "storage.pin_ms_p50": "ms",
    "storage.merge_calls": "count",
    "storage.merge_ms_p50": "ms",
    "storage.kernel_builds": "count",
    "storage.kernel_build_ms_p50": "ms",
    "storage.seals": "count",
    "storage.seal_ms_p90": "ms",
    "storage.compactions": "count",
    "storage.compact_s": "s",
    "durability.write_ms_p50": "ms",
    "durability.write_ms_p90": "ms",
    "durability.wal_append_ms_p50": "ms",
    "durability.wal_bytes_per_write": "bytes",
    "write_p50_ms": "ms",
    "write_p90_ms": "ms",
    "disk_bytes_per_write": "bytes",
    "load.writer_late_ms_p90": "ms",
    "trace.overhead_frac": "fraction",
    "trace.unattributed_frac": "fraction",
}

#: Calls that answer a request, and whether they are the lone path.
_ANSWERING = {"engine.query": True, "storage.merge": True,
              "kernel.query": False, "kernel.batch": False}

#: A pin belongs to the answering call that starts this soon after it.
_PIN_GAP_S = 0.005


def _ms_p(values: Sequence[float], p: float) -> float:
    return percentile(values, p) * 1000.0 if values else 0.0


def layer_metrics(trace: dict, reads: Sequence, writes: Sequence,
                  server_counts: Dict[str, float]) -> Dict[str, float]:
    """Compute every per-layer metric.

    ``reads`` / ``writes`` are the client's records of the measured window
    (objects with ``rid``, ``sent``, ``done``, ``ok``); only traced ones
    (``rid`` starting with ``t``) are matched against spans, and spans of
    other requests, such as warm-ups, are left out.  ``server_counts`` carries what the
    benchmark read from the server itself: ``batch_size_mean`` and, for
    the durable workload, ``write_p50_ms``, ``write_p90_ms``,
    ``disk_bytes_per_write``, ``writer_late_ms_p90`` and
    ``trace_overhead_frac``.
    """
    measured = {rec.rid for rec in list(reads) + list(writes)
                if rec.rid.startswith("t")}
    spans: List[dict] = [
        s for s in trace["spans"] if s["end"] is not None
        and (not s["rids"] or measured.intersection(s["rids"]))]
    counts = trace["counts"]
    selft = self_times(spans)
    by_name: Dict[str, List[dict]] = defaultdict(list)
    by_rid: Dict[str, List[dict]] = defaultdict(list)
    for sp in spans:
        by_name[sp["name"]].append(sp)
        for rid in sp["rids"]:
            if rid is not None:
                by_rid[rid].append(sp)
    # Pins run on the dispatcher thread before the call they serve.
    answering = sorted((s for s in spans if s["name"] in _ANSWERING),
                       key=lambda s: s["start"])
    for pin in by_name["storage.pin"]:
        for sp in answering:
            if sp["thread"] == pin["thread"] and \
                    0 <= sp["start"] - pin["end"] <= _PIN_GAP_S:
                for rid in sp["rids"]:
                    if rid is not None:
                        by_rid[rid].append(pin)
                break

    def dur(sp):
        return sp["end"] - sp["start"]

    def self_ms(name, p):
        return _ms_p([selft[s["id"]] for s in by_name[name]], p)

    out: Dict[str, float] = {}

    # service.server: client latency minus the service call, per request.
    for metric, records, inner in (("server.http_read_ms", reads,
                                    "service.query"),
                                   ("server.http_write_ms", writes,
                                    "service.mutate")):
        gaps = []
        for rec in records:
            if not rec.ok or not rec.rid.startswith("t"):
                continue
            own = [s for s in by_rid.get(rec.rid, ()) if s["name"] == inner]
            if own:
                gaps.append((rec.done - rec.sent) - dur(own[0]))
        out[metric] = _ms_p(gaps, 0.5)

    gets = counts.get("cache.gets", 0)
    out["cache.hit_frac"] = counts.get("cache.hits", 0) / gets if gets else 0.0
    n_writes = counts.get("durability.writes", 0)
    out["cache.invalidations_per_write"] = (
        counts.get("cache.invalidations", 0) / n_writes if n_writes else 0.0)

    waits, lone, answered = [], 0, 0
    for sp in answering:
        for rid, submitted in zip(sp["rids"], sp["attrs"]["submitted"]):
            if rid not in measured:
                continue
            answered += 1
            lone += _ANSWERING[sp["name"]]
            if submitted is not None:
                waits.append(sp["start"] - submitted)
    out["scheduler.queue_wait_ms_p50"] = _ms_p(waits, 0.5)
    out["scheduler.queue_wait_ms_p90"] = _ms_p(waits, 0.9)
    out["scheduler.batch_size_mean"] = server_counts.get("batch_size_mean",
                                                         0.0)
    out["scheduler.lone_frac"] = lone / answered if answered else 0.0

    out["engine.calls"] = len(by_name["engine.query"])
    out["engine.query_ms_p50"] = self_ms("engine.query", 0.5)

    kernel_spans = by_name["kernel.batch"] + by_name["kernel.query"]
    out["kernel.calls"] = len(kernel_spans)
    out["kernel.queries_per_call"] = (
        sum(s["attrs"]["queries"] for s in kernel_spans) / len(kernel_spans)
        if kernel_spans else 0.0)
    out["kernel.batch_ms_p50"] = self_ms("kernel.batch", 0.5)
    stage = defaultdict(float)
    pairs = defaultdict(int)
    for sp in kernel_spans:
        stats = sp["attrs"].get("kernel")
        if stats is None:
            continue
        for key, value in stats["stage_s"].items():
            stage[key] += value
        for key, value in stats["pairs"].items():
            pairs[key] += value
    out["kernel.filter_s"] = stage["filter"]
    out["kernel.refine_s"] = stage["refine"]
    out["kernel.merge_s"] = stage["merge"]
    out["kernel.pairs_total"] = pairs["total"]
    total = pairs["total"]
    out["kernel.decided_frac"] = ((pairs["case1"] + pairs["case2"]) / total
                                  if total else 0.0)
    out["kernel.refined_frac"] = pairs["refined"] / total if total else 0.0

    out["storage.pin_ms_p50"] = self_ms("storage.pin", 0.5)
    out["storage.merge_calls"] = len(by_name["storage.merge"])
    out["storage.merge_ms_p50"] = self_ms("storage.merge", 0.5)
    out["storage.kernel_builds"] = len(by_name["storage.kernel_build"])
    out["storage.kernel_build_ms_p50"] = self_ms("storage.kernel_build", 0.5)
    out["storage.seals"] = len(by_name["storage.seal"])
    out["storage.seal_ms_p90"] = self_ms("storage.seal", 0.9)
    out["storage.compactions"] = len(by_name["storage.compact"])
    out["storage.compact_s"] = sum(dur(s) for s in by_name["storage.compact"])

    out["durability.write_ms_p50"] = self_ms("durability.write", 0.5)
    out["durability.write_ms_p90"] = self_ms("durability.write", 0.9)
    out["durability.wal_append_ms_p50"] = self_ms("durability.wal_append",
                                                  0.5)
    appends = counts.get("durability.wal_appends", 0)
    out["durability.wal_bytes_per_write"] = (
        counts.get("durability.wal_bytes", 0) / appends if appends else 0.0)

    for key in ("write_p50_ms", "write_p90_ms", "disk_bytes_per_write"):
        out[key] = server_counts.get(key, 0.0)
    out["load.writer_late_ms_p90"] = server_counts.get("writer_late_ms_p90",
                                                       0.0)
    out["trace.overhead_frac"] = server_counts.get("trace_overhead_frac", 0.0)

    client, covered = [], []
    for rec in list(reads) + list(writes):
        if rec.ok and rec.rid.startswith("t"):
            client.append((rec.sent, rec.done))
            covered.append([(s["start"], s["end"])
                            for s in by_rid.get(rec.rid, ())])
    out["trace.unattributed_frac"] = unattributed_share(client, covered)
    return {name: float(out[name]) for name in PER_LAYER_UNITS}


def overhead_frac(reads: Sequence) -> float:
    """Traced over untraced read p50, minus one, averaged over the kinds.

    Both flavours come from the same server in the same run.
    """
    ratios = []
    for kind in ("rtk", "rkr"):
        lat = {flag: [r.done - r.sent for r in reads
                      if r.ok and r.kind == kind and r.rid[0] == flag]
               for flag in "tu"}
        if lat["t"] and lat["u"]:
            ratios.append(median_or_zero(lat["t"]) / median_or_zero(lat["u"]))
    return sum(ratios) / len(ratios) - 1.0 if ratios else 0.0
