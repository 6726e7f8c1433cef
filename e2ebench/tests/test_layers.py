"""Per-layer metrics from a hand-built trace.

Run with ``python3 -m pytest e2ebench/tests -q`` from the repository root.
"""

import json
import sys
from dataclasses import dataclass
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from layers import PER_LAYER_UNITS, layer_metrics, overhead_frac  # noqa: E402


@dataclass
class Rec:
    rid: str
    kind: str
    sent: float
    done: float
    ok: bool = True


def _span(i, name, start, end, parent=None, rids=(), thread=1, **attrs):
    return {"id": i, "name": name, "start": start, "end": end,
            "parent": parent, "rids": list(rids), "thread": thread,
            "attrs": attrs}


def test_layer_metrics_from_spans():
    # t0: a lone read.  http 0.0-1.0, service 0.1-0.9, engine 0.2-0.8 on
    # the dispatcher thread after a submit at 0.15.  Client saw 0.0-1.05.
    # t1: a fused pair answered by one kernel call.
    spans = [
        _span(1, "server.http", 0.0, 1.0, rids=["t0"]),
        _span(2, "service.query", 0.1, 0.9, parent=1, rids=["t0"]),
        _span(3, "engine.query", 0.2, 0.8, rids=["t0"], thread=2,
              submitted=[0.15], queries=1),
        _span(4, "server.http", 2.0, 3.0, rids=["t1"]),
        _span(5, "service.query", 2.0, 2.9, parent=4, rids=["t1"]),
        _span(6, "kernel.batch", 2.1, 2.5, rids=["t1", "u2"], thread=2,
              submitted=[2.05, 2.06], queries=2,
              kernel={"stage_s": {"filter": 0.3, "refine": 0.05,
                                  "merge": 0.01},
                      "pairs": {"total": 100, "case1": 60, "case2": 30,
                                "refined": 10}}),
    ]
    reads = [Rec("t0", "rtk", 0.0, 1.05), Rec("t1", "rkr", 2.0, 3.0),
             Rec("u2", "rkr", 2.0, 3.0)]
    trace = {"spans": spans, "counts": {"cache.gets": 4, "cache.hits": 1}}
    m = layer_metrics(trace, reads, [], {"batch_size_mean": 1.5})
    assert set(m) == set(PER_LAYER_UNITS)
    # p50 (nearest rank) of the gaps 0.25 s and 0.1 s.
    assert m["server.http_read_ms"] == pytest.approx(100.0)
    assert m["scheduler.lone_frac"] == pytest.approx(0.5)
    assert m["scheduler.queue_wait_ms_p90"] == pytest.approx(50.0)
    assert m["engine.calls"] == 1 and m["kernel.calls"] == 1
    assert m["engine.query_ms_p50"] == pytest.approx(600.0)
    assert m["kernel.queries_per_call"] == 2
    assert m["kernel.filter_s"] == pytest.approx(0.3)
    assert m["kernel.decided_frac"] == pytest.approx(0.9)
    assert m["kernel.refined_frac"] == pytest.approx(0.1)
    assert m["cache.hit_frac"] == pytest.approx(0.25)
    assert m["scheduler.batch_size_mean"] == 1.5
    # t0: 0.05 of 1.05 uncovered; t1: fully covered.
    assert m["trace.unattributed_frac"] == pytest.approx(0.05 / 2.05)


def test_overhead_frac_compares_kinds_separately():
    reads = [Rec("t0", "rtk", 0, 1.1), Rec("u1", "rtk", 0, 1.0),
             Rec("t2", "rkr", 0, 4.4), Rec("u3", "rkr", 0, 4.0)]
    assert overhead_frac(reads) == pytest.approx(0.1)
    assert overhead_frac(reads[:1]) == 0.0


def test_metric_names_match_benchmark_json():
    from run import END_TO_END_UNITS

    root = Path(__file__).resolve().parents[2]
    spec = json.loads((root / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        PER_LAYER_UNITS
