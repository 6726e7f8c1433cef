"""Run validity: a run without the samples its p90 needs is not correct.

Run with ``python3 -m pytest e2ebench/tests -q`` from the repository root.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "e2ebench"))
sys.path.insert(0, str(ROOT / "src"))

from workloads import Record, Run  # noqa: E402


def _run(per_kind: int) -> Run:
    """A run that answered ``per_kind`` queries of each kind, 10 ms each."""
    run = Run.__new__(Run)
    run.reads = [Record(f"u{n}", kind, 200, b"{}", n * 0.01, n * 0.01 + 0.01)
                 for n in range(per_kind) for kind in ("rtk", "rkr")]
    run.writes = []
    return run


def _finish(run: Run):
    metrics, samples = run.read_metrics()
    return run.finish(metrics, samples, 30.0, True, {})


def test_run_with_enough_samples_is_correct():
    outcome = _finish(_run(100))
    assert outcome.correct
    assert outcome.detail["samples"]["rtk"] == {"n": 100,
                                                "p90_supported": True}


def test_run_short_of_p90_samples_is_not_correct():
    outcome = _finish(_run(99))
    assert not outcome.correct
    assert outcome.detail["samples"]["rkr"]["p90_supported"] is False
    # The figures are still reported; only the run's validity changes.
    assert outcome.metrics["rtk_p90_ms"] > 0


def test_one_kind_short_is_enough_to_fail():
    run = _run(120)
    run.reads = [r for r in run.reads
                 if r.kind == "rtk" or int(r.rid[1:]) < 60]
    assert not _finish(run).correct


def test_failed_request_makes_the_run_incorrect():
    run = _run(120)
    run.reads[0].status = None
    outcome = _finish(run)
    assert not outcome.correct
    assert outcome.failed == 1
    assert outcome.detail["failed_frac"] == 1 / 240
