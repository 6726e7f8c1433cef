"""Pure arithmetic behind the benchmark's figures.

Everything here is deterministic and side-effect free so the tests in
``e2ebench/tests`` can pin it down: percentiles and the sample-count rule
that says which percentile a sample supports, the failure share, and the
interval arithmetic that turns recorded spans into per-layer self times.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: A percentile is reported only when at least this many samples lie
#: beyond it (p90 therefore needs 100 samples, the median 20).
MIN_TAIL_SAMPLES = 10


def min_samples_for(p: float) -> int:
    """Smallest sample count with ``MIN_TAIL_SAMPLES`` beyond quantile ``p``."""
    if not 0.0 <= p < 1.0:
        raise ValueError("p must be in [0, 1)")
    return math.ceil(MIN_TAIL_SAMPLES / (1.0 - p) - 1e-9)


def supports(n: int, p: float) -> bool:
    """Whether ``n`` samples support reporting quantile ``p``."""
    return n >= min_samples_for(p)


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank quantile ``p`` of ``values`` (no interpolation).

    Raises ``ValueError`` on an empty sample; callers decide separately,
    with :func:`supports`, whether the sample is large enough to report.
    """
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must be in [0, 1]")
    ordered = sorted(values)
    rank = max(1, math.ceil(p * len(ordered)))
    return float(ordered[rank - 1])


def failed_frac(attempted: int, failed: int) -> float:
    """Failed operations over attempted ones (0 when nothing was tried)."""
    if failed < 0 or attempted < 0 or failed > attempted:
        raise ValueError("need 0 <= failed <= attempted")
    return failed / attempted if attempted else 0.0


def median_or_zero(values: Sequence[float]) -> float:
    return percentile(values, 0.5) if values else 0.0


# ----------------------------------------------------------------------
# interval arithmetic for spans
# ----------------------------------------------------------------------

Interval = Tuple[float, float]


def union_length(intervals: Iterable[Interval],
                 clip: Optional[Interval] = None) -> float:
    """Total length covered by ``intervals`` (optionally clipped)."""
    spans = []
    for start, end in intervals:
        if clip is not None:
            start, end = max(start, clip[0]), min(end, clip[1])
        if end > start:
            spans.append((start, end))
    spans.sort()
    covered = 0.0
    cur_start = cur_end = None
    for start, end in spans:
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                covered += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        covered += cur_end - cur_start
    return covered


def self_times(spans: Sequence[dict]) -> Dict[int, float]:
    """Self time of every span: its duration minus what its children cover.

    ``spans`` are dicts with ``id``, ``parent`` (an id or ``None``),
    ``start`` and ``end``.  Children are clipped to the parent's
    interval, and overlapping children are counted once.
    """
    children: Dict[int, List[Interval]] = {}
    for sp in spans:
        if sp.get("parent") is not None:
            children.setdefault(sp["parent"], []).append(
                (sp["start"], sp["end"]))
    out = {}
    for sp in spans:
        own = (sp["start"], sp["end"])
        covered = union_length(children.get(sp["id"], ()), clip=own)
        out[sp["id"]] = max(0.0, own[1] - own[0] - covered)
    return out


def unattributed_share(client: Sequence[Interval],
                       covered_by: Sequence[Sequence[Interval]]) -> float:
    """Share of client time that no server span covers.

    ``client[i]`` is request ``i``'s send-to-last-byte interval and
    ``covered_by[i]`` the server spans recorded for that request.
    """
    total = sum(end - start for start, end in client)
    if total <= 0:
        return 0.0
    covered = sum(union_length(spans, clip=iv)
                  for iv, spans in zip(client, covered_by))
    return max(0.0, total - covered) / total
