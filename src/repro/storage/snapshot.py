"""Pinned snapshots — isolated, mergeable read views of the store.

A :class:`StoreSnapshot` is everything one reader (a query, or a whole
micro-batch) needs, captured atomically under the store lock: the
segment list at pin time, a frozen view of the delta, and the union of
the manifest and delta dead sets.  After the pin the reader never takes
a lock again — writers keep appending, the sealer keeps sealing, the
compactor keeps flipping manifests, and none of it is visible here.
Refcounts (:meth:`release`) are what let the store retire superseded
segment files without yanking them from under a long scan.

Query execution is a deterministic merge, proven byte-identical to
``NaiveRRQ`` over the snapshot's live rows by the property suite:

* the rank of ``q`` under one weight is the **sum** of per-segment
  GInTop-k ranks (products are partitioned across segments, so the
  per-segment counts are disjoint) plus an exact scan of the delta,
  with the remaining abort budget threaded through so early
  termination fires exactly when the merged rank hits the limit;
* RTK unions qualifying weight ids; RKR keeps the k lexicographically
  smallest ``(rank, id)`` pairs — same tie-break as the serial engines
  and ``repro.cluster.coordinator`` (smaller id wins on equal rank),
  which iterating weights in ascending global id makes automatic;
* the Domin optimization stays sound because a snapshot's rows never
  change: per-segment Domin buffers accumulate across the weights of
  one query, and the global early-exit fires once the summed Domin
  sizes (segments + delta) reach ``k``.

A weight outside a segment's quantizer span (see
``storage.segment``) degrades that one (segment, weight) pair to an
exact scan — identical answers, no grid speedup.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..algorithms.base import duplicate_mask
from ..core.gin import ABORTED, gin_topk
from ..core.ties import count_strictly_better, tie_tolerance
from ..data.datasets import check_query_point
from ..errors import InvalidParameterError
from ..queries.types import RKRResult, RTKResult, make_rkr_result
from ..stats.counters import OpCounter
from .segment import Segment


def _dead_mask(ids: np.ndarray, dead: frozenset) -> np.ndarray:
    if not dead or not ids.size:
        return np.zeros(ids.shape[0], dtype=bool)
    return np.isin(ids, np.fromiter(dead, dtype=np.int64, count=len(dead)))


class StoreSnapshot:
    """One pinned, immutable view of the segment store.

    Built by ``SegmentStore.pin()`` — never directly.  Release with
    :meth:`release` (or use as a context manager) so retired segments
    can drop their files.
    """

    def __init__(self, store, segments: Sequence[Segment], delta_view: dict,
                 dead_products: frozenset, dead_weights: frozenset,
                 next_pid: int, next_wid: int, generation: int, lsn: int,
                 dim: int, value_range: float, chunk: int,
                 manifest_generation: int):
        self._store = store
        self.segments: Tuple[Segment, ...] = tuple(segments)
        self._delta = delta_view
        self.dead_products = dead_products
        self.dead_weights = dead_weights
        self.next_pid = int(next_pid)
        self.next_wid = int(next_wid)
        #: Store mutation generation at pin time (cache keys).
        self.generation = int(generation)
        #: Manifest barrier LSN at pin time.
        self.lsn = int(lsn)
        #: Committed manifest generation at pin time.  Unlike
        #: ``generation`` it survives a restart, so together with ``lsn``
        #: it names a sealed state persistently (kernel cache keys).
        self.manifest_generation = int(manifest_generation)
        self.dim = int(dim)
        self.value_range = float(value_range)
        self.chunk = int(chunk)
        self._released = False
        self._p_dead_masks: Dict[int, np.ndarray] = {}
        self._w_dead_masks: Dict[int, np.ndarray] = {}
        self._counts: Optional[Tuple[int, int]] = None

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def release(self) -> None:
        """Drop the pin (idempotent); lets retired segments retire."""
        if not self._released:
            self._released = True
            self._store._release_pins(self.segments)

    def __enter__(self) -> "StoreSnapshot":
        return self

    def __exit__(self, *exc_info) -> None:
        self.release()

    def __del__(self):  # pragma: no cover - GC safety net
        try:
            self.release()
        except BaseException:
            pass

    # ------------------------------------------------------------------
    # live-state accessors
    # ------------------------------------------------------------------

    def _segment_dead_p(self, i: int) -> np.ndarray:
        mask = self._p_dead_masks.get(i)
        if mask is None:
            mask = _dead_mask(self.segments[i].p_ids, self.dead_products)
            self._p_dead_masks[i] = mask
        return mask

    def _segment_dead_w(self, i: int) -> np.ndarray:
        mask = self._w_dead_masks.get(i)
        if mask is None:
            mask = _dead_mask(self.segments[i].w_ids, self.dead_weights)
            self._w_dead_masks[i] = mask
        return mask

    def _delta_live(self, kind: str) -> Tuple[np.ndarray, np.ndarray]:
        rows = self._delta[f"{kind[0]}_rows"]
        ids = self._delta[f"{kind[0]}_ids"]
        dead = (self.dead_products if kind == "products"
                else self.dead_weights)
        keep = ~_dead_mask(ids, dead)
        return rows[keep], ids[keep]

    @property
    def num_products(self) -> int:
        if self._counts is None:
            live_p = sum(s.n_products - int(self._segment_dead_p(i).sum())
                         for i, s in enumerate(self.segments))
            live_w = sum(s.n_weights - int(self._segment_dead_w(i).sum())
                         for i, s in enumerate(self.segments))
            dp, _ = self._delta_live("products")
            dw, _ = self._delta_live("weights")
            self._counts = (live_p + dp.shape[0], live_w + dw.shape[0])
        return self._counts[0]

    @property
    def num_weights(self) -> int:
        self.num_products  # populate the cached pair
        return self._counts[1]

    @property
    def delta_empty(self) -> bool:
        """True when the snapshot is exactly its committed manifest state."""
        d = self._delta
        return not (d["p_ids"].size or d["w_ids"].size
                    or d["dead_products"] or d["dead_weights"])

    def live_products(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(rows, global ids)`` of every live product, ascending by id."""
        blocks, id_blocks = [], []
        for i, seg in enumerate(self.segments):
            keep = ~self._segment_dead_p(i)
            blocks.append(seg.p_rows[keep])
            id_blocks.append(seg.p_ids[keep])
        rows, ids = self._delta_live("products")
        blocks.append(rows)
        id_blocks.append(ids)
        out_rows = (np.concatenate(blocks) if blocks
                    else np.empty((0, self.dim)))
        out_ids = (np.concatenate(id_blocks) if id_blocks
                   else np.empty(0, dtype=np.int64))
        return out_rows, out_ids

    def live_weights(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(rows, global ids)`` of every live weight, ascending by id."""
        blocks, id_blocks = [], []
        for i, seg in enumerate(self.segments):
            keep = ~self._segment_dead_w(i)
            blocks.append(seg.w_rows[keep])
            id_blocks.append(seg.w_ids[keep])
        rows, ids = self._delta_live("weights")
        blocks.append(rows)
        id_blocks.append(ids)
        out_rows = (np.concatenate(blocks) if blocks
                    else np.empty((0, self.dim)))
        out_ids = (np.concatenate(id_blocks) if id_blocks
                   else np.empty(0, dtype=np.int64))
        return out_rows, out_ids

    # ------------------------------------------------------------------
    # merged query execution
    # ------------------------------------------------------------------

    def _check(self, q, k: int) -> np.ndarray:
        if k <= 0:
            raise InvalidParameterError("k must be positive")
        if self.num_products == 0 or self.num_weights == 0:
            raise InvalidParameterError(
                "both products and weights must be non-empty to query"
            )
        return check_query_point(q, self.dim)

    def _query_state(self, q: np.ndarray) -> dict:
        contexts = [
            (seg, seg.make_context(q, self._segment_dead_p(i)))
            for i, seg in enumerate(self.segments)
        ]
        rows, _ = self._delta_live("products")
        if rows.shape[0]:
            rows = rows[~duplicate_mask(rows, q)]
        delta_domin = (int(np.all(rows < q, axis=1).sum())
                       if rows.shape[0] else 0)
        return {"contexts": contexts, "delta_rows": rows,
                "delta_domin": delta_domin}

    def _total_domin(self, state: dict) -> int:
        return (sum(ctx.domin_count for _, ctx in state["contexts"])
                + state["delta_domin"])

    def _rank_under(self, state: dict, w: np.ndarray, q: np.ndarray,
                    limit: float, counter: OpCounter) -> int:
        """Merged rank of ``q`` under ``w``; ABORTED once it hits ``limit``."""
        acc = 0
        fq = None
        for seg, ctx in state["contexts"]:
            codes = seg.weight_codes(w)
            if codes is not None:
                rnk = gin_topk(ctx, w, codes, limit - acc, counter)
                if rnk == ABORTED:
                    return ABORTED
                acc += rnk
            else:
                # Out-of-span weight: exact scan of this segment's live,
                # non-duplicate rows (identical count, no grid pruning).
                live = ~ctx.skip
                rows = seg.p_rows[live]
                if fq is None:
                    fq = float(np.dot(w, q))
                if rows.shape[0]:
                    counter.pairwise += rows.shape[0]
                    counter.points_accessed += rows.shape[0]
                    counter.refined += rows.shape[0]
                    scores = rows @ w
                    acc += count_strictly_better(scores, rows, w, q, fq,
                                                 tie_tolerance(fq))
                if acc >= limit:
                    counter.early_terminations += 1
                    return ABORTED
        rows = state["delta_rows"]
        if rows.shape[0]:
            if fq is None:
                fq = float(np.dot(w, q))
            counter.pairwise += rows.shape[0]
            counter.points_accessed += rows.shape[0]
            counter.refined += rows.shape[0]
            scores = rows @ w
            acc += count_strictly_better(scores, rows, w, q, fq,
                                         tie_tolerance(fq))
        if acc >= limit:
            counter.early_terminations += 1
            return ABORTED
        return acc

    def _iter_live_weights(self):
        """Yield ``(global id, row)`` for every live weight, ascending.

        Segment id ranges are disjoint and ascending by construction
        (seals assign monotone ids; compaction only merges adjacent
        runs), and the delta's ids exceed every sealed id — so source
        order *is* global-id order.
        """
        for i, seg in enumerate(self.segments):
            keep = ~self._segment_dead_w(i)
            for j in np.flatnonzero(keep):
                yield int(seg.w_ids[j]), seg.w_rows[j]
        rows, ids = self._delta_live("weights")
        for j in range(rows.shape[0]):
            yield int(ids[j]), rows[j]

    def reverse_topk(self, q, k: int,
                     counter: Optional[OpCounter] = None) -> RTKResult:
        """Reverse top-k over the pinned live rows (global ids)."""
        q_arr = self._check(q, k)
        counter = counter or OpCounter()
        state = self._query_state(q_arr)
        result: List[int] = []
        for gid, w in self._iter_live_weights():
            rnk = self._rank_under(state, w, q_arr, k, counter)
            if rnk != ABORTED:
                result.append(gid)
            if self._total_domin(state) >= k:
                return RTKResult(weights=frozenset(), k=k, counter=counter)
        return RTKResult(weights=frozenset(result), k=k, counter=counter)

    def reverse_kranks(self, q, k: int,
                       counter: Optional[OpCounter] = None) -> RKRResult:
        """Reverse k-ranks over the pinned live rows (global ids)."""
        q_arr = self._check(q, k)
        counter = counter or OpCounter()
        state = self._query_state(q_arr)
        heap: List[Tuple[int, int]] = []
        for gid, w in self._iter_live_weights():
            limit = float("inf") if len(heap) < k else float(-heap[0][0])
            rnk = self._rank_under(state, w, q_arr, limit, counter)
            if rnk == ABORTED:
                continue
            if len(heap) < k:
                heapq.heappush(heap, (-rnk, -gid))
            elif rnk < -heap[0][0]:
                heapq.heapreplace(heap, (-rnk, -gid))
        pairs = [(-nr, -nj) for nr, nj in heap]
        return make_rkr_result(pairs, k, counter)

    # ------------------------------------------------------------------

    def stats(self) -> dict:
        """JSON-ready pin summary (debug endpoints, tests)."""
        return {
            "segments": len(self.segments),
            "generation": self.generation,
            "lsn": self.lsn,
            "live_products": self.num_products,
            "live_weights": self.num_weights,
            "delta_products": int(self._delta["p_ids"].shape[0]),
            "delta_weights": int(self._delta["w_ids"].shape[0]),
            "dead_products": len(self.dead_products),
            "dead_weights": len(self.dead_weights),
        }
