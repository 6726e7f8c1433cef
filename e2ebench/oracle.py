"""Exact answers the benchmark checks every response against.

Ranks come from :func:`repro.vectorized.batch.all_ranks_multi`, the
library's matrix oracle (the engine behind ``BatchOracle``): it computes
``rank(w, q)`` with the library's tie rule, deciding near-ties in exact
arithmetic, and leaves out product rows equal to the query.  It shares no
code path with the Grid-index, the fused kernel or the segment store that
the server answers from.

* :func:`static_ranks` gives ``all_ranks_multi``'s answer for the static
  workloads by binary search over sorted score rows.  ``all_ranks_multi``
  compares every score with every query: 0.31 s per query at
  |P|=2000, |W|=12000 against 0.02 s here (2 vCPUs), which is the
  difference between a 120 s and a 40 s ``static-pair`` run.  Every
  near-tie is still decided by the library's ``count_strictly_better``.
* :class:`ReplayOracle` follows the durable workload's write log and calls
  ``all_ranks_multi`` on each state, so a read can be checked against
  every state it might legitimately have observed.

Answers are encoded exactly as the server encodes them (canonical JSON:
sorted keys, compact separators), so checks compare bytes.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.ties import TIE_REL_TOL, count_strictly_better
from repro.vectorized.batch import all_ranks_multi

#: Weights per chunk of the sorted-score sweep (bounds memory).
_CHUNK = 2048


def canonical(obj) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()


def encode_answer(kind: str, k: int, ranks: Dict[int, int]) -> bytes:
    """The server's byte encoding of an answer, from ``{weight id: rank}``."""
    if kind == "rtk":
        hits = sorted(i for i, r in ranks.items() if r < k)
        return canonical({"kind": "rtk", "k": k, "size": len(hits),
                          "weights": hits})
    best = sorted((r, i) for i, r in ranks.items())[:k]
    return canonical({"kind": "rkr", "k": k,
                      "entries": [[r, i] for r, i in best]})


def static_ranks(P: np.ndarray, W: np.ndarray,
                 Q: np.ndarray) -> np.ndarray:
    """``all_ranks_multi(P, W, Q)``: an ``(len(Q), len(W))`` int64 array.

    Products scoring below a query's near-tie band count; a weight whose
    band holds anything besides rows equal to the query is counted again
    by ``count_strictly_better`` over the other rows.
    """
    P = np.asarray(P, dtype=np.float64)
    W = np.asarray(W, dtype=np.float64)
    Q = np.atleast_2d(np.asarray(Q, dtype=np.float64))
    out = np.empty((Q.shape[0], W.shape[0]), dtype=np.int64)
    live = [~np.all(P == q, axis=1) for q in Q]
    n_dup = [int(P.shape[0] - rows.sum()) for rows in live]
    for start in range(0, W.shape[0], _CHUNK):
        Wc = W[start:start + _CHUNK]
        S = Wc @ P.T
        S.sort(axis=1)
        fq = Wc @ Q.T                      # (chunk, nq)
        tol = TIE_REL_TOL * (1.0 + np.abs(fq))
        lo_gate, hi_gate = fq - tol, fq + tol
        for j, w in enumerate(Wc):
            lo = np.searchsorted(S[j], lo_gate[j], side="left")
            hi = np.searchsorted(S[j], hi_gate[j], side="right")
            out[:, start + j] = lo
            for qi in np.flatnonzero(hi - lo != n_dup):
                rows = P[live[qi]]
                out[qi, start + j] = count_strictly_better(
                    rows @ w, rows, w, Q[qi], float(fq[j, qi]))
    return out


class ReplayOracle:
    """Replays the durable workload's acknowledged writes over its seed data.

    ``products`` / ``weights`` are the bootstrap rows, whose ids are
    ``0..n-1``.  A write is ``(op, id, vector)`` with ``op`` one of
    ``insert_product``, ``insert_weight``, ``delete_product``,
    ``delete_weight``; ``vector`` is ``None`` for deletes.  State ``j`` is
    the seed data with the first ``j`` writes applied.
    """

    def __init__(self, products: np.ndarray, weights: np.ndarray,
                 writes: Sequence[tuple]):
        self.products = {i: np.asarray(v, dtype=np.float64)
                         for i, v in enumerate(products)}
        self.weights = {i: np.asarray(v, dtype=np.float64)
                        for i, v in enumerate(weights)}
        self.writes = list(writes)
        self._applied = 0
        self._states: Dict[int, Tuple[np.ndarray, np.ndarray, List[int]]] = {}
        self._lo = 0

    def _state(self, j: int) -> Tuple[np.ndarray, np.ndarray, List[int]]:
        """``(P, W, weight ids)`` of state ``j``, for ``j >= lo``.

        States are materialized as the replay passes them and kept until
        a later call raises ``lo`` past them.
        """
        while self._applied < j:
            op, gid, vector = self.writes[self._applied]
            if op == "insert_product":
                self.products[gid] = np.asarray(vector, dtype=np.float64)
            elif op == "insert_weight":
                self.weights[gid] = np.asarray(vector, dtype=np.float64)
            elif op == "delete_product":
                del self.products[gid]
            elif op == "delete_weight":
                del self.weights[gid]
            else:
                raise ValueError(f"unknown write op {op!r}")
            self._applied += 1
            if self._applied >= self._lo:
                self._states[self._applied] = self._arrays()
        if j == self._applied and j not in self._states:
            self._states[j] = self._arrays()
        return self._states[j]

    def _arrays(self) -> Tuple[np.ndarray, np.ndarray, List[int]]:
        wids = sorted(self.weights)
        return (np.array(list(self.products.values())),
                np.array([self.weights[i] for i in wids]), wids)

    def candidates(self, q, kind: str, k: int, lo: int, hi: int
                   ) -> List[bytes]:
        """Encoded answers for every state ``lo..hi``.

        Calls must come with non-decreasing ``lo``.
        """
        if lo < self._lo:
            raise ValueError("the replay oracle only moves forward")
        self._lo = lo
        for j in [j for j in self._states if j < lo]:
            del self._states[j]
        q = np.asarray(q, dtype=np.float64)
        answers = []
        for j in range(lo, hi + 1):
            P, W, wids = self._state(j)
            ranks = all_ranks_multi(P, W, q[None, :])[0]
            answers.append(encode_answer(
                kind, k, dict(zip(wids, (int(r) for r in ranks)))))
        return answers


def check_read(oracle: ReplayOracle, q, kind: str, k: int, lo: int,
               hi: int, body: bytes) -> Optional[int]:
    """The state index ``j`` in ``[lo, hi]`` that ``body`` matches, or None."""
    for offset, expected in enumerate(oracle.candidates(q, kind, k, lo, hi)):
        if expected == body:
            return lo + offset
    return None
