"""The answer checks: the answer encoding and the replay oracle against
the library's engines and the segment store.

Run with ``python3 -m pytest e2ebench/tests -q`` from the repository root.
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "e2ebench"))
sys.path.insert(0, str(ROOT / "src"))

from oracle import (ReplayOracle, check_read, encode_answer,  # noqa: E402
                    static_ranks)
from repro.algorithms.naive import NaiveRRQ  # noqa: E402
from repro.data.datasets import ProductSet, WeightSet  # noqa: E402
from repro.service.server import canonical_json, encode_result  # noqa: E402
from repro.storage import SegmentStore  # noqa: E402
from repro.vectorized.batch import all_ranks_multi  # noqa: E402

K = 10


def _data(seed, n_p=200, n_w=300, dim=4):
    rng = np.random.default_rng(seed)
    P = rng.random((n_p, dim))
    W = rng.dirichlet(np.ones(dim), n_w)
    return P, W / W.sum(axis=1, keepdims=True)


def _server_bytes(engine, q, kind):
    answer = (engine.reverse_topk if kind == "rtk"
              else engine.reverse_kranks)(q, K)
    return canonical_json(encode_result(answer, kind))


def test_static_oracle_matches_naive_byte_for_byte():
    P, W = _data(1)
    P[5] = P[9]                      # a duplicate of a query point
    P[17, 0] = P[3, 0]               # an exact coordinate tie
    Q = P[[3, 5, 9, 17, 40]]
    ranks = static_ranks(P, W, Q)
    assert (ranks == all_ranks_multi(P, W, Q)).all()
    naive = NaiveRRQ(ProductSet(P), WeightSet(W))
    for row, q in zip(ranks, Q):
        for kind in ("rtk", "rkr"):
            got = encode_answer(kind, K, dict(enumerate(row.tolist())))
            assert got == _server_bytes(naive, q, kind)


def test_static_oracle_decides_exact_ties():
    # f_w(p) == f_w(q) exactly for w = (0.5, 0.5): p is not strictly better.
    P = np.array([[0.25, 0.75], [0.75, 0.25], [0.1, 0.1], [0.25, 0.75]])
    W = np.array([[0.5, 0.5], [1.0, 0.0]])
    assert static_ranks(P, W, P[:1])[0].tolist() == [1, 1]
    assert all_ranks_multi(P, W, P[:1])[0].tolist() == [1, 1]


def test_altered_expected_answer_fails_the_check():
    P, W = _data(2)
    q = P[11]
    ranks = dict(enumerate(static_ranks(P, W, q[None, :])[0].tolist()))
    body = _server_bytes(NaiveRRQ(ProductSet(P), WeightSet(W)), q, "rkr")
    assert encode_answer("rkr", K, ranks) == body
    worst = max(ranks, key=ranks.get)
    best = min(ranks, key=ranks.get)
    altered = dict(ranks)
    altered[worst], altered[best] = ranks[best], ranks[worst]
    assert encode_answer("rkr", K, altered) != body


def _store(P, W):
    store = SegmentStore(dim=P.shape[1])
    store.load_state_arrays(P, np.ones(len(P), bool), W,
                            np.ones(len(W), bool))
    return store


def _writes(store, rng, n, dim):
    """Apply ``n`` random writes to ``store``; return them oracle-shaped."""
    log = []
    for _ in range(n):
        op = rng.choice(["insert_weight", "delete_weight", "insert_product",
                         "delete_product"])
        if op == "insert_weight":
            w = rng.dirichlet(np.ones(dim))
            w = w / w.sum()
            log.append((op, store.insert_weight(w), w.tolist()))
        elif op == "insert_product":
            p = rng.random(dim)
            log.append((op, store.insert_product(p), p.tolist()))
        else:
            view = store.products if op == "delete_product" else store.weights
            gid = int(rng.choice(view.live_indices()))
            (store.remove_product if op == "delete_product"
             else store.remove_weight)(gid)
            log.append((op, gid, None))
    return log


def test_replay_oracle_follows_the_segment_store():
    dim = 4
    P, W = _data(3, n_p=150, n_w=200, dim=dim)
    rng = np.random.default_rng(4)
    store = _store(P, W)
    q = P[7]
    states = [{kind: _server_bytes(store, q, kind) for kind in ("rtk", "rkr")}]
    log = []
    for _ in range(12):
        log += _writes(store, rng, 3, dim)
        states.append({kind: _server_bytes(store, q, kind)
                       for kind in ("rtk", "rkr")})
    oracle = ReplayOracle(P, W, log)
    for step, expected in enumerate(states):
        j = 3 * step
        for kind in ("rtk", "rkr"):
            assert oracle.candidates(q, kind, K, j, j)[0] == expected[kind]
    # A read may match any state in its window.
    oracle = ReplayOracle(P, W, log)
    found = check_read(oracle, q, "rkr", K, 3, 9, states[2]["rkr"])
    assert found is not None and 3 <= found <= 9


def test_replay_check_window_and_altered_answer():
    P, W = _data(5, n_p=120, n_w=150)
    store = _store(P, W)
    q = P[2]
    before = _server_bytes(store, q, "rkr")
    # A product that beats q under every weight moves every rank by one.
    gid = store.insert_product(q * 0.5)
    log = [("insert_product", gid, (q * 0.5).tolist())]
    after = _server_bytes(store, q, "rkr")
    assert before != after
    assert check_read(ReplayOracle(P, W, log), q, "rkr", K, 0, 1,
                      after) == 1
    assert check_read(ReplayOracle(P, W, log), q, "rkr", K, 0, 1,
                      before) == 0
    # The state before the write is outside the window [1, 1].
    assert check_read(ReplayOracle(P, W, log), q, "rkr", K, 1, 1,
                      before) is None
    answer = json.loads(after)
    answer["entries"][0][0] += 1
    altered = canonical_json(answer)
    assert altered != after
    assert check_read(ReplayOracle(P, W, log), q, "rkr", K, 0, 1,
                      altered) is None


def test_replay_oracle_only_moves_forward():
    P, W = _data(7, n_p=50, n_w=60)
    oracle = ReplayOracle(P, W, [("delete_weight", 0, None),
                                 ("delete_weight", 1, None)])
    oracle.candidates(P[0], "rtk", K, 2, 2)
    with pytest.raises(ValueError):
        oracle.candidates(P[0], "rtk", K, 1, 2)
