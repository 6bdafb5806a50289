"""The benchmark's output checks fail when their output is corrupted.

    python3 -m pytest -q hisbench/test_checks.py

Each test feeds a check a good output (it must pass) and corrupted
copies (each must fail).  No model runs, so this takes a second.
"""

from __future__ import annotations

import copy
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import eval_walk  # noqa: E402
import predict  # noqa: E402
import run  # noqa: E402
import train_step  # noqa: E402
from layers import LayerTracer  # noqa: E402
from record import Checks, percentile  # noqa: E402


def outcome(fn, *args) -> bool:
    checks = Checks()
    fn(checks, *args)
    return checks.failed == 0


# ----------------------------------------------------------------------
# train_step
GOOD_LOSSES = [4.4, 4.2, 4.1, 4.0, 3.9]


def test_train_losses_pass():
    assert outcome(train_step.check_losses, GOOD_LOSSES, GOOD_LOSSES[:3], list(GOOD_LOSSES[:3]))


def test_train_nonfinite_loss_fails():
    bad = GOOD_LOSSES[:2] + [float("nan")] + GOOD_LOSSES[3:]
    assert not outcome(train_step.check_losses, bad, GOOD_LOSSES[:3], GOOD_LOSSES[:3])


def test_train_divergent_fresh_trainer_fails():
    again = list(GOOD_LOSSES[:3])
    again[2] = np.nextafter(again[2], 0.0)  # one ulp apart
    assert not outcome(train_step.check_losses, GOOD_LOSSES, GOOD_LOSSES[:3], again)


# ----------------------------------------------------------------------
# eval_walk
def walk_outputs():
    ranks = np.array([1, 5, 2, 7, 3, 1], dtype=np.int64)
    steps = [(0, slice(0, 2)), (1, slice(2, 4)), (2, slice(4, 6))]
    results = [SimpleNamespace(ranks=ranks.copy(), mrr=float((1.0 / ranks).mean())) for _ in range(2)]
    return results, steps, {1: ranks[2:4].copy()}


def test_eval_walk_passes():
    results, steps, rescored = walk_outputs()
    assert outcome(eval_walk.check_walks, results, 7, steps, rescored)


@pytest.mark.parametrize("bad_rank", [0, 8])
def test_eval_rank_out_of_range_fails(bad_rank):
    results, steps, rescored = walk_outputs()
    results[1].ranks[0] = bad_rank
    assert not outcome(eval_walk.check_walks, results, 7, steps, rescored)


def test_eval_walks_disagree_fails():
    results, steps, rescored = walk_outputs()
    results[1].ranks[5] = 2
    results[1].mrr = float((1.0 / results[1].ranks).mean())
    assert not outcome(eval_walk.check_walks, results, 7, steps, rescored)


def test_eval_rescore_mismatch_fails():
    results, steps, rescored = walk_outputs()
    rescored[1][0] += 1
    assert not outcome(eval_walk.check_walks, results, 7, steps, rescored)


# ----------------------------------------------------------------------
# predict_*
PAIR = (3, 1, False)


def good_reply():
    return {
        "subject": 3,
        "relation": 1,
        "inverse": False,
        "predictions": [
            {"entity": e, "score": 10.0 - i, "rank": i + 1}
            for i, e in enumerate([4, 9, 0, 11, 7, 2, 5, 8, 1, 6])
        ],
    }


def corrupt(mutate):
    reply = copy.deepcopy(good_reply())
    mutate(reply)
    return reply


CORRUPTIONS = {
    "missing_row": lambda r: r["predictions"].pop(),
    "rank_gap": lambda r: r["predictions"][3].update(rank=5),
    "duplicate_id": lambda r: r["predictions"][4].update(entity=4),
    "id_out_of_range": lambda r: r["predictions"][0].update(entity=12),
    "negative_id": lambda r: r["predictions"][0].update(entity=-1),
    "nan_score": lambda r: r["predictions"][2].update(score=float("nan")),
    "increasing_score": lambda r: r["predictions"][6].update(score=100.0),
    "other_query": lambda r: r.update(inverse=True),
}


def test_reply_passes():
    assert predict.check_reply(good_reply(), PAIR, 12) is None
    assert outcome(predict.check_replies, "p", [(PAIR, good_reply())], 12)


@pytest.mark.parametrize("name", sorted(CORRUPTIONS))
def test_corrupt_reply_fails(name):
    reply = corrupt(CORRUPTIONS[name])
    assert predict.check_reply(reply, PAIR, 12) is not None
    assert not outcome(predict.check_replies, "p", [(PAIR, good_reply()), (PAIR, reply)], 12)


def test_missing_reply_fails():
    assert not outcome(predict.check_replies, "p", [(PAIR, None)], 12)


def test_recomputed_ids_must_match():
    sent = [(PAIR, good_reply())]
    ids = [row["entity"] for row in good_reply()["predictions"]]
    assert outcome(predict.check_recomputed, "p", {0: ids}, sent)
    swapped = ids[:]
    swapped[0], swapped[1] = swapped[1], swapped[0]
    assert not outcome(predict.check_recomputed, "p", {0: swapped}, sent)
    assert not outcome(predict.check_recomputed, "p", {}, sent)


# ----------------------------------------------------------------------
# traced pass
def test_coverage_gate():
    assert outcome(run.check_coverage, 0.95)
    assert not outcome(run.check_coverage, 0.85)


def test_self_times_partition_nested_spans():
    tracer = LayerTracer()

    def inner():
        return sum(range(20000))

    traced_inner = tracer.wrap("inner", inner)
    outer = tracer.wrap("outer", lambda: [traced_inner() for _ in range(3)])
    outer()
    snap = tracer.snapshot()
    assert snap["inner"]["calls"] == 3 and snap["outer"]["calls"] == 1
    total = snap["outer"]["self_s"] + snap["inner"]["self_s"]
    assert total == pytest.approx(snap["outer"]["root_s"], rel=1e-9)
    assert snap["inner"]["root_s"] == 0.0


def test_percentile_counts_failures_as_slowest():
    assert percentile([1.0, 2.0, 3.0], 50) == 2.0
    assert percentile([1.0, 2.0, float("inf")], 90) == float("inf")
