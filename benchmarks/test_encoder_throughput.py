"""Encoder throughput of the segment-kernel compute plane.

Two tests, each emitting only its own record (to the run ledger and to
``BENCH_encoder.json``, which keeps the last record written):

1. ``test_encoder_fwd_bwd_throughput``:

   - **Encoder walk** — full HisRES training steps (forward + backward)
     per second over an ``icews14s_small`` timeline walk on the
     ``reduceat`` segment kernels.  At this synthetic scale (~50-edge
     snapshots, 120 entities) the encoder is matmul-bound.
   - **Aggregation kernel block** — the ConvGAT aggregation core
     (segment_softmax + weighted segment_sum, forward + backward) at
     real ICEWS14 scale (20k edges over 7128 entities), where segment
     reductions dominate.  The acceptance bar: the production kernels
     run >= 2x the test-side dense one-hot oracle
     (``tests/nn/segment_oracles.py``) measured in the same run.

2. ``test_sampled_vs_full_encoder_scaling`` — sampled vs full-graph
   encode at 10x ICEWS14's entity count.
"""

import os
import time

import numpy as np

from repro.baselines import build_model
from repro.core import (
    EncoderStateCache,
    ExecutionPlan,
    HisRES,
    HisRESConfig,
    ScopedExecutionPlan,
)
from repro.core.window import WindowBuilder
from repro.data import generate_dataset
from repro.experiments.runner import get_scale
from repro.graphs import NeighborSampler
from repro.nn import Adam
from repro.nn.segment import SegmentLayout, segment_softmax, segment_sum
from repro.nn.tensor import Tensor
from repro.training import TimelineEvaluator, seed_everything
from tests.nn.segment_oracles import segment_kernels

from benchmarks.conftest import emit_bench, print_table

DATASET = "icews14s_small"
BENCH_JSON = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "BENCH_encoder.json"
)


def _walk_steps_per_second(dataset, items, dim):
    """Full HisRES fwd+bwd steps/sec over a (cached) timeline walk."""
    seed_everything(7)
    config = HisRESConfig(
        embedding_dim=dim, history_length=3, decoder_channels=8, dropout=0.0
    )
    model = HisRES(dataset.num_entities, dataset.num_relations, config)
    optimizer = Adam(model.parameters(), lr=1e-3)
    evaluator = TimelineEvaluator(dataset)
    builder = WindowBuilder(
        dataset.num_entities,
        dataset.num_relations,
        history_length=config.history_length,
        use_global=True,
    )

    def one_pass():
        done = 0
        builder.reset()
        for t, quads in items:
            if builder.history_filled:
                queries = evaluator.queries_with_inverse(quads)
                window = builder.window_for(queries, prediction_time=int(t))
                loss = model.loss(window, queries)
                model.zero_grad()
                loss.backward()
                optimizer.step()
                done += 1
            builder.absorb(quads)
        return done

    one_pass()  # warm pass fills the graph/layout caches
    start = time.perf_counter()
    done = one_pass()
    return done / (time.perf_counter() - start)


def _kernel_blocks_per_second(kernels, layout, values, scores, reps):
    """ConvGAT aggregation core fwd+bwd at paper-scale edge counts."""

    def block():
        v = Tensor(values, requires_grad=True)
        s = Tensor(scores, requires_grad=True)
        weights = segment_softmax(s, layout)
        out = segment_sum(v * weights.reshape(-1, 1), layout)
        (out * out).sum().backward()

    with segment_kernels(kernels):
        block()  # warm
        start = time.perf_counter()
        for _ in range(reps):
            block()
        return reps / (time.perf_counter() - start)


def test_encoder_fwd_bwd_throughput(benchmark):
    scale = get_scale()
    smoke = scale.name == "smoke"
    num_steps = 6 if smoke else 16
    num_edges, num_entities = (5000, 2000) if smoke else (20000, 7128)

    def run():
        dataset = generate_dataset(DATASET)
        items = sorted(dataset.train.facts_by_time().items())[:num_steps]
        walk = _walk_steps_per_second(dataset, items, scale.dim)

        rng = np.random.default_rng(14)
        layout = SegmentLayout(rng.integers(0, num_entities, num_edges), num_entities)
        values = rng.normal(size=(num_edges, scale.dim))
        scores = rng.normal(size=num_edges)
        kernel = _kernel_blocks_per_second("fused", layout, values, scores, reps=8)
        dense = _kernel_blocks_per_second("dense", layout, values, scores, reps=2)
        return walk, kernel, dense

    walk, kernel, dense = benchmark.pedantic(run, rounds=1, iterations=1)
    speedup = kernel / max(dense, 1e-9)

    print_table(
        "Extension: HisRES encoder throughput (walk: icews14s_small; "
        "kernel: ICEWS14-scale aggregation)",
        [
            {
                "walk_steps_s": walk,
                "kernel_blk_s": kernel,
                "dense_oracle_blk_s": dense,
                "kernel_speedup": speedup,
            }
        ],
        columns=("walk_steps_s", "kernel_blk_s", "dense_oracle_blk_s", "kernel_speedup"),
    )

    emit_bench(
        "encoder_throughput",
        {
            "walk_steps_per_second": round(walk, 3),
            "kernel_blocks_per_second": round(kernel, 3),
            "dense_oracle_blocks_per_second": round(dense, 3),
            "kernel_speedup_vs_dense": round(speedup, 3),
        },
        json_path=BENCH_JSON,
        dataset=DATASET,
        seed=7,
        config={
            "scale": scale.name,
            "dim": scale.dim,
            "walk_timeline_steps": num_steps,
            "kernel_edges": num_edges,
            "kernel_entities": num_entities,
        },
    )

    # acceptance bar: >= 2x over the dense oracle in the same run
    assert speedup >= 2.0, (
        f"segment kernels only {speedup:.2f}x over the dense oracle "
        f"({kernel:.2f} vs {dense:.2f} blocks/s)"
    )


def _scaling_window(num_entities, num_relations, edges_per_snapshot,
                    num_snapshots, batch):
    """Sparse rng graph at large entity scale plus one query batch.

    Synthetic profiles top out at a few hundred entities, so the
    >= 10x-ICEWS14 graph the acceptance bar calls for is built from raw
    rng quads fed straight through a WindowBuilder.
    """
    rng = np.random.default_rng(14)
    builder = WindowBuilder(
        num_entities,
        num_relations,
        history_length=num_snapshots,
        use_global=False,
    )

    def quads(t, rows):
        return np.stack(
            [
                rng.integers(0, num_entities, rows),
                rng.integers(0, num_relations, rows),
                rng.integers(0, num_entities, rows),
                np.full(rows, t, dtype=np.int64),
            ],
            axis=1,
        ).astype(np.int64)

    for t in range(num_snapshots):
        builder.absorb(quads(t, edges_per_snapshot))
    queries = quads(num_snapshots, batch)
    window = builder.window_for(queries, prediction_time=num_snapshots)
    return window, queries


def _cold_scores_seconds(make_plan, window, queries, reps):
    """Best-of-reps wall clock for one cold scoring pass (fresh plan)."""
    best = float("inf")
    for _ in range(reps):
        plan = make_plan()
        start = time.perf_counter()
        plan.entity_scores(window, queries)
        best = min(best, time.perf_counter() - start)
    return best


def test_sampled_vs_full_encoder_scaling(benchmark):
    """Sampled-vs-full wall clock at >= 10x ICEWS14 entity count.

    The scoped plan's pitch is that per-batch encode cost is bounded by
    the query fan-in closure instead of the entity count.  This measures
    the pitch directly: one cold query batch through the full-graph
    plan vs. the sampler-scoped plan on a synthetic graph with 71,280
    entities (10x ICEWS14's 7,128; smoke scale shrinks to 8,000 and
    reports without gating).  Snapshot density matches the real dataset
    scaled 10x (~500 facts per snapshot on ICEWS14 -> ~5,000 here):
    TKG snapshots are extremely sparse, which is exactly why a seeded
    fan-in closure stays small while full-graph encode pays for every
    entity row.  The acceptance bar is a >= 3x wall-clock win, recorded
    in the run ledger via ``emit_bench``.
    """
    scale = get_scale()
    smoke = scale.name == "smoke"
    num_entities = 8_000 if smoke else 71_280
    num_relations = 60 if smoke else 230
    edges_per_snapshot = 600 if smoke else 5_000
    num_snapshots, batch, fanout = 3, 64, "8,4"
    reps = 2 if smoke else 3

    seed_everything(14)
    model = build_model("regcn", num_entities, num_relations, dim=scale.dim)
    window, queries = _scaling_window(
        num_entities, num_relations, edges_per_snapshot, num_snapshots, batch
    )

    def full_plan():
        return ExecutionPlan(model, cache=EncoderStateCache(capacity=4))

    def scoped_plan():
        return ScopedExecutionPlan(
            full_plan(), NeighborSampler(fanout, seed=14, owner="bench-scaling")
        )

    def run():
        # one warm pass compiles the window graphs' segment layouts so
        # both timed paths measure encode/decode math, not layout builds
        full_plan().entity_scores(window, queries[:4])
        full_s = _cold_scores_seconds(full_plan, window, queries, reps)
        scoped_s = _cold_scores_seconds(scoped_plan, window, queries, reps)
        return full_s, scoped_s

    full_s, scoped_s = benchmark.pedantic(run, rounds=1, iterations=1)
    win = full_s / max(scoped_s, 1e-9)

    # closure size for the report: same seeds the scoped plan derives
    probe = NeighborSampler(fanout, seed=14, owner="bench-scaling-probe")
    seeds = np.unique(np.concatenate([queries[:, 0], queries[:, 2]]))
    _, scope = probe.induce(window, seeds)
    closure = int(len(scope.nodes))

    rows = [
        {
            "plan": "full",
            "encode_nodes": num_entities,
            "batch_seconds": round(full_s, 4),
            "win_x": 1.0,
        },
        {
            "plan": f"scoped fanout={fanout}",
            "encode_nodes": closure,
            "batch_seconds": round(scoped_s, 4),
            "win_x": round(win, 2),
        },
    ]
    print_table(
        f"Extension: sampled vs. full encoder at {num_entities} entities "
        f"(regcn, batch={batch}, cold state cache)",
        rows,
        columns=("plan", "encode_nodes", "batch_seconds", "win_x"),
    )

    emit_bench(
        "encoder_sampler_scaling",
        {
            "sampler_full_batch_seconds": round(full_s, 4),
            "sampler_scoped_batch_seconds": round(scoped_s, 4),
            "sampler_win_x": round(win, 2),
            "sampler_closure_nodes": closure,
            "sampler_graph_entities": num_entities,
        },
        json_path=BENCH_JSON,
        dataset=f"synthetic-{num_entities}",
        model="regcn",
        seed=14,
        config={
            "scale": scale.name,
            "dim": scale.dim,
            "fanout": fanout,
            "num_entities": num_entities,
            "num_relations": num_relations,
            "edges_per_snapshot": edges_per_snapshot,
            "snapshots": num_snapshots,
            "batch": batch,
        },
    )

    assert np.isfinite(win) and scoped_s > 0
    if not smoke:
        # acceptance bar: the scoped plan must turn entity-count encode
        # cost into closure-bounded cost — a >= 3x win per cold batch
        assert win >= 3.0, (
            f"scoped plan only {win:.2f}x over the full plan at "
            f"{num_entities} entities ({scoped_s:.3f}s vs {full_s:.3f}s)"
        )
