"""Serving benchmark: single-query latency vs. micro-batched throughput.

Measures the online inference subsystem on a small profile:

- cold single-query latency (every query a distinct (s, r) pair, so the
  prediction cache never hits);
- micro-batched throughput (one ``predict_many`` forward pass scoring
  the same query set);
- cached latency and hit-rate (the same pair re-queried).

Cluster rows: the same file also measures entity-sharded decode
scaling at 1/2/4 workers (``test_cluster_decode_scaling``).  This
container has one CPU core, so wall-clock cannot show parallel gain;
the scaling criterion uses *capacity* throughput — total queries
divided by the busiest worker's decode-busy seconds (the critical
path if shards ran on real cores) — with the honest single-core
sequential wall clock reported alongside.

Emits both the standard aligned table and a JSON report line so the
numbers are machine-readable from ``benchmarks_report.txt``; the final
``BENCH_serving.json`` carries the single-process block and the
cluster scaling block together.
"""

import os
import time

import numpy as np

from repro.baselines import build_model
from repro.data import generate_dataset
from repro.experiments.runner import get_scale
from repro.nn.serialization import save_checkpoint
from repro.obs.metrics import percentile
from repro.serving import InferenceEngine

from benchmarks.conftest import emit_bench, print_table

DATASET = "unit_tiny"
BENCH_JSON = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "BENCH_serving.json"
)

# both tests contribute to one BENCH_serving.json artifact; the later
# emission carries whatever the earlier one stashed here
_PAYLOAD = {}


def _engine(tmp_path, key="hisres", dim=None):
    scale = get_scale()
    dim = dim or scale.dim
    dataset = generate_dataset(DATASET)
    model = build_model(key, dataset.num_entities, dataset.num_relations, dim=dim)
    path = str(tmp_path / f"{key}.npz")
    save_checkpoint(model, path, metadata={
        "model": key,
        "num_entities": dataset.num_entities,
        "num_relations": dataset.num_relations,
        "dim": dim,
        "window": {"history_length": 3, "granularity": 2,
                   "use_global": key == "hisres", "track_vocabulary": False},
    })
    engine = InferenceEngine.from_checkpoint(path, batch_window_s=0.0)
    engine.store.warm_up(dataset.train)
    engine.store.warm_up(dataset.valid)
    return engine, dataset


def test_serving_latency_throughput_cache(benchmark, tmp_path):
    def run():
        rows = []
        payload = {"models": {}}
        for key in ("distmult", "hisres"):
            engine, dataset = _engine(tmp_path, key=key)
            num_queries = 32
            pairs = [(s % dataset.num_entities, r % dataset.num_relations)
                     for s, r in zip(range(num_queries), range(num_queries))]

            # --- cold single-query latency (unique pairs, cache never hits)
            latencies = []
            for s, r in pairs:
                start = time.perf_counter()
                engine.predict(s, r, top_k=10)
                latencies.append(time.perf_counter() - start)
            single_p50_ms = percentile(latencies, 50) * 1e3
            single_qps = num_queries / max(sum(latencies), 1e-9)

            # --- micro-batched throughput (one forward pass, fresh cache keys)
            t = engine.store.current_time + 1
            engine.ingest([[0, 0, 1]], timestamp=t)
            engine.flush()  # rollover: invalidate the cache
            queries = [{"subject": s, "relation": r} for s, r in pairs]
            start = time.perf_counter()
            engine.predict_many(queries, default_top_k=10)
            batched_s = time.perf_counter() - start
            batched_qps = num_queries / max(batched_s, 1e-9)

            # --- cached pass (identical queries, same window version)
            start = time.perf_counter()
            engine.predict_many(queries, default_top_k=10)
            cached_s = time.perf_counter() - start
            hit_rate = engine.cache.hit_rate

            rows.append({
                "model": key,
                "single_p50_ms": single_p50_ms,
                "single_qps": single_qps,
                "batched_qps": batched_qps,
                "speedup": batched_qps / max(single_qps, 1e-9),
                "cached_qps": num_queries / max(cached_s, 1e-9),
                "cache_hit_rate": hit_rate,
            })
            payload["models"][key] = {
                "single_query_p50_ms": round(single_p50_ms, 4),
                "single_query_qps": round(single_qps, 2),
                "microbatched_qps": round(batched_qps, 2),
                "microbatch_speedup": round(batched_qps / max(single_qps, 1e-9), 3),
                "cached_qps": round(num_queries / max(cached_s, 1e-9), 2),
                "cache_hit_rate": round(hit_rate, 4),
                "predict_calls": engine.stats()["predict_calls"],
                "queries": num_queries,
            }
        return rows, payload

    rows, payload = benchmark.pedantic(run, rounds=1, iterations=1)
    print_table(
        "Extension: serving latency / throughput (unit_tiny)",
        rows,
        columns=("model", "single_p50_ms", "single_qps", "batched_qps",
                 "speedup", "cached_qps", "cache_hit_rate"),
    )
    _PAYLOAD["models"] = payload["models"]
    emit_bench(
        "serving_throughput", dict(_PAYLOAD), json_path=BENCH_JSON, dataset=DATASET
    )

    for row in rows:
        # micro-batching must never be slower than one-at-a-time serving,
        # and the cached pass must actually hit the cache
        assert row["batched_qps"] > 0
        assert row["cache_hit_rate"] > 0
    by_model = {r["model"]: r for r in rows}
    assert by_model["hisres"]["speedup"] > 1.0, (
        "batching a GNN forward pass should amortise the shared graph encoding"
    )


def test_cluster_decode_scaling(benchmark):
    """Entity-sharded decode capacity at 1/2/4 workers.

    Uses a vocabulary large enough (16384 entities) that range decode
    dominates the duplicated per-query embedding work, and calls each
    shard's ``partial_topk`` sequentially: ``capacity_qps`` treats the
    busiest shard as the critical path (what N real cores would give),
    ``seq_wall_qps`` is the honest one-core wall clock.
    """
    from repro.core.config import WindowConfig
    from repro.core.execution import merge_topk
    from repro.serving import OnlineHistoryStore, ShardEngine, partition_entities

    num_entities, num_relations, dim = 16384, 12, 16
    num_queries, top_k = 32, 10
    rng = np.random.default_rng(0)
    model = build_model("hisres", num_entities, num_relations, dim=dim)
    store = OnlineHistoryStore(
        num_entities, num_relations,
        window_config=WindowConfig(history_length=3, granularity=1),
    )
    for t in range(6):
        triples = np.stack([
            rng.integers(0, num_entities, 150),
            rng.integers(0, num_relations, 150),
            rng.integers(0, num_entities, 150),
        ], axis=1).astype(np.int64)
        store.ingest(triples, timestamp=t)
    store.flush()
    queries = [
        {"subject": 1 + (i * 37) % (num_entities - 1),
         "relation": i % num_relations, "top_k": top_k}
        for i in range(num_queries)
    ]

    rounds = 10

    def run():
        rows = []
        merged_by_workers = {}
        for num_workers in (1, 2, 4):
            # cache_entries=0 disables the prediction cache so every
            # round re-runs the decode; the encoder state stays cached
            # (the HisRES global graph is query-conditioned, so the
            # warm-up must use the SAME query batch as the measurement)
            engines = [
                ShardEngine(model, store, shard, model_key="hisres",
                            batch_window_s=0.0, cache_entries=0)
                for shard in partition_entities(num_entities, num_workers)
            ]
            for engine in engines:  # encode once, outside the measurement
                engine.partial_topk(queries)
                engine.decode_busy_s = 0.0
            start = time.perf_counter()
            for _ in range(rounds):
                partials = [engine.partial_topk(queries) for engine in engines]
            wall_s = time.perf_counter() - start
            merged_by_workers[num_workers] = [
                merge_topk(
                    [(np.asarray(p[q]["entities"]), np.asarray(p[q]["scores"]))
                     for p in partials],
                    top_k,
                )[0].tolist()
                for q in range(num_queries)
            ]
            total = num_queries * rounds
            busies = [engine.decode_busy_s for engine in engines]
            rows.append({
                "workers": num_workers,
                "capacity_qps": total / max(max(busies), 1e-9),
                "seq_wall_qps": total / max(wall_s, 1e-9),
                "max_busy_ms": max(busies) * 1e3,
                "total_busy_ms": sum(busies) * 1e3,
            })
        return rows, merged_by_workers

    rows, merged = benchmark.pedantic(run, rounds=1, iterations=1)
    print_table(
        "Extension: cluster decode scaling (16384 entities, capacity basis)",
        rows,
        columns=("workers", "capacity_qps", "seq_wall_qps",
                 "max_busy_ms", "total_busy_ms"),
    )
    by_workers = {r["workers"]: r for r in rows}
    _PAYLOAD["cluster_scaling"] = {
        "basis": "capacity: queries / max per-shard decode-busy seconds "
                 "(single-CPU container; see module docstring)",
        "num_entities": num_entities,
        "queries": num_queries,
        "rows": {
            str(w): {
                "capacity_qps": round(r["capacity_qps"], 2),
                "seq_wall_qps": round(r["seq_wall_qps"], 2),
                "max_busy_ms": round(r["max_busy_ms"], 3),
                "total_busy_ms": round(r["total_busy_ms"], 3),
            }
            for w, r in by_workers.items()
        },
        "capacity_speedup_4v1": round(
            by_workers[4]["capacity_qps"] / by_workers[1]["capacity_qps"], 3
        ),
    }
    emit_bench(
        "serving_cluster_scaling", dict(_PAYLOAD), json_path=BENCH_JSON,
        dataset="synthetic-16384", model="hisres",
    )

    # shard-merged top-k must not depend on the shard count
    assert merged[2] == merged[1] and merged[4] == merged[1]
    assert by_workers[4]["capacity_qps"] >= 1.8 * by_workers[1]["capacity_qps"], (
        "4-way entity sharding should cut the per-worker decode critical "
        "path by well over the 1.8x acceptance floor"
    )
