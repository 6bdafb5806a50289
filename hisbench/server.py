"""The serving process the HTTP workloads drive.

Run as ``python3 hisbench/server.py --seed N --trace 0|1``.  It builds
HisRES (dim 200, fixed model seed) behind an ``InferenceEngine``, warms
the store from the ``icews14s_small`` train history generated from
``--seed``, binds ``repro.serving``'s HTTP server on a free port and
prints ``READY <url>``.  Then it reads commands from standard input:

- ``reset``  — zero the layer timers, take a baseline of the engine
  counters and answer ``ok``;
- ``report`` — print one JSON line: peak RSS, per-layer times (traced
  only) and engine counter deltas since the last ``reset``;
- ``quit`` or end of input — shut the server down and exit.

With ``--trace 1`` the layer wrappers are installed before the engine
is built, so the micro-batcher's bound execute function is wrapped too.
"""

from __future__ import annotations

import argparse
import json
import sys
import threading

from record import DIM, MODEL, MODEL_SEED, import_repro, peak_rss_mb, pin_blas

PROFILE = "icews14s_small"
WINDOW = {"history_length": 4, "granularity": 2}


def build_engine(dataset):
    """Model + store + engine, store warmed from the train history."""
    from repro.baselines import build_model
    from repro.core.config import WindowConfig
    from repro.serving import InferenceEngine, OnlineHistoryStore
    from repro.training.seeding import seed_everything

    seed_everything(MODEL_SEED)
    model = build_model(MODEL, dataset.num_entities, dataset.num_relations, dim=DIM)
    store = OnlineHistoryStore(
        dataset.num_entities, dataset.num_relations, window_config=WindowConfig(**WINDOW)
    )
    engine = InferenceEngine(model, store, model_key=MODEL)
    store.warm_up(dataset.train)
    return engine


def counters(engine) -> dict:
    stats = engine.stats()
    state = stats["state_cache"] or {"hits": 0, "misses": 0}
    return {
        "cache_hits": stats["cache"]["hits"],
        "cache_misses": stats["cache"]["misses"],
        "state_hits": state["hits"],
        "state_misses": state["misses"],
        "batches": stats["batching"]["batches"],
        "batched_queries": stats["batching"]["batched_queries"],
        "window_version": stats["store"]["window_version"],
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    tracer = None
    if args.trace:
        from layers import LayerTracer

        tracer = LayerTracer().install()
    from repro.data.synthetic import generate_dataset
    from repro.serving import create_server

    engine = build_engine(generate_dataset(PROFILE, seed=args.seed))
    server = create_server(engine, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    print(f"READY {server.url}", flush=True)
    baseline = counters(engine)
    try:
        for line in sys.stdin:
            command = line.strip()
            if command == "reset":
                if tracer is not None:
                    tracer.reset()
                baseline = counters(engine)
                print("ok", flush=True)
            elif command == "report":
                now = counters(engine)
                report = {
                    "peak_rss_mb": peak_rss_mb(),
                    "counters": {k: now[k] - baseline[k] for k in now},
                    "layers": tracer.snapshot() if tracer is not None else {},
                }
                print(json.dumps(report), flush=True)
            elif command == "quit":
                break
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)
    return 0


if __name__ == "__main__":
    pin_blas()
    import_repro()
    sys.exit(main())
