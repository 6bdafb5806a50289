"""Benchmark entry point: one workload per run, one record per workload.

    python3 hisbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: ``train_step``, ``eval_walk``, ``predict_hot``,
``predict_stream`` (see ``hisbench/README.md``).  Each run sets up,
runs an untimed warm-up, runs the timed pass with tracing off and
checks every output.  ``--seed`` fixes the inputs; ``--seconds`` fixes
the amount of work (whole epochs, whole walks, a request schedule),
never the speed it is done at.

With ``--trace 0`` the last line carries the end-to-end metrics; with
``--trace 1`` a second, traced pass follows and the last line carries
the per-layer metrics, printed as a table above it.
"""

from __future__ import annotations

import argparse
import sys

from record import import_repro, pin_blas

WORKLOADS = ("train_step", "eval_walk", "predict_hot", "predict_stream")

#: The traced pass gate: layer self times must explain this share of the
#: traced pass's busy time.  The same pass is the base: the host's speed
#: drifts by up to ±10% between two passes, which would move a ratio
#: against the other pass by as much.
MIN_COVERAGE = 0.90

#: per-layer metric -> (layer, quantity, unit).  ``s``: total self
#: seconds of the traced pass; ``ms``: mean self milliseconds per call;
#: ``calls``: call count; ``extra``: a ratio or mean the workload reports.
PER_LAYER = {
    "nn.optim.step_s": ("nn.optim.step", "s", "s"),
    "nn.optim.clip_s": ("nn.optim.clip", "s", "s"),
    "nn.tensor.backward_s": ("nn.tensor.backward", "s", "s"),
    "core.execution.loss_s": ("core.execution.loss", "s", "s"),
    "nn.segment.calls": ("nn.segment.fwd", "calls", "count"),
    "nn.segment.fwd_s": ("nn.segment.fwd", "s", "s"),
    "core.execution.encode_s": ("core.execution.encode", "s", "s"),
    "core.execution.encode_calls": ("core.execution.encode", "calls", "count"),
    "core.execution.state_cache_hit_ratio": (None, "extra", "ratio"),
    "core.execution.decode_s": ("core.execution.decode", "s", "s"),
    "core.execution.topk_s": ("core.execution.topk", "s", "s"),
    "training.evaluator.rank_s": ("training.evaluator.rank", "s", "s"),
    "training.evaluator.group_size_mean": (None, "extra", "count"),
    "core.window.window_for_s": ("core.window.window_for", "s", "s"),
    "core.window.absorb_s": ("core.window.absorb", "s", "s"),
    "serving.server.handler_ms": ("serving.server.handler", "ms", "ms"),
    "serving.client.transport_ms": ("serving.client.transport", "ms", "ms"),
    "serving.engine.batch_wait_ms": ("serving.engine.batch_wait", "ms", "ms"),
    "serving.engine.execute_ms": ("serving.engine.execute", "ms", "ms"),
    "serving.engine.batch_size_mean": (None, "extra", "count"),
    "serving.cache.hit_ratio": (None, "extra", "ratio"),
}


def per_layer_metrics(untraced, traced):
    """Per-layer metrics plus ``trace.coverage`` and ``trace.overhead``."""
    layers = traced["layers"]

    def row(layer):
        return layers.get(layer, {"self_s": 0.0, "root_s": 0.0, "calls": 0})

    metrics = {}
    for name, (layer, quantity, unit) in PER_LAYER.items():
        if quantity == "extra":
            value = traced["extra"].get(name, 0.0)
        elif quantity == "calls":
            value = row(layer)["calls"]
        elif quantity == "s":
            value = row(layer)["self_s"]
        else:
            r = row(layer)
            value = r["self_s"] * 1e3 / r["calls"] if r["calls"] else 0.0
        metrics[name] = (value, unit)
    # one /ingest = store.ingest + store.flush (its seal)
    ingest, flush = row("serving.store.ingest"), row("serving.store.flush")
    metrics["serving.store.ingest_ms"] = (
        (ingest["self_s"] + flush["self_s"]) * 1e3 / ingest["calls"] if ingest["calls"] else 0.0,
        "ms",
    )
    explained = sum(r["self_s"] for r in layers.values())
    metrics["trace.coverage"] = (explained / traced["busy_s"], "ratio")
    metrics["trace.overhead"] = (traced["busy_s"] / untraced["busy_s"] - 1.0, "ratio")
    return metrics


def check_coverage(checks, coverage: float) -> bool:
    return checks.expect(
        "trace.coverage",
        coverage >= MIN_COVERAGE,
        f"layers explain {coverage:.1%} of the traced pass (gate {MIN_COVERAGE:.0%})",
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    pin_blas()
    import_repro()
    from record import emit, host_probe_ms
    from layers import table

    host_before = host_probe_ms()
    if args.workload == "train_step":
        import train_step as workload

        result = workload.run(args.seed, args.seconds, bool(args.trace))
    elif args.workload == "eval_walk":
        import eval_walk as workload

        result = workload.run(args.seed, args.seconds, bool(args.trace))
    else:
        import predict

        runner = predict.run_hot if args.workload == "predict_hot" else predict.run_stream
        result = runner(args.seed, args.seconds, bool(args.trace))

    checks = result["checks"]
    metrics, lines = result["metrics"], []
    details = dict(result["details"], host_probe_ms=[host_before, host_probe_ms()])
    if args.trace:
        traced = result["traced"]
        metrics = per_layer_metrics(result["untraced"], traced)
        coverage = metrics["trace.coverage"][0]
        check_coverage(checks, coverage)
        details["layers"] = traced["layers"]
        lines = [f"per-layer table: {args.workload}, seed {args.seed}"]
        lines += table(traced["layers"], traced["busy_s"])
        lines.append(
            f"coverage {coverage:.1%} of traced busy time {traced['busy_s']:.3f} s; "
            f"untraced {result['untraced']['busy_s']:.3f} s, "
            f"tracing overhead {metrics['trace.overhead'][0]:+.1%}"
        )
    emit(
        args.workload,
        args.seed,
        result["config"],
        metrics,
        result["attempted"],
        result["failed"],
        checks,
        details=details,
        table=lines,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
