"""``train_step``: full-graph chronological training, whole epochs.

HisRES at dim 200 on the ``icews14s_small`` profile, one optimizer step
per training snapshot through ``Trainer.train_epoch`` (the RE-GCN /
HisRES regime).  The only workload that runs autodiff backward and the
optimizer.  The timed pass is the first whole epochs of a training run
(after a 5-step warm-up), so it pays the cold window-graph caches of
epoch 1 once, as every training run does.
"""

from __future__ import annotations

import math
import statistics
import time
from typing import Dict, List

from record import DIM, MODEL, MODEL_SEED, Checks, latency_summary, peak_rss_mb

PROFILE = "icews14s_small"
#: set-ups per run; ``setup_s`` is their median
SETUP_REPEATS = 11
#: whole timed epochs per 10 s of ``--seconds``: the work is fixed by the
#: argument, never by a measured speed.  Two epochs give 126 step
#: samples, so the p90 has more than ten samples beyond it.
EPOCHS_PER_10_S = 2
#: leading timestamps of the warm-up, which the determinism check
#: replays (the first one only fills history, so 6 timestamps give 5
#: steps)
WARMUP_TIMESTAMPS = 6


def epochs_for(seconds: int) -> int:
    return max(1, round(EPOCHS_PER_10_S * seconds / 10))


def config(seed: int, seconds: int) -> Dict[str, object]:
    return {
        "model": MODEL,
        "dim": DIM,
        "model_seed": MODEL_SEED,
        "profile": PROFILE,
        "dataset_seed": seed,
        "epochs": epochs_for(seconds),
        "warmup": f"first {WARMUP_TIMESTAMPS} timestamps of epoch 0",
        "trainer": "Trainer defaults (history 4, granularity 2, global on, lr 1e-3, clip 1.0)",
    }


def build(dataset):
    """Model + trainer from the fixed model seed; returns (trainer, clock)."""
    from repro.baselines import build_model
    from repro.obs.health import HealthMonitor
    from repro.training.seeding import seed_everything
    from repro.training.trainer import Trainer

    class StepClock(HealthMonitor):
        """The trainer's default health monitor, also stamping each step."""

        def __init__(self) -> None:
            super().__init__()
            self.losses: List[float] = []
            self.stamps: List[float] = []

        def observe_step(self, loss, grad_norm=None, step=None, epoch=None) -> None:
            super().observe_step(loss, grad_norm=grad_norm, step=step, epoch=epoch)
            self.losses.append(loss)
            self.stamps.append(time.perf_counter())

    seed_everything(MODEL_SEED)
    model = build_model(MODEL, dataset.num_entities, dataset.num_relations, dim=DIM)
    clock = StepClock()
    trainer = Trainer(model, dataset, seed=MODEL_SEED, health=clock)
    return trainer, clock


def timed_epochs(trainer, clock, epochs: int):
    """Run whole epochs; per-step latencies tile the epochs' wall time."""
    latencies: List[float] = []
    losses: List[float] = []
    wall = 0.0
    for _ in range(epochs):
        clock.losses.clear()
        clock.stamps.clear()
        start = time.perf_counter()
        trainer.train_epoch()
        wall += time.perf_counter() - start
        marks = [start] + clock.stamps
        latencies.extend(b - a for a, b in zip(marks, marks[1:]))
        losses.extend(clock.losses)
    return wall, latencies, losses


def check_losses(checks: Checks, losses: List[float], first: List[float], again: List[float]) -> None:
    checks.expect(
        "train_step.losses_finite",
        bool(losses) and all(math.isfinite(x) for x in losses),
        f"{sum(not math.isfinite(x) for x in losses)} non-finite of {len(losses)}",
    )
    checks.expect(
        "train_step.fresh_trainers_bitwise_equal",
        len(first) > 0 and [x.hex() for x in first] == [x.hex() for x in again],
        f"{[x.hex() for x in first]} vs {[x.hex() for x in again]}",
    )


def run(seed: int, seconds: int, trace: bool):
    from repro.data.synthetic import generate_dataset

    dataset = generate_dataset(PROFILE, seed=seed)
    setups = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        trainer, clock = build(dataset)
        setups.append(time.perf_counter() - start)

    trainer.train_epoch(max_timestamps=WARMUP_TIMESTAMPS)
    warmup_losses = list(clock.losses)

    epochs = epochs_for(seconds)
    wall, latencies, losses = timed_epochs(trainer, clock, epochs)
    steps = len(latencies)

    checks = Checks()
    fresh, fresh_clock = build(dataset)
    fresh.train_epoch(max_timestamps=WARMUP_TIMESTAMPS)
    check_losses(checks, losses, warmup_losses, fresh_clock.losses)

    lat = latency_summary(latencies)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "throughput_per_s": (steps / wall, "1/s"),
        "latency_p50_ms": (lat["p50_ms"], "ms"),
        "latency_p90_ms": (lat["p90_ms"], "ms"),
    }
    details = {
        "throughput": "optimizer steps per second over whole epochs",
        "latency": "per optimizer step (one snapshot of the walk)",
        "latency_samples": lat,
        "setup_samples_s": setups,
        "timed_wall_s": wall,
        "steps": steps,
        "warmup_steps": len(warmup_losses),
        "loss_after_warmup_steps": warmup_losses[-1] if warmup_losses else None,
        "timed_loss_first_last": [losses[0], losses[-1]] if losses else None,
    }
    untraced = {"busy_s": wall, "ops": steps}
    traced = None
    if trace:
        from layers import LayerTracer

        tracer = LayerTracer().install()
        try:
            t_wall, t_lat, t_losses = timed_epochs(trainer, clock, epochs)
        finally:
            tracer.uninstall()
        checks.expect(
            "train_step.traced_losses_finite",
            all(math.isfinite(x) for x in t_losses),
        )
        traced = {"busy_s": t_wall, "ops": len(t_lat), "layers": tracer.snapshot()}
        traced["extra"] = {
            "core.execution.state_cache_hit_ratio": trainer.state_cache.hit_rate,
        }
    return {
        "config": config(seed, seconds),
        "metrics": metrics,
        "attempted": steps + (traced["ops"] if traced else 0),
        "failed": 0,
        "checks": checks,
        "details": details,
        "untraced": untraced,
        "traced": traced,
    }
