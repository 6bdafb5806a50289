"""``eval_walk``: the paper's evaluation walk at the paper's entity count.

HisRES at dim 200 on an ICEWS14s-shaped synthetic profile (7,128
entities, 230 relations, 365 timestamps, ~205 facts per snapshot).
Each walk is the default single-pass ``TimelineEvaluator.evaluate_walk``
over the leading test timestamps after replaying train + valid, with a
fresh plan so the encoder-state cache starts cold.
"""

from __future__ import annotations

import statistics
import time
from typing import Dict, List

import numpy as np

from record import DIM, MODEL, MODEL_SEED, Checks, latency_summary, peak_rss_mb

#: ICEWS14s shape (Table 2 of the paper); the generator's other knobs
#: keep their defaults
SHAPE = {
    "num_entities": 7128,
    "num_relations": 230,
    "num_timestamps": 365,
    "facts_per_snapshot": 205,
}
#: test timestamps per walk.  A full 37-timestamp walk takes ~90 s on a
#: 2-CPU box, more than one run may take, so every walk covers the same
#: leading test timestamps.
WALK_TIMESTAMPS = 3
#: whole walks per 10 s of ``--seconds`` (at least 2, so walks can be
#: compared with each other)
WALKS_PER_10_S = 4
SETUP_REPEATS = 11
#: walk steps re-scored one at a time by the output check
RESCORE_STEPS = 1


def walks_for(seconds: int) -> int:
    return max(2, round(WALKS_PER_10_S * seconds / 10))


def config(seed: int, seconds: int) -> Dict[str, object]:
    return {
        "model": MODEL,
        "dim": DIM,
        "model_seed": MODEL_SEED,
        "profile": dict(SHAPE, name="icews14s_shape"),
        "dataset_seed": seed,
        "walks": walks_for(seconds),
        "walk_timestamps": WALK_TIMESTAMPS,
        "window": {"history_length": 4, "granularity": 2, "use_global": True},
        "warmup": "1-timestamp walk",
    }


def make_dataset(seed: int):
    from repro.data.profiles import DatasetProfile
    from repro.data.synthetic import SyntheticTKGGenerator

    profile = DatasetProfile(
        name="icews14s_shape", time_granularity="1 day", seed=seed, **SHAPE
    )
    return SyntheticTKGGenerator(profile, seed=seed).generate()


def build(dataset):
    from repro.baselines import build_model
    from repro.core.config import WindowConfig
    from repro.training.evaluator import TimelineEvaluator
    from repro.training.seeding import seed_everything

    seed_everything(MODEL_SEED)
    model = build_model(MODEL, dataset.num_entities, dataset.num_relations, dim=DIM)
    evaluator = TimelineEvaluator(dataset)
    builder = WindowConfig(history_length=4, granularity=2).build(
        dataset.num_entities, dataset.num_relations
    )
    return model, evaluator, builder


class StepClock:
    """Stamps the end of each walk step: the evaluator ranks every step
    once, right after its scores arrive.  Installed at the evaluator's
    import site for the walk and removed afterwards."""

    def __init__(self) -> None:
        import repro.training.evaluator as module

        self.module = module
        self.inner = module.filtered_ranks  # the traced wrapper, if installed
        self.stamps: List[float] = []

    def __enter__(self) -> "StepClock":
        inner, stamps = self.inner, self.stamps

        def ranked(*args, **kwargs):
            out = inner(*args, **kwargs)
            stamps.append(time.perf_counter())
            return out

        self.module.filtered_ranks = ranked
        return self

    def __exit__(self, *exc) -> None:
        self.module.filtered_ranks = self.inner


def walks(model, evaluator, builder, dataset, count: int):
    """``count`` whole walks, each with a fresh (cold) plan."""
    results, latencies, cache = [], [], {"hits": 0, "misses": 0}
    wall = 0.0
    group_sizes = []
    for _ in range(count):
        plan = evaluator.make_plan(model)
        with StepClock() as clock:
            start = time.perf_counter()
            result = evaluator.evaluate_walk(
                model,
                builder,
                dataset.test,
                warmup_splits=(dataset.train, dataset.valid),
                max_timestamps=WALK_TIMESTAMPS,
                plan=plan,
            )
            wall += time.perf_counter() - start
        marks = [start] + clock.stamps
        latencies.extend(b - a for a, b in zip(marks, marks[1:]))
        results.append(result)
        stats = plan.cache.stats()
        cache["hits"] += stats["hits"]
        cache["misses"] += stats["misses"]
        group_sizes.append(evaluator.last_walk_stats["eval_mean_group_size"])
    return wall, latencies, results, cache, group_sizes


def step_slices(dataset) -> List[tuple]:
    """(t, slice of the walk's ranks) of each walked test timestamp."""
    out, offset = [], 0
    for t, quads in sorted(dataset.test.facts_by_time().items())[:WALK_TIMESTAMPS]:
        n = 2 * len(quads)  # raw + inverse queries
        out.append((int(t), slice(offset, offset + n)))
        offset += n
    return out


def rescore(model, dataset, evaluator, t: int):
    """Ranks of walk step ``t`` scored alone, through a cache-less plan."""
    from repro.core.config import WindowConfig
    from repro.core.execution import ExecutionPlan
    from repro.training.evaluator import build_time_filter
    from repro.training.metrics import filtered_ranks

    builder = WindowConfig(history_length=4, granularity=2).build(
        dataset.num_entities, dataset.num_relations
    )
    for split in (dataset.train, dataset.valid):
        for _, quads in sorted(split.facts_by_time().items()):
            builder.absorb(quads)
    for step_t, quads in sorted(dataset.test.facts_by_time().items()):
        if step_t == t:
            queries = evaluator.queries_with_inverse(quads)
            window = builder.window_for(queries, prediction_time=t)
            scores = ExecutionPlan(model).entity_scores(window, queries)
            return filtered_ranks(
                scores, queries, build_time_filter(quads, dataset.num_relations)
            )
        builder.absorb(quads)
    raise ValueError(f"timestamp {t} is not in the test split")


def check_walks(checks: Checks, results, num_entities: int, steps, rescored) -> None:
    """Ranks in range, identical walks, and re-scored steps agree.

    ``rescored`` maps a step index to the ranks it got when scored alone.
    """
    for i, result in enumerate(results):
        ranks = np.asarray(result.ranks)
        checks.expect(
            f"eval_walk.walk{i}.ranks_in_range",
            ranks.size > 0 and int(ranks.min()) >= 1 and int(ranks.max()) <= num_entities,
            f"min {ranks.min() if ranks.size else None} max {ranks.max() if ranks.size else None}",
        )
    mrrs = [r.mrr for r in results]
    checks.expect(
        "eval_walk.mrr_identical_across_walks",
        len(set(mrrs)) == 1 and all(np.array_equal(results[0].ranks, r.ranks) for r in results),
        f"mrrs {mrrs}",
    )
    for index, ranks in rescored.items():
        _, part = steps[index]
        walked = np.asarray(results[0].ranks)[part]
        checks.expect(
            f"eval_walk.step{index}.rescore_matches",
            np.array_equal(walked, ranks),
            f"{int((walked != ranks).sum()) if walked.shape == ranks.shape else 'shape'} differ",
        )


def run(seed: int, seconds: int, trace: bool):
    dataset = make_dataset(seed)
    setups = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        model, evaluator, builder = build(dataset)
        setups.append(time.perf_counter() - start)

    evaluator.evaluate_walk(
        model,
        builder,
        dataset.test,
        warmup_splits=(dataset.train, dataset.valid),
        max_timestamps=1,
        plan=evaluator.make_plan(model),
    )

    count = walks_for(seconds)
    wall, latencies, results, cache, group_sizes = walks(model, evaluator, builder, dataset, count)
    queries = sum(len(r.ranks) for r in results)

    checks = Checks()
    steps = step_slices(dataset)
    rng = np.random.default_rng(seed)
    chosen = sorted(rng.choice(len(steps), size=RESCORE_STEPS, replace=False).tolist())
    rescored = {i: rescore(model, dataset, evaluator, steps[i][0]) for i in chosen}
    check_walks(checks, results, dataset.num_entities, steps, rescored)

    lat = latency_summary(latencies)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "throughput_per_s": (queries / wall, "1/s"),
        "latency_p50_ms": (lat["p50_ms"], "ms"),
        "latency_p90_ms": (lat["p90_ms"], "ms"),
    }
    details = {
        "throughput": "ranked queries per second over whole walks",
        "latency": "per walk step (one test timestamp); the first step of a walk "
        "also replays train+valid",
        "latency_samples": lat,
        "setup_samples_s": setups,
        "timed_wall_s": wall,
        "queries": queries,
        "mrr": results[0].mrr,
        "rescored_steps": chosen,
        "mean_group_size": group_sizes,
    }
    untraced = {"busy_s": wall, "ops": queries}
    traced = None
    if trace:
        from layers import LayerTracer

        tracer = LayerTracer().install()
        try:
            t_wall, _, t_results, t_cache, t_groups = walks(
                model, evaluator, builder, dataset, count
            )
        finally:
            tracer.uninstall()
        checks.expect(
            "eval_walk.traced_walk_matches",
            all(np.array_equal(results[0].ranks, r.ranks) for r in t_results),
        )
        lookups = t_cache["hits"] + t_cache["misses"]
        traced = {
            "busy_s": t_wall,
            "ops": sum(len(r.ranks) for r in t_results),
            "layers": tracer.snapshot(),
            "extra": {
                "core.execution.state_cache_hit_ratio": t_cache["hits"] / lookups if lookups else 0.0,
                "training.evaluator.group_size_mean": float(np.mean(t_groups)),
            },
        }
    return {
        "config": config(seed, seconds),
        "metrics": metrics,
        "attempted": queries + (traced["ops"] if traced else 0),
        "failed": 0,
        "checks": checks,
        "details": details,
        "untraced": untraced,
        "traced": traced,
    }
