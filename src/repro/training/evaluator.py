"""Time-aware filtered evaluation over a chronological walk.

The evaluator replays the timeline: history is absorbed snapshot by
snapshot; at each evaluation timestamp the model scores every query
(raw and inverse) given only the past, and filtered ranks are recorded.

All scoring goes through the batched evaluation layer
(:class:`repro.core.execution.TimelineBatcher`): the walk is emitted as
a lazy stream of :class:`~repro.core.execution.TimelineStep`\\ s, maximal
runs of consecutive timestamps whose windows share a content
fingerprint are encoded once and decoded as one blocked query block on
the global tile grid, and per-timestamp score rows are sliced back out
— bitwise-identical (float64) to the per-timestamp path.  Passing a
:class:`~repro.core.execution.ScopedExecutionPlan` (``repro eval
--sampler fanout=...``) runs the same walk on sampled fan-in closures,
with exhaustive fanouts reproducing the full walk bitwise.
"""

from __future__ import annotations

import logging
import time
from collections import defaultdict
from typing import Any, Dict, Iterable, Iterator, List, Optional, Set, Tuple

import numpy as np

from repro.core.execution import (
    EncoderStateCache,
    ExecutionPlan,
    TimelineBatcher,
    TimelineStep,
)
from repro.data.dataset import SplitView, TKGDataset
from repro.obs.logging import log_event
from repro.training.metrics import RankingResult, filtered_ranks, summarize_ranks

logger = logging.getLogger(__name__)


def build_time_filter(
    quads: np.ndarray, num_relations: int
) -> Dict[Tuple[int, int], Set[int]]:
    """(s, r) -> true objects map for one timestamp, raw + inverse."""
    time_filter: Dict[Tuple[int, int], Set[int]] = defaultdict(set)
    for s, r, o, _ in np.asarray(quads, dtype=np.int64).reshape(-1, 4):
        time_filter[(int(s), int(r))].add(int(o))
        time_filter[(int(o), int(r) + num_relations)].add(int(s))
    return time_filter


class TimelineEvaluator:
    """Walks the timeline and scores a model with time-filtered metrics.

    Works with any model speaking the encode/decode protocol (scored
    through an :class:`~repro.core.execution.ExecutionPlan`) and relies
    on a :class:`repro.core.window.WindowBuilder` (owned by the trainer)
    for history assembly.

    Args:
        dataset: supplies the relation vocabulary for inverse queries.
        state_cache_entries: capacity of the per-call default encoder
            state cache; callers sharing states across walks should
            pass their own ``plan`` instead.

    After every walk :attr:`last_walk_stats` holds the batched-walk
    accounting (wall seconds, group count, mean group size, queries) —
    ``repro eval`` copies it into the run ledger.
    """

    def __init__(self, dataset: TKGDataset, state_cache_entries: int = 32):
        self.dataset = dataset
        self.num_relations = dataset.num_relations
        self.state_cache_entries = state_cache_entries
        self.last_walk_stats: Dict[str, Any] = {}

    def queries_with_inverse(self, quads: np.ndarray) -> np.ndarray:
        """Raw + inverse queries for one snapshot."""
        return TKGDataset.add_inverse(quads, self.num_relations)

    def make_plan(self, model) -> ExecutionPlan:
        """A fresh plan with an evaluator-owned state cache."""
        return ExecutionPlan(
            model,
            cache=EncoderStateCache(capacity=self.state_cache_entries, owner="evaluator"),
        )

    def _resolve_plan(self, model, plan: Optional[ExecutionPlan]) -> ExecutionPlan:
        if plan is not None:
            if plan.model is not model:
                raise ValueError("plan.model must be the model under evaluation")
            return plan
        return self.make_plan(model)

    # ------------------------------------------------------------------
    def _steps(
        self,
        window_builder,
        items: List[Tuple[int, np.ndarray]],
        entities: bool,
        two_phase: bool,
    ) -> Iterator[TimelineStep]:
        """Lazy walk: windows are assembled *before* the timestamp's own
        facts are absorbed, so a one-step lookahead by the batcher never
        leaks the future into a window."""
        for t, quads in items:
            time_filter = build_time_filter(quads, self.num_relations) if entities else None
            if two_phase:
                raw = np.asarray(quads, dtype=np.int64).reshape(-1, 4)
                inverse = raw[:, [2, 1, 0, 3]].copy()
                inverse[:, 1] += self.num_relations
                for phase_queries in (raw, inverse):
                    window = window_builder.window_for(phase_queries, prediction_time=t)
                    yield TimelineStep(int(t), window, phase_queries, payload=time_filter)
            else:
                queries = self.queries_with_inverse(quads)
                window = window_builder.window_for(queries, prediction_time=t)
                yield TimelineStep(int(t), window, queries, payload=time_filter)
            window_builder.absorb(quads)

    def _walk(
        self,
        model,
        window_builder,
        eval_split: SplitView,
        warmup_splits: Iterable[SplitView],
        max_timestamps: Optional[int],
        plan: Optional[ExecutionPlan],
        entities: bool = True,
        relations: str = "none",  # "none" | "optional" | "require"
        two_phase: bool = False,
    ) -> Tuple[Optional[RankingResult], Optional[RankingResult]]:
        """Shared batched driver behind the three public walks."""
        plan = self._resolve_plan(model, plan)
        window_builder.reset()
        for split in warmup_splits:
            for _, quads in sorted(split.facts_by_time().items()):
                window_builder.absorb(quads)

        items = sorted(eval_split.facts_by_time().items())
        if max_timestamps is not None:
            items = items[:max_timestamps]
        batcher = TimelineBatcher(
            plan, num_entities=self.dataset.num_entities, owner="evaluator"
        )
        entity_ranks: List[np.ndarray] = []
        relation_ranks: List[np.ndarray] = []
        want_relations = relations != "none"
        started = time.perf_counter()
        for step, entity_scores, relation_scores in batcher.run(
            self._steps(window_builder, items, entities, two_phase),
            entities=entities,
            relations=want_relations,
        ):
            if entities:
                entity_ranks.append(
                    filtered_ranks(entity_scores, step.queries, step.payload)
                )
            if want_relations:
                if relation_scores is None:
                    if relations == "require":
                        raise TypeError(
                            f"{type(model).__name__} has no relation decoder; "
                            "relation ranking needs a joint model (e.g. HisRES, RE-GCN)"
                        )
                else:
                    relation_ranks.append(self._relation_ranks(relation_scores, step.queries))
        wall_seconds = time.perf_counter() - started
        stats = dict(batcher.last_stats)
        self.last_walk_stats = {
            "eval_wall_seconds": wall_seconds,
            "eval_timestamps": len(items),
            "eval_steps": stats.get("steps", 0),
            "eval_groups": stats.get("groups", 0),
            "eval_mean_group_size": round(float(stats.get("mean_group_size", 0.0)), 4),
            "eval_max_group_size": stats.get("max_group_size", 0),
            "eval_queries": stats.get("queries", 0),
        }
        entity_result = summarize_ranks(entity_ranks) if entities else None
        relation_result = summarize_ranks(relation_ranks) if relation_ranks else None
        return entity_result, relation_result

    # ------------------------------------------------------------------
    def evaluate_walk(
        self,
        model,
        window_builder,
        eval_split: SplitView,
        warmup_splits: Iterable[SplitView] = (),
        max_timestamps: Optional[int] = None,
        two_phase: bool = False,
        plan: Optional[ExecutionPlan] = None,
    ) -> RankingResult:
        """Evaluate ``model`` over ``eval_split``.

        Args:
            window_builder: a reset :class:`WindowBuilder`; this method
                mutates it (absorbing history).
            warmup_splits: earlier splits absorbed without prediction
                (e.g. train+valid before scoring test).
            max_timestamps: optionally cap evaluated timestamps (smoke
                benchmarks).
            two_phase: score the raw and inverse query sets in separate
                forward passes, each with its own globally relevant
                graph (the paper's propagation strategy, §4.1.3).  The
                default single pass shares one graph for both — cheaper,
                nearly identical metrics on the synthetic profiles.
            plan: optional shared :class:`ExecutionPlan` (or a
                :class:`~repro.core.execution.ScopedExecutionPlan` for
                sampled evaluation); passing the same plan to a later
                :meth:`evaluate_relations` walk lets it decode from this
                walk's cached encoder states.
        """
        result, _ = self._walk(
            model,
            window_builder,
            eval_split,
            warmup_splits,
            max_timestamps,
            plan,
            entities=True,
            relations="none",
            two_phase=two_phase,
        )
        log_event(
            logger,
            "eval.walk",
            _level=logging.DEBUG,
            timestamps=self.last_walk_stats.get("eval_timestamps", 0),
            queries=self.last_walk_stats.get("eval_queries", 0),
            groups=self.last_walk_stats.get("eval_groups", 0),
            mrr=result.mrr,
            two_phase=two_phase,
        )
        return result

    def evaluate_relations(
        self,
        model,
        window_builder,
        eval_split: SplitView,
        warmup_splits: Iterable[SplitView] = (),
        max_timestamps: Optional[int] = None,
        plan: Optional[ExecutionPlan] = None,
    ) -> RankingResult:
        """Relation-prediction metrics for joint models.

        ``model`` must expose a relation decoder (HisRES, and any
        baseline implementing ``decode_relations``).  Ranks are
        filtered against the true relations of the same (s, o) at t.
        With a shared ``plan``, a preceding entity walk over the same
        split leaves every needed encoder state in cache and this walk
        is decode-only.
        """
        _, result = self._walk(
            model,
            window_builder,
            eval_split,
            warmup_splits,
            max_timestamps,
            plan,
            entities=False,
            relations="require",
        )
        assert result is not None  # "require" raises before this
        return result

    def evaluate_joint(
        self,
        model,
        window_builder,
        eval_split: SplitView,
        warmup_splits: Iterable[SplitView] = (),
        max_timestamps: Optional[int] = None,
        plan: Optional[ExecutionPlan] = None,
    ) -> Tuple[RankingResult, Optional[RankingResult]]:
        """Entity and relation metrics from ONE encode per group.

        Returns ``(entity_result, relation_result)``; the relation
        result is None for entity-only models.
        """
        entity_result, relation_result = self._walk(
            model,
            window_builder,
            eval_split,
            warmup_splits,
            max_timestamps,
            plan,
            entities=True,
            relations="optional",
        )
        return entity_result, relation_result

    @staticmethod
    def _relation_ranks(scores: np.ndarray, queries: np.ndarray) -> np.ndarray:
        """Filtered relation ranks: (s, o) -> true relations at t."""
        rel_filter: Dict[Tuple[int, int], Set[int]] = {}
        for s, r, o, _ in queries:
            rel_filter.setdefault((int(s), int(o)), set()).add(int(r))
        # reuse filtered_ranks by viewing queries as (s, o, r)
        view = queries[:, [0, 2, 1]]
        return filtered_ranks(scores, view, rel_filter)
