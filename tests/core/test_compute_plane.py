"""The compiled graph compute plane: layouts, caches, and metric parity.

The acceptance bar for the segment kernels: a full HisRES evaluation
pass on ``icews14s_small`` must produce the *same* filtered MRR /
Hits@k through the fused ``reduceat`` kernels as through the test-side
``np.add.at`` / ``np.maximum.at`` scatter oracle, to within 1e-9.
"""

import numpy as np
import pytest

from repro.core import HisRES, HisRESConfig
from repro.core.window import WindowBuilder
from repro.data.profiles import PROFILES
from repro.data.synthetic import SyntheticTKGGenerator
from repro.graphs import build_snapshot
from repro.graphs.compiled import (
    CompiledGraph,
    compiled,
    compiled_cache_stats,
    reset_compiled_cache_stats,
)
from repro.training import TimelineEvaluator, seed_everything
from tests.nn.segment_oracles import segment_kernels


def _graph(rng, num_entities=9, num_relations=3, n=12):
    quads = np.stack(
        [
            rng.integers(0, num_entities, n),
            rng.integers(0, num_relations, n),
            rng.integers(0, num_entities, n),
            np.zeros(n, dtype=np.int64),
        ],
        axis=1,
    )
    return build_snapshot(quads, num_entities, num_relations)


class TestCompiledGraph:
    def test_memoized_on_instance(self, rng):
        graph = _graph(rng)
        reset_compiled_cache_stats()
        plan = compiled(graph)
        assert compiled(graph) is plan
        assert compiled_cache_stats() == {"builds": 1, "hits": 1}

    def test_distinct_graphs_build_separately(self, rng):
        reset_compiled_cache_stats()
        compiled(_graph(rng))
        compiled(_graph(rng))
        assert compiled_cache_stats()["builds"] == 2

    def test_matches_snapshot_quantities(self, rng):
        graph = _graph(rng)
        plan = CompiledGraph(graph)
        np.testing.assert_array_equal(plan.in_degree, graph.in_degree())
        np.testing.assert_allclose(plan.in_degree_norm, graph.in_degree_norm())
        np.testing.assert_array_equal(plan.active_nodes, graph.active_nodes())
        assert plan.num_edges == graph.num_edges

    def test_layouts_cover_all_axes(self, rng):
        graph = _graph(rng)
        plan = CompiledGraph(graph)
        assert plan.dst_layout.num_segments == graph.num_entities
        assert plan.rel_layout.num_segments == graph.num_relations
        assert plan.src_layout.num_segments == graph.num_entities
        np.testing.assert_array_equal(
            plan.rel_layout.counts, np.bincount(graph.rel, minlength=graph.num_relations)
        )


class TestSnapshotMemoization:
    def test_derived_quantities_cached(self, rng):
        graph = _graph(rng)
        assert graph.in_degree() is graph.in_degree()
        assert graph.in_degree_norm() is graph.in_degree_norm()
        assert graph.active_nodes() is graph.active_nodes()


class TestWindowBuilderCaches:
    def _timeline(self, rng, timestamps=5, n=10, num_entities=12, num_relations=4):
        return [
            np.stack(
                [
                    rng.integers(0, num_entities, n),
                    rng.integers(0, num_relations, n),
                    rng.integers(0, num_entities, n),
                    np.full(n, t, dtype=np.int64),
                ],
                axis=1,
            )
            for t in range(timestamps)
        ]

    def _builder(self, **kw):
        defaults = dict(history_length=3, granularity=2, use_global=True)
        defaults.update(kw)
        return WindowBuilder(12, 4, **defaults)

    def test_snapshot_builds_survive_reset(self, rng):
        timeline = self._timeline(rng)
        builder = self._builder()
        for quads in timeline:
            builder.absorb(quads)
        first_pass = builder.cache_stats()
        assert first_pass["snapshot_builds"] == len(timeline)
        assert first_pass["snapshot_hits"] == 0

        builder.reset()  # epoch boundary
        for quads in timeline:
            builder.absorb(quads)
        second_pass = builder.cache_stats()
        assert second_pass["snapshot_builds"] == len(timeline)  # no new builds
        assert second_pass["snapshot_hits"] == len(timeline)

    def test_merged_windows_cached_incrementally(self, rng):
        timeline = self._timeline(rng)
        builder = self._builder(use_global=False)
        queries = np.array([[0, 0, 0, 0]])
        for t, quads in enumerate(timeline):
            builder.window_for(queries, prediction_time=t)
            builder.absorb(quads)
        stats = builder.cache_stats()
        assert stats["merged_builds"] > 0
        # sliding windows share all but the newest merge with the
        # previous step, so hits must dominate once the window fills
        assert stats["merged_hits"] > 0

    def test_same_window_reuses_graph_instances(self, rng):
        timeline = self._timeline(rng)
        builder = self._builder(use_global=False)
        for quads in timeline:
            builder.absorb(quads)
        a = builder.window_for(np.array([[0, 0, 0, 0]]), prediction_time=99)
        b = builder.window_for(np.array([[0, 0, 0, 0]]), prediction_time=99)
        for ga, gb in zip(a.merged, b.merged):
            assert ga is gb  # same instance => compiled layouts shared too

    def test_global_graph_lru_hits_within_version(self, rng):
        timeline = self._timeline(rng)
        builder = self._builder()
        for quads in timeline:
            builder.absorb(quads)
        queries = np.array([[1, 0, 0, 0], [2, 1, 0, 0]])
        a = builder.window_for(queries, prediction_time=9)
        b = builder.window_for(queries, prediction_time=9)
        assert a.global_graph is b.global_graph
        stats = builder.cache_stats()
        assert stats["global_hits"] == 1 and stats["global_builds"] == 1

    def test_global_cache_invalidated_by_absorb(self, rng):
        timeline = self._timeline(rng)
        builder = self._builder()
        queries = np.array([[1, 0, 0, 0]])
        builder.absorb(timeline[0])
        a = builder.window_for(queries, prediction_time=9)
        builder.absorb(timeline[1])  # version changes
        b = builder.window_for(queries, prediction_time=9)
        assert a.global_graph is not b.global_graph
        assert builder.cache_stats()["global_builds"] == 2

    def test_version_is_content_chained(self, rng):
        timeline = self._timeline(rng)
        b1, b2 = self._builder(), self._builder()
        for quads in timeline:
            b1.absorb(quads)
            b2.absorb(quads)
        assert b1.version == b2.version
        b1.reset()
        assert b1.version == 0
        for quads in timeline:
            b1.absorb(quads)
        assert b1.version == b2.version  # same content => same version

    def test_lru_capacity_bounds_caches(self, rng):
        builder = self._builder(use_global=False, cache_capacity=2)
        for quads in self._timeline(rng, timestamps=6):
            builder.absorb(quads)
        assert len(builder._snapshot_cache) <= 2


class TestMetricParity:
    def test_fused_matches_reference_eval(self):
        """Identical filtered metrics through the kernels and the oracle (1e-9)."""
        dataset = SyntheticTKGGenerator(PROFILES["icews14s_small"]).generate()
        config = HisRESConfig(
            embedding_dim=16, history_length=3, decoder_channels=4, dropout=0.0
        )
        seed_everything(1234)
        model = HisRES(dataset.num_entities, dataset.num_relations, config)
        model.eval()
        evaluator = TimelineEvaluator(dataset)

        results = {}
        for impl in ("reference", "fused"):
            builder = WindowBuilder(
                dataset.num_entities,
                dataset.num_relations,
                history_length=config.history_length,
                use_global=True,
            )
            with segment_kernels(impl):
                results[impl] = evaluator.evaluate_walk(
                    model,
                    builder,
                    dataset.test,
                    warmup_splits=(dataset.train, dataset.valid),
                ).as_dict()

        assert results["reference"]["num_queries"] == results["fused"]["num_queries"]
        for metric in ("mrr", "hits@1", "hits@3", "hits@10"):
            assert results["fused"][metric] == pytest.approx(
                results["reference"][metric], abs=1e-9
            ), f"{metric} diverged between compute paths"
