"""WindowBuilder: history assembly for prediction steps."""

import numpy as np
import pytest

from repro.core.window import HistoryWindow, WindowBuilder


def _quads(t, rows):
    return np.array([[s, r, o, t] for s, r, o in rows], dtype=np.int64)


def _builder(**kw):
    defaults = dict(num_entities=10, num_relations=3, history_length=3, granularity=2)
    defaults.update(kw)
    return WindowBuilder(**defaults)


class TestRollingHistory:
    def test_window_grows_until_limit(self):
        b = _builder(history_length=2)
        for t in range(4):
            b.absorb(_quads(t, [(0, 0, 1)]))
        w = b.window_for(_quads(4, [(0, 0, 1)]), prediction_time=4)
        assert len(w.snapshots) == 2  # capped at history_length

    def test_deltas_relative_to_prediction(self):
        b = _builder()
        b.absorb(_quads(5, [(0, 0, 1)]))
        b.absorb(_quads(6, [(0, 0, 1)]))
        w = b.window_for(_quads(8, [(0, 0, 1)]), prediction_time=8)
        assert w.deltas == [3.0, 2.0]

    def test_merged_windows_count(self):
        b = _builder(history_length=4, granularity=2)
        for t in range(4):
            b.absorb(_quads(t, [(t % 2, 0, 1)]))
        w = b.window_for(_quads(4, [(0, 0, 1)]), prediction_time=4)
        assert len(w.merged) == 3  # 4 snapshots, window 2, stride 1

    def test_empty_history(self):
        b = _builder()
        w = b.window_for(_quads(0, [(0, 0, 1)]), prediction_time=0)
        assert w.snapshots == [] and w.merged == []
        assert not b.history_filled

    def test_reset(self):
        b = _builder()
        b.absorb(_quads(0, [(0, 0, 1)]))
        assert b.history_filled
        b.reset()
        assert not b.history_filled

    def test_empty_snapshot_absorb_is_noop(self):
        b = _builder()
        b.absorb(np.zeros((0, 4)))
        assert not b.history_filled

    def test_snapshot_graphs_have_inverse_edges(self):
        b = _builder()
        b.absorb(_quads(0, [(0, 0, 1)]))
        w = b.window_for(_quads(1, [(0, 0, 1)]), prediction_time=1)
        assert w.snapshots[0].num_edges == 2


class TestGlobalGraphAssembly:
    def test_global_graph_contains_query_relevant_history(self):
        b = _builder()
        b.absorb(_quads(0, [(0, 0, 1), (5, 2, 6)]))
        queries = _quads(1, [(0, 0, 3)])
        w = b.window_for(queries, prediction_time=1)
        triples = set(map(tuple, w.global_graph.triples()))
        assert (0, 0, 1) in triples
        assert all(t[:2] == (0, 0) for t in triples)

    def test_inverse_facts_reach_inverse_queries(self):
        b = _builder()
        b.absorb(_quads(0, [(0, 0, 1)]))
        # inverse query pair (1, 0 + 3)
        queries = np.array([[1, 3, 0, 1]])
        w = b.window_for(queries, prediction_time=1)
        assert (1, 3, 0) in set(map(tuple, w.global_graph.triples()))

    def test_use_global_false_gives_none(self):
        b = _builder(use_global=False)
        b.absorb(_quads(0, [(0, 0, 1)]))
        w = b.window_for(_quads(1, [(0, 0, 1)]), prediction_time=1)
        assert w.global_graph is None

    def test_global_max_history_pruning(self):
        b = _builder(global_max_history=2)
        b.absorb(_quads(0, [(0, 0, 1)]))
        b.absorb(_quads(5, [(0, 0, 2)]))
        w = b.window_for(_quads(6, [(0, 0, 3)]), prediction_time=6)
        triples = set(map(tuple, w.global_graph.triples()))
        assert (0, 0, 2) in triples and (0, 0, 1) not in triples


class TestVocabularyTracking:
    def test_masks_present_when_tracked(self):
        b = _builder(track_vocabulary=True)
        b.absorb(_quads(0, [(0, 0, 1)]))
        queries = _quads(1, [(0, 0, 2)])
        w = b.window_for(queries, prediction_time=1)
        assert w.history_masks is not None
        assert w.history_masks[0, 1] == 1.0
        assert w.history_counts[0, 1] == 1.0

    def test_masks_absent_by_default(self):
        b = _builder()
        b.absorb(_quads(0, [(0, 0, 1)]))
        w = b.window_for(_quads(1, [(0, 0, 1)]), prediction_time=1)
        assert w.history_masks is None

    def test_vocabulary_reset(self):
        b = _builder(track_vocabulary=True)
        b.absorb(_quads(0, [(0, 0, 1)]))
        b.reset()
        w = b.window_for(_quads(0, [(0, 0, 2)]), prediction_time=0)
        assert w.history_masks.sum() == 0


class TestGraphCacheCapacity:
    def test_cache_capacity_bounds_entries(self):
        b = _builder(cache_capacity=2)
        for t in range(6):
            b.absorb(_quads(t, [(t % 3, 0, (t + 1) % 3)]))
            b.window_for(_quads(t, [(0, 0, 1)]), prediction_time=t)
        stats = b.cache_stats()
        for name in ("snapshot", "merged", "global"):
            assert stats.get(f"{name}_entries", 0) <= 2

    def test_entry_gauges_track_cache_sizes(self):
        from repro.obs.metrics import get_registry

        b = _builder(cache_capacity=8)
        for t in range(3):
            b.absorb(_quads(t, [(0, 0, 1)]))
            b.window_for(_quads(t, [(0, 0, 1)]), prediction_time=t)
        stats = b.cache_stats()
        entries = get_registry().get("repro_cache_entries")
        for name in ("snapshot", "merged", "global"):
            owner = getattr(b, f"_{name}_cache").owner
            gauge = entries.labels(cache=f"window_{name}", owner=owner)
            assert gauge.value == stats[f"{name}_entries"]
        assert stats["snapshot_entries"] >= 1


class TestScopedWindows:
    def test_scope_entities_identity_when_unscoped(self):
        from repro.nn.tensor import Tensor

        b = _builder()
        b.absorb(_quads(0, [(0, 0, 1)]))
        w = b.window_for(_quads(1, [(0, 0, 1)]), prediction_time=1)
        assert not w.is_scoped
        matrix = Tensor(np.arange(20, dtype=np.float64).reshape(10, 2))
        assert w.scope_entities(matrix) is matrix

    def test_local_nodes_enter_fingerprint(self):
        b = _builder()
        b.absorb(_quads(0, [(0, 0, 1)]))
        w = b.window_for(_quads(1, [(0, 0, 1)]), prediction_time=1)
        from dataclasses import replace

        scoped = replace(
            w, local_nodes=np.array([0, 1, 3], dtype=np.int64), _fingerprint=None
        )
        assert scoped.is_scoped
        assert scoped.num_local_entities == 3
        assert scoped.fingerprint() != w.fingerprint()
