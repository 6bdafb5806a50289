"""InferenceEngine: checkpoint loading, caching, micro-batching."""

import threading

import numpy as np
import pytest

from repro.baselines import build_model
from repro.nn.serialization import save_checkpoint
from repro.serving import InferenceEngine, MicroBatcher, OnlineHistoryStore


def _checkpoint(tmp_path, key="distmult", dim=8, num_entities=25, num_relations=5,
                window=None):
    model = build_model(key, num_entities, num_relations, dim=dim)
    path = str(tmp_path / f"{key}.npz")
    save_checkpoint(model, path, metadata={
        "format": 1,
        "model": key,
        "num_entities": num_entities,
        "num_relations": num_relations,
        "dim": dim,
        "window": window or {"history_length": 2, "granularity": 2,
                             "use_global": False, "track_vocabulary": False},
    })
    return model, path


class TestFromCheckpoint:
    def test_builds_model_and_store(self, tmp_path):
        model, path = _checkpoint(tmp_path)
        engine = InferenceEngine.from_checkpoint(path)
        assert engine.model_key == "distmult"
        assert engine.store.num_entities == 25
        assert engine.store.num_relations == 5
        # weights actually restored
        for (_, a), (_, b) in zip(
            sorted(model.named_parameters()), sorted(engine.model.named_parameters())
        ):
            np.testing.assert_array_equal(a.data, b.data)

    def test_window_overrides(self, tmp_path):
        _, path = _checkpoint(tmp_path)
        engine = InferenceEngine.from_checkpoint(path, history_length=7)
        assert engine.store._builder.history_length == 7

    def test_missing_metadata_is_a_clear_error(self, tmp_path):
        model = build_model("distmult", 5, 2, dim=4)
        path = str(tmp_path / "bare.npz")
        save_checkpoint(model, path)  # no serving metadata
        with pytest.raises(ValueError, match="serving metadata"):
            InferenceEngine.from_checkpoint(path)


class TestPredict:
    def test_topk_shape_and_order(self, tmp_path, tiny_dataset):
        _, path = _checkpoint(tmp_path)
        engine = InferenceEngine.from_checkpoint(path, batch_window_s=0.0)
        engine.store.warm_up(tiny_dataset.train)
        predictions = engine.predict(0, 1, top_k=5)
        assert len(predictions) == 5
        assert [p["rank"] for p in predictions] == [1, 2, 3, 4, 5]
        scores = [p["score"] for p in predictions]
        assert scores == sorted(scores, reverse=True)

    def test_matches_raw_model_scores(self, tmp_path, tiny_dataset):
        _, path = _checkpoint(tmp_path)
        engine = InferenceEngine.from_checkpoint(path, batch_window_s=0.0)
        engine.store.warm_up(tiny_dataset.train)
        queries = np.zeros((1, 4), dtype=np.int64)
        queries[0, 0], queries[0, 1] = 3, 2
        window = engine.store.window_for(queries)
        expected = np.asarray(engine.model.predict_entities(window, queries))[0]
        np.testing.assert_allclose(engine.scores_for(3, 2), expected)

    def test_inverse_uses_doubled_relation_space(self, tmp_path, tiny_dataset):
        _, path = _checkpoint(tmp_path)
        engine = InferenceEngine.from_checkpoint(path, batch_window_s=0.0)
        engine.store.warm_up(tiny_dataset.train)
        direct = engine.predict(0, 1, top_k=3, inverse=False)
        inverse = engine.predict(0, 1, top_k=3, inverse=True)
        assert direct != inverse

    def test_validates_ranges(self, tmp_path):
        _, path = _checkpoint(tmp_path)
        engine = InferenceEngine.from_checkpoint(path, batch_window_s=0.0)
        with pytest.raises(ValueError, match="subject"):
            engine.predict(99, 0)
        with pytest.raises(ValueError, match="relation"):
            engine.predict(0, 10)  # 2*num_relations == 10 is out of range

    def test_hisres_end_to_end(self, tmp_path, tiny_dataset):
        """The flagship model serves through the same path (global graph on)."""
        _, path = _checkpoint(
            tmp_path, key="hisres", dim=8,
            window={"history_length": 3, "granularity": 2,
                    "use_global": True, "track_vocabulary": False},
        )
        engine = InferenceEngine.from_checkpoint(path, batch_window_s=0.0)
        engine.store.warm_up(tiny_dataset.train)
        predictions = engine.predict(1, 0, top_k=4)
        assert len(predictions) == 4
        assert all(np.isfinite(p["score"]) for p in predictions)


class TestCache:
    def test_repeat_query_hits_cache(self, tmp_path, tiny_dataset):
        _, path = _checkpoint(tmp_path)
        engine = InferenceEngine.from_checkpoint(path, batch_window_s=0.0)
        engine.store.warm_up(tiny_dataset.train)
        engine.predict(0, 1)
        calls = engine.stats()["predict_calls"]
        engine.predict(0, 1)
        assert engine.stats()["predict_calls"] == calls
        assert engine.cache.hits >= 1

    def test_rollover_invalidates(self, tmp_path, tiny_dataset):
        _, path = _checkpoint(tmp_path)
        engine = InferenceEngine.from_checkpoint(path, batch_window_s=0.0)
        engine.store.warm_up(tiny_dataset.train)
        engine.predict(0, 1)
        calls = engine.stats()["predict_calls"]
        t = engine.store.current_time + 1
        engine.ingest([[0, 1, 2]], timestamp=t)
        engine.flush()  # rollover -> new window_version
        engine.predict(0, 1)
        assert engine.stats()["predict_calls"] == calls + 1

    def test_hot_reload_invalidates_same_window_version(
        self, tmp_path, tiny_dataset
    ):
        # regression: the cache key once ignored model.version, so a
        # weight reload with an unchanged window served stale scores
        _, path = _checkpoint(tmp_path)
        engine = InferenceEngine.from_checkpoint(path, batch_window_s=0.0)
        engine.store.warm_up(tiny_dataset.train)
        before = engine.predict(0, 1, top_k=5)
        window_version = engine.store.window_version
        fresh = build_model("distmult", 25, 5, dim=8)
        new_path = str(tmp_path / "retrained.npz")
        save_checkpoint(fresh, new_path)
        info = engine.reload_weights(new_path)
        assert info["model_version"] > 0
        assert engine.store.window_version == window_version  # no rollover
        after = engine.predict(0, 1, top_k=5)
        assert after != before  # new weights, not the cached response
        # and the answer matches an engine that never saw the old weights
        control = InferenceEngine(
            fresh, engine.store, model_key="distmult", batch_window_s=0.0
        )
        assert after == control.predict(0, 1, top_k=5)

    def test_predict_many_single_forward_pass(self, tmp_path, tiny_dataset):
        _, path = _checkpoint(tmp_path)
        engine = InferenceEngine.from_checkpoint(path, batch_window_s=0.0)
        engine.store.warm_up(tiny_dataset.train)
        queries = [{"subject": s, "relation": r} for s in range(4) for r in range(3)]
        results = engine.predict_many(queries, default_top_k=2)
        assert len(results) == 12
        assert engine.stats()["predict_calls"] == 1
        assert all(len(r["predictions"]) == 2 for r in results)


class TestMicroBatcher:
    def test_concurrent_submits_coalesce(self, tmp_path, tiny_dataset):
        _, path = _checkpoint(tmp_path)
        engine = InferenceEngine.from_checkpoint(path, batch_window_s=0.25)
        engine.store.warm_up(tiny_dataset.train)
        barrier = threading.Barrier(6)
        results = {}

        def worker(i):
            barrier.wait()
            results[i] = engine.predict(i, i % 5, top_k=3)

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(results) == 6
        stats = engine.stats()
        assert stats["batching"]["max_batch_size"] >= 2
        assert stats["predict_calls"] < 6

    def test_batched_results_match_sequential(self, tmp_path, tiny_dataset):
        _, path = _checkpoint(tmp_path)
        engine = InferenceEngine.from_checkpoint(path, batch_window_s=0.1)
        engine.store.warm_up(tiny_dataset.train)
        sequential = {
            (s, r): engine._execute_batch([(s, r)])[(s, r)]
            for s in range(3) for r in range(2)
        }
        engine.cache.clear()
        outputs = {}
        threads = [
            threading.Thread(
                target=lambda s=s, r=r: outputs.__setitem__((s, r), engine.scores_for(s, r))
            )
            for s in range(3) for r in range(2)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        for pair, expected in sequential.items():
            np.testing.assert_allclose(outputs[pair], expected, rtol=1e-10)

    def test_execute_errors_propagate_to_all_waiters(self):
        def explode(pairs):
            raise RuntimeError("boom")

        batcher = MicroBatcher(explode, window_s=0.0)
        with pytest.raises(RuntimeError, match="boom"):
            batcher.submit((0, 0))
        # the batcher recovers for the next submit
        with pytest.raises(RuntimeError, match="boom"):
            batcher.submit((1, 1))


class TestHotPairRefresh:
    def test_refresh_refills_cache_for_hot_pairs(self, tmp_path, tiny_dataset):
        _, path = _checkpoint(tmp_path)
        engine = InferenceEngine.from_checkpoint(path, batch_window_s=0.0)
        engine.store.warm_up(tiny_dataset.train)
        expected = {(s, r): engine.scores_for(s, r) for s in range(3) for r in range(2)}
        assert engine.stats()["hot_pairs_tracked"] == 6
        t = engine.store.current_time + 1
        engine.ingest([[0, 1, 2]], timestamp=t)
        engine.flush()  # rollover: every cached score is now stale
        outcome = engine.refresh_hot_pairs()
        assert outcome["refreshed"] == 6
        assert outcome["window_version"] == engine.store.window_version
        # the refreshed entries serve without another predict call
        calls = engine.stats()["predict_calls"]
        fresh = {(s, r): engine.scores_for(s, r) for s in range(3) for r in range(2)}
        assert engine.stats()["predict_calls"] == calls
        # and they are the scores the cold path would compute
        for (s, r), scores in fresh.items():
            window = engine.store.window_for(
                np.array([[s, r, 0, 0]], dtype=np.int64)
            )
            cold = np.asarray(engine.model.predict_entities(
                window, np.array([[s, r, 0, 0]], dtype=np.int64)
            ))[0]
            np.testing.assert_allclose(scores, cold, rtol=1e-12)
        assert any(np.any(fresh[p] != expected[p]) for p in fresh)

    def test_refresh_with_no_traffic_is_a_noop(self, tmp_path, tiny_dataset):
        _, path = _checkpoint(tmp_path)
        engine = InferenceEngine.from_checkpoint(path, batch_window_s=0.0)
        engine.store.warm_up(tiny_dataset.train)
        assert engine.refresh_hot_pairs() == {"refreshed": 0}

    def test_hot_ring_is_bounded(self, tmp_path, tiny_dataset):
        _, path = _checkpoint(tmp_path)
        engine = InferenceEngine.from_checkpoint(path, batch_window_s=0.0)
        engine.store.warm_up(tiny_dataset.train)
        engine.hot_pairs.capacity = 4
        for s in range(8):
            engine.scores_for(s, 0)
        assert engine.stats()["hot_pairs_tracked"] == 4
        # oldest pairs evicted, newest retained
        assert engine.hot_pairs.keys() == [(4, 0), (5, 0), (6, 0), (7, 0)]
