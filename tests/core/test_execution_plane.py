"""Encode-once execution plane: state cache, parity, and plan contracts.

The acceptance-critical properties live here:

- exactly one live encode per distinct (timestamp, window fingerprint),
  asserted through the cache counters;
- the cached-state decode path is *bitwise* identical (float64) to the
  fused ``forward`` / ``predict_entities`` path, across the evaluator
  two-phase route and the serving micro-batch route;
- cache keys include model version and dtype, so weight updates and
  dtype switches can never resurrect stale states;
- fused models (vocabulary masks, per-query subgraphs) flow through the
  same plan without ever polluting the cache.
"""

import numpy as np
import pytest

from repro.baselines import MODEL_REGISTRY, build_model
from repro.core import HisRES, HisRESConfig
from repro.core.config import WindowConfig
from repro.core.execution import (
    EncoderState,
    EncoderStateCache,
    ExecutionPlan,
    make_fused_state,
)
from repro.core.window import WindowBuilder
from repro.training import TimelineEvaluator

E, R = 24, 5


def _window(builder=None, t=4, num_snapshots=4, seed=0):
    rng = np.random.default_rng(seed)
    builder = builder or WindowBuilder(E, R, history_length=2, use_global=True)
    for ts in range(num_snapshots):
        quads = np.stack(
            [
                rng.integers(0, E, 8),
                rng.integers(0, R, 8),
                rng.integers(0, E, 8),
                np.full(8, ts),
            ],
            axis=1,
        ).astype(np.int64)
        builder.absorb(quads)
    queries = np.array([[0, 1, 2, t], [3, 2, 4, t], [5, 0, 6, t]], dtype=np.int64)
    return builder.window_for(queries, prediction_time=t), queries, builder


def _hisres(dim=8):
    config = HisRESConfig(
        embedding_dim=dim, history_length=2, decoder_channels=4, dropout=0.0
    )
    return HisRES(E, R, config)


class TestEncoderStateCache:
    def test_one_encode_per_fingerprint(self):
        model = _hisres()
        window, queries, _ = _window()
        cache = EncoderStateCache(capacity=4, owner="test")
        plan = ExecutionPlan(model, cache=cache)
        first = plan.entity_scores(window, queries)
        second = plan.entity_scores(window, queries)
        assert cache.misses == 1 and cache.hits == 1
        np.testing.assert_array_equal(first, second)

    def test_distinct_windows_distinct_encodes(self):
        model = _hisres()
        cache = EncoderStateCache(capacity=4, owner="test")
        plan = ExecutionPlan(model, cache=cache)
        w1, q, _ = _window(seed=0)
        w2, _, _ = _window(seed=1)
        plan.entity_scores(w1, q)
        plan.entity_scores(w2, q)
        assert cache.misses == 2 and cache.hits == 0

    def test_lru_eviction(self):
        model = _hisres()
        cache = EncoderStateCache(capacity=1, owner="test")
        plan = ExecutionPlan(model, cache=cache)
        w1, q, _ = _window(seed=0)
        w2, _, _ = _window(seed=1)
        plan.entity_scores(w1, q)
        plan.entity_scores(w2, q)  # evicts w1's state
        plan.entity_scores(w1, q)  # miss again
        assert cache.evictions >= 1 and cache.misses == 3
        assert len(cache) == 1

    def test_model_version_invalidates(self):
        model = _hisres()
        cache = EncoderStateCache(capacity=4, owner="test")
        plan = ExecutionPlan(model, cache=cache)
        window, queries, _ = _window()
        plan.entity_scores(window, queries)
        model.bump_version()
        plan.entity_scores(window, queries)
        assert cache.misses == 2 and cache.hits == 0

    def test_load_state_dict_bumps_version(self):
        model = _hisres()
        before = model.version
        model.load_state_dict(model.state_dict())
        assert model.version == before + 1

    def test_zero_capacity_never_stores(self):
        model = _hisres()
        cache = EncoderStateCache(capacity=0, owner="test")
        plan = ExecutionPlan(model, cache=cache)
        window, queries, _ = _window()
        plan.entity_scores(window, queries)
        plan.entity_scores(window, queries)
        assert cache.misses == 2 and len(cache) == 0

    def test_fused_states_never_cached(self):
        model = build_model("cygnet", E, R, dim=8)
        assert not model.supports_encode_split
        cache = EncoderStateCache(capacity=4, owner="test")
        plan = ExecutionPlan(model, cache=cache)
        builder = WindowBuilder(E, R, history_length=2, use_global=False,
                                track_vocabulary=True)
        window, queries, _ = _window(builder=builder)
        scores = plan.entity_scores(window, queries)
        assert scores.shape == (3, E)
        # the plan bypasses the cache entirely for fused models
        assert cache.misses == 0 and len(cache) == 0
        fused = model.encode(window)
        assert fused.fused and not fused.cacheable

    def test_stats_and_registry_counters(self):
        from repro.obs.metrics import get_registry

        model = _hisres()
        cache = EncoderStateCache(capacity=4, owner="stats_test")
        plan = ExecutionPlan(model, cache=cache)
        window, queries, _ = _window()
        plan.entity_scores(window, queries)
        plan.entity_scores(window, queries)
        stats = cache.stats()
        assert stats["hits"] == 1 and stats["misses"] == 1
        assert stats["hit_rate"] == pytest.approx(0.5)
        text = get_registry().render_prometheus()
        assert (
            'repro_cache_events_total{cache="encoder_state",owner="stats_test",event="hit"} 1'
            in text
        )
        assert (
            'repro_cache_events_total{cache="encoder_state",owner="stats_test",event="miss"} 1'
            in text
        )


SPLIT_KEYS = sorted(
    key
    for key in MODEL_REGISTRY
    if getattr(build_model(key, E, R, dim=8), "supports_encode_split", False)
)
FUSED_KEYS = sorted(set(MODEL_REGISTRY) - set(SPLIT_KEYS))


class TestFloat64Parity:
    @pytest.mark.parametrize("key", SPLIT_KEYS)
    def test_cached_decode_matches_fused_forward(self, key):
        from repro.training import seed_everything

        spec = MODEL_REGISTRY[key]
        # two identically-initialised instances so stateful encoders
        # (HGLS's entity memory observes every encoded window) see the
        # window exactly once on each route
        seed_everything(7)
        fused_model = build_model(key, E, R, dim=8)
        seed_everything(7)
        plan_model = build_model(key, E, R, dim=8)
        fused_model.eval()
        plan_model.eval()
        builder = WindowBuilder(
            E, R, history_length=2,
            use_global=spec.requirements.global_graph,
            track_vocabulary=spec.requirements.vocabulary,
        )
        window, queries, _ = _window(builder=builder)
        fused = np.asarray(fused_model.predict_entities(window, queries))
        plan = ExecutionPlan(
            plan_model, cache=EncoderStateCache(capacity=4, owner="parity")
        )
        plan.entity_scores(window, queries)            # prime the cache
        cached = plan.entity_scores(window, queries)   # decode from cache
        assert plan.cache.hits >= 1
        np.testing.assert_allclose(cached, fused, atol=1e-9, rtol=0.0)

    @pytest.mark.parametrize("key", FUSED_KEYS)
    def test_fused_shim_matches_predict_entities(self, key):
        spec = MODEL_REGISTRY[key]
        model = build_model(key, E, R, dim=8)
        model.eval()
        builder = WindowBuilder(
            E, R, history_length=2,
            use_global=spec.requirements.global_graph,
            track_vocabulary=spec.requirements.vocabulary,
        )
        window, queries, _ = _window(builder=builder)
        direct = np.asarray(model.predict_entities(window, queries))
        plan = ExecutionPlan(model, cache=EncoderStateCache(capacity=4, owner="parity"))
        via_plan = plan.entity_scores(window, queries)
        np.testing.assert_allclose(via_plan, direct, atol=1e-9, rtol=0.0)

    def test_hisres_two_phase_eval_bitwise(self, tiny_dataset):
        """Evaluator metrics through the plan == fused predict path, bitwise."""
        config = HisRESConfig(embedding_dim=8, history_length=2,
                              decoder_channels=4, dropout=0.0)
        model = HisRES(tiny_dataset.num_entities, tiny_dataset.num_relations, config)
        model.eval()
        evaluator = TimelineEvaluator(tiny_dataset)
        builder = WindowBuilder(
            tiny_dataset.num_entities, tiny_dataset.num_relations,
            history_length=2, use_global=True,
        )
        plan = evaluator.make_plan(model)
        cached_result = evaluator.evaluate_walk(
            model, builder, tiny_dataset.valid,
            warmup_splits=(tiny_dataset.train,),
            max_timestamps=3, two_phase=True, plan=plan,
        )
        assert plan.cache.misses > 0

        # fused reference: no cache, plain predict_entities per phase
        uncached = evaluator.evaluate_walk(
            model, builder, tiny_dataset.valid,
            warmup_splits=(tiny_dataset.train,),
            max_timestamps=3, two_phase=True,
            plan=ExecutionPlan(model, cache=None),
        )
        assert cached_result.mrr == uncached.mrr          # bitwise
        assert cached_result.ranks.tolist() == uncached.ranks.tolist()

    def test_joint_eval_one_encode_per_timestamp(self, tiny_dataset):
        model = HisRES(
            tiny_dataset.num_entities, tiny_dataset.num_relations,
            HisRESConfig(embedding_dim=8, history_length=2,
                         decoder_channels=4, dropout=0.0),
        )
        model.eval()
        evaluator = TimelineEvaluator(tiny_dataset)
        builder = WindowBuilder(
            tiny_dataset.num_entities, tiny_dataset.num_relations,
            history_length=2, use_global=True,
        )
        plan = evaluator.make_plan(model)
        n = min(3, len(tiny_dataset.valid.facts_by_time()))
        from repro.obs.metrics import get_registry

        events = get_registry().get("repro_cache_events_total")
        miss_counter = events.labels(cache="encoder_state", owner="evaluator", event="miss")
        hit_counter = events.labels(cache="encoder_state", owner="evaluator", event="hit")
        misses_before, hits_before = miss_counter.value, hit_counter.value
        entity_result, relation_result = evaluator.evaluate_joint(
            model, builder, tiny_dataset.valid,
            warmup_splits=(tiny_dataset.train,),
            max_timestamps=3, plan=plan,
        )
        assert relation_result is not None
        # exactly one encode per distinct (timestamp, window fingerprint),
        # shared by entity + relation decoding — on the registry counters
        assert miss_counter.value - misses_before == n
        assert hit_counter.value - hits_before == 0
        assert plan.cache.misses == n and plan.cache.hits == 0
        assert 0.0 < entity_result.mrr <= 1.0

    def test_entity_then_relation_walk_reuses_states(self, tiny_dataset):
        model = HisRES(
            tiny_dataset.num_entities, tiny_dataset.num_relations,
            HisRESConfig(embedding_dim=8, history_length=2,
                         decoder_channels=4, dropout=0.0),
        )
        model.eval()
        evaluator = TimelineEvaluator(tiny_dataset)
        builder = WindowBuilder(
            tiny_dataset.num_entities, tiny_dataset.num_relations,
            history_length=2, use_global=True,
        )
        plan = evaluator.make_plan(model)
        n = min(3, len(tiny_dataset.valid.facts_by_time()))
        evaluator.evaluate_walk(
            model, builder, tiny_dataset.valid,
            warmup_splits=(tiny_dataset.train,), max_timestamps=3, plan=plan,
        )
        misses_after_entities = plan.cache.misses
        evaluator.evaluate_relations(
            model, builder, tiny_dataset.valid,
            warmup_splits=(tiny_dataset.train,), max_timestamps=3, plan=plan,
        )
        # the relation walk replays identical windows: decode-only
        assert plan.cache.misses == misses_after_entities
        assert plan.cache.hits >= n


class TestServingRoute:
    def _engine(self, tmp_path, state_cache_entries=8, use_global=True):
        from repro.nn.serialization import save_checkpoint
        from repro.serving import InferenceEngine

        model = build_model("hisres", E, R, dim=8)
        path = str(tmp_path / "model.npz")
        save_checkpoint(model, path, metadata={
            "model": "hisres", "num_entities": E, "num_relations": R, "dim": 8,
            "window": WindowConfig(history_length=2, use_global=use_global).to_dict(),
        })
        return InferenceEngine.from_checkpoint(
            path, batch_window_s=0.0, state_cache_entries=state_cache_entries,
        )

    def test_micro_batch_parity_with_fused(self, tmp_path):
        engine = self._engine(tmp_path)
        rng = np.random.default_rng(3)
        for ts in range(4):
            quads = np.stack(
                [rng.integers(0, E, 8), rng.integers(0, R, 8),
                 rng.integers(0, E, 8), np.full(8, ts)], axis=1,
            ).astype(np.int64)
            engine.ingest(quads)
        engine.flush()
        scores = engine.scores_for(0, 1)
        queries = np.array([[0, 1, 0, 0]], dtype=np.int64)
        window = engine.store.window_for(queries)
        with engine.model.inference_mode():
            fused = np.asarray(engine.model.predict_entities(window, queries))[0]
        np.testing.assert_allclose(scores, fused, atol=1e-9, rtol=0.0)

    def test_cold_pairs_share_encode_on_quiet_window(self, tmp_path):
        """Distinct uncached (s, r) pairs on an unchanged window hit the
        state cache: the prediction cache misses, the encode is reused.

        Without a global graph the window fingerprint is query-set
        independent, so every cold pair decodes from one shared state.
        (With ``use_global=True`` the globally relevant graph depends on
        the query pairs, so states are shared only between requests with
        matching global subgraphs — see docs/execution_plane.md.)
        """
        engine = self._engine(tmp_path, use_global=False)
        rng = np.random.default_rng(3)
        for ts in range(4):
            quads = np.stack(
                [rng.integers(0, E, 8), rng.integers(0, R, 8),
                 rng.integers(0, E, 8), np.full(8, ts)], axis=1,
            ).astype(np.int64)
            engine.ingest(quads)
        engine.flush()
        engine.predict(0, 1)
        engine.predict(1, 2)  # different pair, same sealed window
        engine.predict(2, 0)
        stats = engine.state_cache.stats()
        assert stats["misses"] >= 1
        assert stats["hits"] >= 1  # cold prediction-cache pairs reused the encode

    def test_window_rollover_invalidates_states(self, tmp_path):
        engine = self._engine(tmp_path)
        rng = np.random.default_rng(3)
        for ts in range(4):
            quads = np.stack(
                [rng.integers(0, E, 8), rng.integers(0, R, 8),
                 rng.integers(0, E, 8), np.full(8, ts)], axis=1,
            ).astype(np.int64)
            engine.ingest(quads)
        engine.flush()
        engine.predict(0, 1)
        misses = engine.state_cache.stats()["misses"]
        engine.ingest(np.array([[1, 1, 2]]), timestamp=10)
        engine.flush()  # window content changed -> new fingerprint
        engine.predict(0, 1)
        assert engine.state_cache.stats()["misses"] == misses + 1

    def test_state_cache_disabled(self, tmp_path):
        engine = self._engine(tmp_path, state_cache_entries=0)
        assert engine.state_cache is None
        assert engine.stats()["state_cache"] is None


class TestExecutionPlanContracts:
    def test_plan_model_mismatch_rejected(self, tiny_dataset):
        evaluator = TimelineEvaluator(tiny_dataset)
        m1, m2 = _hisres(), _hisres()
        plan = ExecutionPlan(m1)
        with pytest.raises(ValueError, match="plan.model"):
            evaluator._resolve_plan(m2, plan)

    def test_relation_scores_requires_joint_model(self):
        model = build_model("distmult", E, R, dim=8)
        plan = ExecutionPlan(model)
        builder = WindowBuilder(E, R, history_length=2, use_global=False)
        window, queries, _ = _window(builder=builder)
        with pytest.raises(TypeError, match="relation decoder"):
            plan.relation_scores(window, queries)

    def test_loss_encodes_live_under_grad(self):
        model = _hisres()
        model.train()
        plan = ExecutionPlan(model, cache=EncoderStateCache(capacity=4, owner="t"))
        window, queries, _ = _window()
        loss = plan.loss(window, queries)
        loss.backward()
        assert plan.cache.misses == 0  # the loss path never touches the cache
        assert any(p.grad is not None for p in model.parameters())


class TestWindowConfig:
    def test_round_trip(self):
        config = WindowConfig(history_length=3, granularity=2, use_global=False,
                              track_vocabulary=True, global_max_history=50)
        assert WindowConfig.from_dict(config.to_dict()) == config

    def test_from_dict_ignores_unknown_keys(self):
        config = WindowConfig.from_dict({"history_length": 5, "future_knob": 1})
        assert config.history_length == 5

    def test_from_dict_overrides_win(self):
        config = WindowConfig.from_dict({"history_length": 5}, history_length=7)
        assert config.history_length == 7

    def test_build_matches_manual_builder(self):
        config = WindowConfig(history_length=3, use_global=True)
        builder = config.build(E, R)
        assert builder.history_length == 3
        assert isinstance(builder, WindowBuilder)

    def test_validation(self):
        with pytest.raises(ValueError):
            WindowConfig(history_length=0)

    def test_checkpoint_round_trip_through_forecaster(self, tmp_path):
        from repro.core import Forecaster
        from repro.nn.serialization import read_checkpoint_metadata

        model = _hisres()
        config = WindowConfig(history_length=3, use_global=True)
        forecaster = Forecaster(model, E, R, window_config=config)
        path = str(tmp_path / "f.npz")
        forecaster.save(path)
        meta = read_checkpoint_metadata(path)
        assert WindowConfig.from_dict(meta["window"]) == config


class TestInferenceMode:
    def test_restores_training_state(self):
        model = _hisres()
        model.train()
        with model.inference_mode():
            assert not model.training
        assert model.training
        model.eval()
        with model.inference_mode():
            assert not model.training
        assert not model.training

    def test_no_grad_inside(self):
        from repro.nn.tensor import Tensor, is_grad_enabled

        model = _hisres()
        with model.inference_mode():
            assert not is_grad_enabled()


class TestEncoderStateDataclass:
    def test_frozen(self):
        state = EncoderState(entity_matrix=None, relation_matrix=None)
        with pytest.raises(Exception):
            state.fused = True

    def test_fused_state_carries_window(self):
        model = build_model("cygnet", E, R, dim=8)
        builder = WindowBuilder(E, R, history_length=2, use_global=False,
                                track_vocabulary=True)
        window, queries, _ = _window(builder=builder)
        state = make_fused_state(model, window)
        assert state.window is window and state.fused
