"""Online inference engine: checkpoint in, micro-batched top-k out.

:class:`InferenceEngine` glues a registered model to an
:class:`~repro.serving.store.OnlineHistoryStore` and adds the two
things a server needs that the offline stack does not have:

- a **prediction cache** — score vectors keyed on ``(model, s, r,
  window_version)``; a hit skips the forward pass entirely and the key
  scheme makes every entry self-invalidating on snapshot rollover;
- a **micro-batcher** — concurrent ``predict`` calls from the threaded
  HTTP frontend coalesce into *one* decode pass (the per-query cost is
  dominated by the shared graph encoding, so batching is nearly free
  throughput).

Beneath the per-pair prediction cache sits the **encoder-state cache**
(:class:`repro.core.execution.EncoderStateCache`): a prediction-cache
miss still reuses the expensive window encode whenever the window
*content* is unchanged — e.g. distinct cold (s, r) pairs on a quiet
window share one encoder state and differ only in the cheap decode.
"""

from __future__ import annotations

import threading
import time
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.config import WindowConfig
from repro.core.execution import (
    EncoderStateCache,
    ExecutionPlan,
    ScopedExecutionPlan,
    TimelineBatcher,
    TimelineStep,
    topk_ranked,
)
from repro.graphs.sampler import NeighborSampler
from repro.nn.serialization import load_checkpoint, read_checkpoint_metadata
from repro.obs.cache import LRUCache
from repro.obs.metrics import get_registry
from repro.obs.trace import span
from repro.serving.store import OnlineHistoryStore


class _BatchItem:
    """One in-flight query inside the micro-batcher."""

    __slots__ = ("pair", "scores", "error", "ready")

    def __init__(self, pair: Tuple[int, int]):
        self.pair = pair
        self.scores: Optional[np.ndarray] = None
        self.error: Optional[BaseException] = None
        self.ready = False


class MicroBatcher:
    """Coalesce concurrent score requests into one batched execution.

    The first thread to find no active leader becomes the leader: it
    waits ``window_s`` for followers to enqueue, drains the queue, and
    runs ``execute(pairs) -> {pair: scores}`` once for the whole batch.
    Followers block until their item is published (or a new leader
    election picks them up).
    """

    def __init__(self, execute, window_s: float = 0.002, max_batch: int = 1024):
        self._execute = execute
        self.window_s = window_s
        self.max_batch = max_batch
        self._cv = threading.Condition()
        self._queue: List[_BatchItem] = []
        self._leader_active = False
        self.batches = 0
        self.batched_queries = 0
        self.max_batch_size = 0

    def submit(self, pair: Tuple[int, int]) -> np.ndarray:
        item = _BatchItem(pair)
        with self._cv:
            self._queue.append(item)
            while not item.ready and self._leader_active:
                self._cv.wait(timeout=0.05)
            if item.ready:
                if item.error is not None:
                    raise item.error
                return item.scores
            self._leader_active = True
        # --- leader path (lock released so followers can enqueue) ---
        if self.window_s > 0:
            time.sleep(self.window_s)
        with self._cv:
            batch, self._queue = self._queue[: self.max_batch], self._queue[self.max_batch :]
        try:
            results = self._execute([b.pair for b in batch])
            for b in batch:
                b.scores = results[b.pair]
                b.ready = True
        except BaseException as exc:  # propagate to every waiter
            for b in batch:
                b.error = exc
                b.ready = True
        finally:
            with self._cv:
                self._leader_active = False
                self.batches += 1
                self.batched_queries += len(batch)
                self.max_batch_size = max(self.max_batch_size, len(batch))
                self._cv.notify_all()
        if item.error is not None:
            raise item.error
        return item.scores

    def stats(self) -> Dict[str, object]:
        mean = self.batched_queries / self.batches if self.batches else 0.0
        return {
            "batches": self.batches,
            "batched_queries": self.batched_queries,
            "max_batch_size": self.max_batch_size,
            "mean_batch_size": round(mean, 3),
            "window_ms": self.window_s * 1e3,
        }


class InferenceEngine:
    """Serve top-k object predictions for ``(s, r, ?, t)`` queries.

    Args:
        model: a registered model (HisRES or any baseline); requests
            score through its :class:`~repro.core.execution.ExecutionPlan`.
        store: the online history state (shared with ingestion).
        model_key: registry key, used in cache keys and ``/stats``.
        cache_entries: per-pair prediction LRU capacity (0 disables).
        batch_window_s: how long a micro-batch leader waits for
            followers; 0 batches only what is already queued.
        state_cache_entries: encoder-state cache capacity (0 disables);
            sits beneath the prediction cache, keyed on window content.
        state_cache: pre-built encoder-state cache to use instead of
            constructing one — the cluster injects a
            :class:`~repro.serving.state_tier.TieredStateCache` here so
            worker replicas consult the shared on-disk tier before
            encoding.  Overrides ``state_cache_entries``.
        scoped_cold_start: fan-out spec (e.g. ``"8,4"``) enabling the
            sampled cold-miss path: when the state cache holds no full
            encode for the current window, the request decodes through
            the :class:`~repro.core.execution.ScopedExecutionPlan`
            (cost bounded by the batch's fan-in, not entity count)
            while a background thread warms the full encode.  None (the
            default) keeps every request on the full-graph plan.
    """

    def __init__(
        self,
        model,
        store: OnlineHistoryStore,
        model_key: str = "model",
        cache_entries: int = 4096,
        batch_window_s: float = 0.002,
        metadata: Optional[Dict] = None,
        state_cache_entries: int = 8,
        state_cache: Optional[EncoderStateCache] = None,
        scoped_cold_start: Optional[str] = None,
    ):
        self.model = model
        self.store = store
        self.model_key = model_key
        self.metadata = dict(metadata or {})
        self.cache = LRUCache(cache_entries, cache="prediction", owner="serving")
        if state_cache is not None:
            self.state_cache = state_cache
        else:
            self.state_cache = (
                EncoderStateCache(capacity=state_cache_entries, owner="serving")
                if state_cache_entries
                else None
            )
        self.plan = ExecutionPlan(model, cache=self.state_cache, model_key=model_key)
        self.scoped_plan: Optional[ScopedExecutionPlan] = None
        if scoped_cold_start is not None:
            candidate = ScopedExecutionPlan(
                self.plan, NeighborSampler(scoped_cold_start, owner="serving")
            )
            # fused models and static embedders can't scope; leave None
            # so the cold-miss branch never triggers for them
            if candidate.supports_scoping and self.state_cache is not None:
                self.scoped_plan = candidate
        # all decodes (request path, warm refresh, hot-pair refresh) run
        # through the batched timeline plane so serving shares the
        # evaluator's blocked tile-grid decode and its observability
        self._timeline = TimelineBatcher(self.plan, owner="serving")
        self._scoped_timeline = (
            TimelineBatcher(self.scoped_plan, owner="serving.scoped")
            if self.scoped_plan is not None
            else None
        )
        # recency ring of distinct (s, r) pairs for refresh_hot_pairs
        self.hot_pairs = LRUCache(1024, cache="hot_pairs", owner="serving")
        encode_family = get_registry().counter(
            "repro_engine_encode_total",
            "Engine decode executions by encode mode (full vs scoped cold-miss).",
            labelnames=("mode",),
        )
        self._encode_counters = {
            mode: encode_family.labels(mode=mode) for mode in ("full", "scoped")
        }
        # per-instance view (the registry series are process-wide)
        self._encode_mode_counts = {"full": 0, "scoped": 0}
        self._warm_lock = threading.Lock()
        self._warming: set = set()
        self._warm_threads: List[threading.Thread] = []
        self._batcher = MicroBatcher(self._execute_batch, window_s=batch_window_s)
        # best-effort "how was the most recent batch answered" snapshot
        # for the audit plane; written under the batcher's execution,
        # read without a lock (a dict replace is atomic in CPython)
        self.last_batch_info: Optional[Dict[str, object]] = None
        self._model_lock = threading.Lock()
        self._predict_calls = 0
        self._queries_served = 0
        if hasattr(self.model, "eval"):
            self.model.eval()

    # ------------------------------------------------------------------
    @classmethod
    def from_checkpoint(
        cls,
        path: str,
        cache_entries: int = 4096,
        batch_window_s: float = 0.002,
        state_cache_entries: int = 8,
        scoped_cold_start: Optional[str] = None,
        graph_cache_entries: Optional[int] = None,
        **overrides,
    ) -> "InferenceEngine":
        """Build model + store from a ``repro.cli train --save`` checkpoint.

        The checkpoint metadata must carry ``model`` (registry key),
        ``num_entities``, ``num_relations``, and ``dim``; the ``window``
        sub-dict restores the training-time window configuration.
        ``overrides`` replace individual window keys (e.g.
        ``history_length=8``); ``graph_cache_entries`` sets the store's
        WindowBuilder graph-cache LRU capacity (it is the window-config
        ``cache_entries`` field, named apart from the prediction-cache
        ``cache_entries`` argument above).
        """
        from repro.baselines import build_model

        if graph_cache_entries is not None:
            overrides.setdefault("cache_entries", int(graph_cache_entries))
        meta = read_checkpoint_metadata(path)
        required = ("model", "num_entities", "num_relations")
        missing = [key for key in required if key not in meta]
        if missing:
            raise ValueError(
                f"checkpoint {path!r} lacks serving metadata {missing}; "
                "re-save it with `repro.cli train --save` or pass a metadata "
                "dict with model/num_entities/num_relations"
            )
        model_key = meta["model"]
        model = build_model(
            model_key,
            int(meta["num_entities"]),
            int(meta["num_relations"]),
            dim=int(meta.get("dim", 32)),
        )
        load_checkpoint(model, path)
        window_config = WindowConfig.from_dict(meta.get("window"), **overrides)
        store = OnlineHistoryStore(
            int(meta["num_entities"]),
            int(meta["num_relations"]),
            window_config=window_config,
        )
        return cls(
            model,
            store,
            model_key=model_key,
            cache_entries=cache_entries,
            batch_window_s=batch_window_s,
            metadata=meta,
            state_cache_entries=state_cache_entries,
            scoped_cold_start=scoped_cold_start,
        )

    # ------------------------------------------------------------------
    def ingest(self, events, timestamp: Optional[int] = None) -> Dict[str, object]:
        """Stream events into the history store."""
        with span("engine.ingest"):
            return self.store.ingest(events, timestamp=timestamp)

    def flush(self) -> bool:
        """Seal the open snapshot so it becomes visible to predictions."""
        return self.store.flush()

    # ------------------------------------------------------------------
    def _score_range(self) -> Tuple[int, int]:
        """Candidate entity range this engine decodes over.

        The base engine owns the whole vocabulary; a cluster
        :class:`~repro.serving.shard.ShardEngine` overrides this with
        its contiguous slice.  Both go through the same tile-grid decode
        so overlapping columns are bitwise-identical.
        """
        return 0, self.store.num_entities

    def _cache_key(self, pair: Tuple[int, int], version: int) -> Tuple:
        """Prediction-cache key: (model, model.version, s, r, window_version).

        ``model.version`` participates so a hot-reload of new weights
        invalidates stale score vectors even when the history window —
        and therefore ``window_version`` — has not moved.
        """
        return (self.model_key, getattr(self.model, "version", 0)) + pair + (version,)

    def _execute_batch(
        self, pairs: Sequence[Tuple[int, int]]
    ) -> Dict[Tuple[int, int], np.ndarray]:
        """One forward pass for every distinct uncached (s, r) pair."""
        version = self.store.window_version
        results: Dict[Tuple[int, int], np.ndarray] = {}
        todo: List[Tuple[int, int]] = []
        for pair in dict.fromkeys(pairs):  # dedup, keep order
            scores = self.cache.get(self._cache_key(pair, version))
            if scores is not None:
                results[pair] = scores
            else:
                todo.append(pair)
            self.hot_pairs.put(pair, None)
        if todo:
            queries = np.zeros((len(todo), 4), dtype=np.int64)
            for i, (s, r) in enumerate(todo):
                queries[i, 0] = s
                queries[i, 1] = r
            lo, hi = self._score_range()
            scoped = False
            with span("engine.predict_batch", batch=len(pairs), misses=len(todo)):
                with self._model_lock:
                    window = self.store.window_for(queries)
                    scoped = (
                        self.scoped_plan is not None
                        and self.state_cache.peek(self.model, window, self.model_key) is None
                    )
                    # cold miss: answer from the sampled fan-in closure
                    # now, warm the full encode off-path; either way the
                    # decode runs on the batched timeline plane
                    batcher = self._scoped_timeline if scoped else self._timeline
                    scores = self._blocked_scores(batcher, window, queries, lo, hi)
                    self._predict_calls += 1
            mode = "scoped" if scoped else "full"
            self._encode_counters[mode].inc()
            self._encode_mode_counts[mode] += 1
            self.last_batch_info = {
                "encode_mode": mode,
                "batch": len(pairs),
                "cache_misses": len(todo),
            }
            for i, pair in enumerate(todo):
                results[pair] = scores[i]
                if not scoped:
                    # scoped scores approximate out-of-closure candidates;
                    # keep them out of the per-pair prediction cache so the
                    # warmed full encode serves exact scores next time
                    self.cache.put(self._cache_key(pair, version), scores[i])
            if scoped:
                self._spawn_warmup(window, pairs=todo, version=version)
        else:
            self.last_batch_info = {
                "encode_mode": "cached",
                "batch": len(pairs),
                "cache_misses": 0,
            }
        return results

    # ------------------------------------------------------------------
    def _blocked_scores(
        self, batcher: TimelineBatcher, window, queries: np.ndarray, lo: int, hi: int
    ) -> np.ndarray:
        """One-step timeline walk: serving decodes through the same
        blocked tile-grid plane as the evaluator, so sharded and
        single-process scores stay bitwise sub-arrays of each other."""
        step = TimelineStep(int(window.prediction_time), window, queries)
        for _, rows, _ in batcher.run([step], entities=True, lo=lo, hi=hi):
            return np.asarray(rows)
        raise RuntimeError("timeline batcher yielded no rows")

    def _refresh_pairs(self, window, pairs: List[Tuple[int, int]], version: int) -> int:
        """Pre-score ``pairs`` against ``window`` into the prediction cache."""
        if not pairs:
            return 0
        queries = np.zeros((len(pairs), 4), dtype=np.int64)
        for i, (s, r) in enumerate(pairs):
            queries[i, 0] = s
            queries[i, 1] = r
        lo, hi = self._score_range()
        with span("engine.refresh_pairs", pairs=len(pairs)):
            with self._model_lock:
                scores = self._blocked_scores(self._timeline, window, queries, lo, hi)
        for i, pair in enumerate(pairs):
            self.cache.put(self._cache_key(pair, version), scores[i])
        return len(pairs)

    def _spawn_warmup(
        self,
        window,
        pairs: Sequence[Tuple[int, int]] = (),
        version: Optional[int] = None,
    ) -> None:
        """Single-flight background full encode for a scoped cold miss.

        After the warm encode lands, the pairs that triggered the miss
        are re-scored from the warmed state through the batched timeline
        plane and written to the prediction cache — the next request for
        them serves exact scores without paying a decode.
        """
        fingerprint = window.fingerprint()
        with self._warm_lock:
            if fingerprint in self._warming:
                return
            self._warming.add(fingerprint)

        def warm() -> None:
            try:
                with span("engine.warm_encode", owner=self.model_key):
                    with self._model_lock:
                        self.plan.encode(window)
                if pairs and version is not None and self.store.window_version == version:
                    self._refresh_pairs(window, list(pairs), version)
            finally:
                with self._warm_lock:
                    self._warming.discard(fingerprint)

        thread = threading.Thread(target=warm, daemon=True, name="engine-warm-encode")
        with self._warm_lock:
            self._warm_threads = [t for t in self._warm_threads if t.is_alive()]
            self._warm_threads.append(thread)
        thread.start()

    def join_warmups(self, timeout: Optional[float] = None) -> None:
        """Wait for in-flight warm encodes (test/shutdown hook)."""
        with self._warm_lock:
            threads = list(self._warm_threads)
        for thread in threads:
            thread.join(timeout=timeout)

    def reload_weights(self, path: str) -> Dict[str, object]:
        """Hot-swap model weights from a checkpoint without restarting.

        ``load_checkpoint`` bumps ``model.version``, so every
        prediction-cache and encoder-state-cache entry keyed on the old
        version dies naturally — even if ``window_version`` is
        unchanged (the regression this fixes: identical window, new
        weights, stale cached scores).
        """
        with self._model_lock:
            load_checkpoint(self.model, path)
            if hasattr(self.model, "eval"):
                self.model.eval()
            return {
                "reloaded": path,
                "model_version": getattr(self.model, "version", 0),
            }

    def refresh_hot_pairs(self, limit: int = 256) -> Dict[str, object]:
        """Pre-score the most recently requested (s, r) pairs.

        One blocked decode through the batched timeline plane refills
        the prediction cache against the *current* window — the warm
        path to call after :meth:`reload_weights` or a snapshot
        rollover, so the next wave of requests for hot pairs is served
        from cache instead of paying per-request decodes.
        """
        pairs = self.hot_pairs.keys()[-max(0, int(limit)):]
        if not pairs:
            return {"refreshed": 0}
        version = self.store.window_version
        probe = np.zeros((len(pairs), 4), dtype=np.int64)
        for i, (s, r) in enumerate(pairs):
            probe[i, 0] = s
            probe[i, 1] = r
        with self._model_lock:
            window = self.store.window_for(probe)
        refreshed = self._refresh_pairs(window, pairs, version)
        return {"refreshed": refreshed, "window_version": version}

    def _checked_pair(self, subject: int, relation: int, inverse: bool) -> Tuple[int, int]:
        """Validate and map to the doubled relation space."""
        subject, relation = int(subject), int(relation)
        rel = relation + self.store.num_relations if inverse else relation
        if not (0 <= subject < self.store.num_entities):
            raise ValueError(f"subject {subject} out of range")
        if not (0 <= rel < 2 * self.store.num_relations):
            raise ValueError(f"relation {relation} out of range")
        return subject, rel

    @staticmethod
    def _top_k(scores: np.ndarray, top_k: int) -> List[Dict[str, object]]:
        ids, values = topk_ranked(scores, top_k)
        return [
            {"entity": int(e), "score": float(v), "rank": i + 1}
            for i, (e, v) in enumerate(zip(ids, values))
        ]

    def scores_for(self, subject: int, relation: int, inverse: bool = False) -> np.ndarray:
        """Full score vector over entities (cache + micro-batch path)."""
        pair = self._checked_pair(subject, relation, inverse)
        self._queries_served += 1
        return self._batcher.submit(pair)

    def predict(
        self,
        subject: int,
        relation: int,
        top_k: int = 10,
        inverse: bool = False,
    ) -> List[Dict[str, object]]:
        """Top-k objects for one ``(s, r, ?)`` query.

        ``inverse=True`` asks for subjects of ``(?, r, subject)`` via
        the doubled relation space.  Concurrent callers coalesce into
        one forward pass through the micro-batcher.
        """
        return self._top_k(self.scores_for(subject, relation, inverse), top_k)

    def predict_many(self, queries: Sequence[Dict], default_top_k: int = 10) -> List[Dict]:
        """Answer a list of query dicts with ONE batched forward pass.

        Each query: ``{"subject": s, "relation": r, "top_k"?: k,
        "inverse"?: bool}``.  The whole list is deduplicated and scored
        in a single blocked decode (modulo cache hits).
        """
        parsed = [
            (
                self._checked_pair(q["subject"], q["relation"], bool(q.get("inverse", False))),
                int(q.get("top_k", default_top_k)),
                q,
            )
            for q in queries
        ]
        self._queries_served += len(parsed)
        score_map = self._execute_batch([pair for pair, _, _ in parsed])
        return [
            {
                "subject": int(q["subject"]),
                "relation": int(q["relation"]),
                "inverse": bool(q.get("inverse", False)),
                "predictions": self._top_k(score_map[pair], k),
            }
            for pair, k, q in parsed
        ]

    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, object]:
        return {
            "model": self.model_key,
            "queries_served": self._queries_served,
            "predict_calls": self._predict_calls,
            "cache": {**self.cache.stats(), "max_entries": self.cache.capacity},
            "state_cache": None if self.state_cache is None else self.state_cache.stats(),
            "batching": self._batcher.stats(),
            "store": self.store.stats(),
            "encode_modes": dict(self._encode_mode_counts),
            "scoped_cold_start": None if self.scoped_plan is None else self.scoped_plan.stats(),
            "hot_pairs_tracked": len(self.hot_pairs),
        }
