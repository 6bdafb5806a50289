"""Encode-once execution plane: split encode/decode with cached states.

HisRES (like RE-GCN and HiSMatch) is an encoder–decoder model: the
expensive part is the multi-granularity evolution + global relevance
encode, while decoding a ``(s, r)`` query against the encoded entity
matrix is cheap.  This module makes that split an explicit, shared
contract instead of a private detail of each model:

- :class:`EncoderState` — frozen result of ``model.encode(window)``:
  the evolved entity/relation matrices plus the window fingerprint,
  model version, and dtype they were computed under.  Models that
  genuinely cannot split (per-query vocabulary masks, per-query
  subgraph expansion) return a *fused* state that simply carries the
  window; their decode runs the original fused path and their states
  are never cached.
- :class:`EncoderStateCache` — the :class:`~repro.obs.cache.LRUCache`
  over encoder states, keyed on the window content fingerprint + model
  version + dtype, with a span around every live encode.
- :class:`ExecutionPlan` — the one code path that turns a window into
  scores.  The evaluator, forecaster, serving engine, and trainer all
  go through a plan; training losses still encode live under grad,
  while every no-grad consumer decodes from (possibly cached) states.
- :class:`TimelineBatcher` — the batched evaluation layer above the
  plans.  It scans a chronological (timestamp -> window) walk, groups
  maximal runs of consecutive steps whose windows share a content
  fingerprint, encodes once per group, and scores each group's
  concatenated query block through one blocked range decode on the
  global :data:`DECODE_TILE` grid — bitwise-identical (float64) to
  the per-timestamp path, decode-call count divided by group size.

See ``docs/execution_plane.md`` for the cache-keying rules, in
particular why the globally relevant graph makes the fingerprint
query-set-dependent, and for the batched-walk grouping invariants.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import (
    Any,
    Callable,
    Dict,
    Hashable,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from repro.core.window import HistoryWindow
from repro.nn.tensor import Tensor, concat, get_default_dtype
from repro.obs.cache import LRUCache
from repro.obs.metrics import get_registry
from repro.obs.trace import span

#: Column-tile width of the range-restricted decode grid.  Sharded
#: serving splits the final ``queries @ candidates.T`` score matmul by
#: entity range; BLAS results are only bitwise-reproducible when every
#: participant issues calls of identical shape over identical data, so
#: all range decodes — including the full-range one the single-process
#: engine runs — walk the same *global* tile grid anchored at entity 0.
DECODE_TILE = 1024


def candidate_scores_range(
    query_embeddings: np.ndarray, candidates: np.ndarray, lo: int, hi: int
) -> np.ndarray:
    """Score ``query_embeddings`` against ``candidates[lo:hi]`` tile-wise.

    Computes ``query_embeddings @ candidates[lo:hi].T`` as a walk over
    the global :data:`DECODE_TILE` grid, so any two callers covering
    overlapping entity ranges produce bitwise-identical (float64)
    scores for the shared entities — the invariant the cluster's
    scatter/merge correctness (and its parity tests) rest on.
    """
    query_embeddings = np.asarray(query_embeddings)
    candidates = np.asarray(candidates)
    total = candidates.shape[0]
    lo = max(0, int(lo))
    hi = min(total, int(hi))
    if hi <= lo:
        return np.zeros((query_embeddings.shape[0], 0), dtype=query_embeddings.dtype)
    parts = []
    for a in range((lo // DECODE_TILE) * DECODE_TILE, hi, DECODE_TILE):
        b = min(a + DECODE_TILE, total)
        tile = query_embeddings @ candidates[a:b].T
        parts.append(tile[:, max(lo, a) - a : min(hi, b) - a])
    return parts[0] if len(parts) == 1 else np.concatenate(parts, axis=1)


def topk_ranked(
    scores: np.ndarray, k: int, base: int = 0
) -> Tuple[np.ndarray, np.ndarray]:
    """Deterministic top-k of a 1-D score vector: ``(indices, values)``.

    Ordering is canonical — score descending, then entity id ascending
    on exact ties — so a top-k computed over the full entity space is
    *identical* to the merge of per-shard top-ks (see
    :func:`merge_topk`), which ``np.argpartition`` alone (unspecified
    tie order) does not guarantee.  ``base`` offsets returned indices
    into the global entity space for shard-local score slices.
    """
    scores = np.asarray(scores)
    if scores.size == 0:
        return np.zeros(0, dtype=np.int64), scores
    k = max(1, min(int(k), scores.size))
    part = np.argpartition(scores, scores.size - k)[scores.size - k :]
    # argpartition picks an ARBITRARY subset of elements tied at the
    # k-boundary; widen to every element tied with the boundary score so
    # the canonical sort (not the partition) decides which ties survive
    cand = np.nonzero(scores >= scores[part].min())[0]
    # primary key: score descending; secondary: entity id ascending
    order = np.lexsort((cand, -scores[cand]))[:k]
    idx = cand[order]
    return idx.astype(np.int64) + int(base), scores[idx]


def merge_topk(
    partials: Sequence[Tuple[np.ndarray, np.ndarray]], k: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Merge per-shard ``(indices, values)`` partial top-ks into a global one.

    As long as every shard contributed its own canonical top
    ``min(k, shard_size)`` (:func:`topk_ranked`), the merge equals the
    single-process top-k bitwise: any entity in the global top-k ranks
    in the top-k of its own shard, so it is present in the union.
    """
    ids = np.concatenate([np.asarray(i, dtype=np.int64) for i, _ in partials])
    vals = np.concatenate([np.asarray(v) for _, v in partials])
    if ids.size == 0:
        return ids, vals
    order = np.lexsort((ids, -vals))[: max(1, int(k))]
    return ids[order], vals[order]


@dataclass(frozen=True, eq=False)
class EncoderState:
    """Frozen output of one ``model.encode(window)`` call.

    Attributes:
        entity_matrix: evolved entity embeddings (None for fused states
            and models whose state lives entirely in ``aux``).
        relation_matrix: evolved relation embeddings (or None).
        aux: model-specific extra tensors (e.g. CEN's per-length
            matrices, ComplEx's real/imaginary tables).
        fingerprint: content fingerprint of the window this state was
            encoded from (filled in by the cache layer; None for states
            produced outside a cache).
        model_version: :attr:`repro.nn.module.Module.version` at encode
            time.
        dtype: engine default dtype at encode time.
        prediction_time: the window's prediction timestamp.
        window: the originating window — kept **only** for fused states,
            whose decode still consumes query-dependent window inputs.
        fused: True when the model could not split and decode will
            re-run the fused path.
    """

    entity_matrix: Optional[Tensor]
    relation_matrix: Optional[Tensor]
    aux: Tuple[Tensor, ...] = ()
    fingerprint: Optional[Hashable] = None
    model_version: int = 0
    dtype: str = "float64"
    prediction_time: int = 0
    window: Optional[HistoryWindow] = None
    fused: bool = False

    @property
    def cacheable(self) -> bool:
        """Fused states carry per-query window inputs; never cache them."""
        return not self.fused


def make_state(
    model,
    window: HistoryWindow,
    entity_matrix: Optional[Tensor],
    relation_matrix: Optional[Tensor],
    aux: Tuple[Tensor, ...] = (),
) -> EncoderState:
    """Build a split-model state, stamping model version and dtype."""
    return EncoderState(
        entity_matrix=entity_matrix,
        relation_matrix=relation_matrix,
        aux=tuple(aux),
        model_version=getattr(model, "version", 0),
        dtype=str(get_default_dtype()),
        prediction_time=int(window.prediction_time),
    )


def make_fused_state(model, window: HistoryWindow) -> EncoderState:
    """Fallback shim for models that cannot split encode from decode."""
    return EncoderState(
        entity_matrix=None,
        relation_matrix=None,
        model_version=getattr(model, "version", 0),
        dtype=str(get_default_dtype()),
        prediction_time=int(window.prediction_time),
        window=window,
        fused=True,
    )


class EncoderStateCache(LRUCache):
    """The :class:`~repro.obs.cache.LRUCache` over encoder states.

    Keys are ``(model_key, model_version, dtype, window fingerprint)``:
    a weight update, a dtype switch, or any change to the window
    content each make earlier entries unreachable.  Fused states are
    never stored.  Events land on the registry under
    ``cache="encoder_state"``.
    """

    def __init__(self, capacity: int = 16, owner: str = "plan"):
        super().__init__(capacity=capacity, cache="encoder_state", owner=owner)

    def _key(self, model, model_key: str, fingerprint: Hashable) -> Hashable:
        return (model_key, getattr(model, "version", 0), str(get_default_dtype()), fingerprint)

    def put(self, key: Hashable, state: EncoderState) -> None:
        """Store ``state`` unless it is fused (carries per-query inputs)."""
        if state.cacheable:
            super().put(key, state)

    def _encode_live(self, model, window: HistoryWindow, fingerprint: Hashable) -> EncoderState:
        """One real encode (eval + no-grad), stamped with the fingerprint."""
        with span("encoder.encode", owner=self.owner):
            with model.inference_mode():
                state = model.encode(window)
        return replace(state, fingerprint=fingerprint)

    def peek(self, model, window: HistoryWindow, model_key: str = "model") -> Optional[EncoderState]:
        """Membership probe: the cached state for ``window``, or None.

        Unlike :meth:`get_or_encode` this never encodes and never counts
        a miss — serving uses it to decide whether a cold window should
        fall back to the scoped (sampled) plan instead of paying a full
        encode on the request path.  A present state still counts (and
        refreshes) as a hit.
        """
        return self.get(self._key(model, model_key, window.fingerprint()), count_miss=False)

    def get_or_encode(self, model, window: HistoryWindow, model_key: str = "model") -> EncoderState:
        """Return the cached state for ``window`` or run one live encode.

        The live encode runs under the model's inference mode (eval +
        no-grad): cached states must never carry training-mode dropout
        noise or autograd graphs.  Training losses never come through
        here — they encode live under grad inside ``model.loss``.
        """
        fingerprint = window.fingerprint()
        return self.get_or_build(
            self._key(model, model_key, fingerprint),
            lambda: self._encode_live(model, window, fingerprint),
        )


class ExecutionPlan:
    """The single window -> scores code path shared by every consumer.

    Args:
        model: a :class:`~repro.nn.module.Module` implementing the
            encode/decode protocol (:class:`repro.core.hisres.HisRES`,
            every :class:`repro.baselines.base.TKGBaseline`).
        cache: optional :class:`EncoderStateCache`; None always
            encodes live (the pre-refactor fused behaviour).
        model_key: cache-key namespace (registry key in serving).
    """

    def __init__(self, model, cache: Optional[EncoderStateCache] = None, model_key: Optional[str] = None):
        self.model = model
        self.cache = cache
        self.model_key = model_key or type(model).__name__.lower()

    @property
    def supports_split(self) -> bool:
        return bool(getattr(self.model, "supports_encode_split", False))

    # ------------------------------------------------------------------
    def encode(self, window: HistoryWindow) -> EncoderState:
        """Encode ``window`` through the cache (eval + no-grad)."""
        if self.cache is not None and self.supports_split:
            return self.cache.get_or_encode(self.model, window, model_key=self.model_key)
        with span("encoder.encode", owner=self.model_key):
            with self.model.inference_mode():
                return self.model.encode(window)

    def entity_scores(self, window: HistoryWindow, queries: np.ndarray) -> np.ndarray:
        """Entity score matrix (n, |E|) as a plain array."""
        state = self.encode(window)
        with self.model.inference_mode():
            return self.model.decode(state, queries).data

    def entity_scores_range(
        self, window: HistoryWindow, queries: np.ndarray, lo: int, hi: int
    ) -> np.ndarray:
        """Entity scores restricted to the candidate range ``[lo, hi)``.

        The serving plane's sharded decode path: a cluster worker owning
        entities ``[lo, hi)`` scores only its slice, and the
        single-process engine scores the full range ``[0, |E|)`` through
        the *same* code path, so per-shard score slices are bitwise
        (float64) sub-arrays of the single-process score vector.

        Models that can restrict their final candidate matmul override
        ``decode_entity_range`` (tile-grid walk, see
        :func:`candidate_scores_range`); everything else — including
        fused vocabulary models — computes the full decode and slices,
        which is range-consistent by construction.
        """
        state = self.encode(window)
        return self.decode_block(state, queries, lo, hi)

    def decode_block(
        self, state: EncoderState, queries: np.ndarray, lo: int, hi: int
    ) -> np.ndarray:
        """Range-decode a (possibly multi-timestamp) query block from ``state``.

        The grouped-decode surface: :class:`TimelineBatcher` concatenates
        the query rows of every timestamp in a fingerprint-equal group
        and scores the whole block here in one call.  Row ``i`` of the
        result is bitwise-identical (float64) to decoding query ``i``
        alone — the final candidate matmul is row-independent and walks
        the global :data:`DECODE_TILE` grid (see
        :func:`candidate_scores_range`), so blocking changes the call
        count, never the numbers.
        """
        with self.model.inference_mode():
            decode_range = getattr(self.model, "decode_entity_range", None)
            if decode_range is not None and not state.fused:
                return np.asarray(decode_range(state, queries, lo, hi))
            return np.asarray(self.model.decode(state, queries).data)[:, lo:hi]

    def decode_relations_block(
        self, state: EncoderState, queries: np.ndarray
    ) -> Optional[np.ndarray]:
        """Relation logits for a grouped query block (None if undecodable)."""
        decode_relations = getattr(self.model, "decode_relations", None)
        if decode_relations is None:
            return None
        with self.model.inference_mode():
            logits = decode_relations(state, queries)
        return None if logits is None else np.asarray(logits.data)

    def relation_scores(self, window: HistoryWindow, queries: np.ndarray) -> np.ndarray:
        """Relation score matrix (n, 2|R|) for joint models."""
        state = self.encode(window)
        with self.model.inference_mode():
            logits = self.model.decode_relations(state, queries)
        if logits is None:
            raise TypeError(
                f"{type(self.model).__name__} has no relation decoder; "
                "relation ranking needs a joint model (e.g. HisRES, RE-GCN)"
            )
        return logits.data

    def entity_and_relation_scores(
        self, window: HistoryWindow, queries: np.ndarray
    ) -> Tuple[np.ndarray, Optional[np.ndarray]]:
        """Both rankings from ONE encoder state (the evaluator hot path)."""
        state = self.encode(window)
        with self.model.inference_mode():
            entity = self.model.decode(state, queries).data
            relation_logits = self.model.decode_relations(state, queries)
            relation = None if relation_logits is None else relation_logits.data
        return entity, relation

    def loss(self, window: HistoryWindow, queries: np.ndarray) -> Tensor:
        """Training objective — encodes live under grad (truncated-BPTT-safe)."""
        return self.model.loss(window, queries)

    def stats(self) -> Dict[str, Any]:
        return {
            "model_key": self.model_key,
            "supports_split": self.supports_split,
            "state_cache": None if self.cache is None else self.cache.stats(),
        }


def scatter_rows(reference: Tensor, indices: np.ndarray, rows: Tensor) -> Tensor:
    """Full-size matrix = ``reference`` with ``rows`` written at ``indices``.

    Autodiff-safe: built as ``concat([reference, rows])`` followed by a
    row gather, so gradients flow both to the scattered rows (the
    encoded closure) and to the reference rows that survived (e.g. the
    initial embedding table rows of out-of-closure negatives during
    sampled training).
    """
    indices = np.asarray(indices, dtype=np.int64).reshape(-1)
    n = int(reference.shape[0])
    take = np.arange(n, dtype=np.int64)
    take[indices] = n + np.arange(len(indices), dtype=np.int64)
    return concat([reference, rows], axis=0).index_select(take)


class ScopedExecutionPlan:
    """Query-scoped wrapper over an :class:`ExecutionPlan`.

    Encodes on the sampler-induced subgraph of the query batch's fan-in
    closure and decodes against a full-size candidate matrix obtained by
    scattering the encoded closure rows over the model's *reference*
    matrix (its initial entity embedding table, see
    ``scoped_reference_matrix``).  Candidates outside the closure score
    against their initial embeddings — a documented approximation that
    trades exactness on never-reachable candidates for per-batch cost
    bounded by fan-in instead of entity count.

    Two exactness fences anchor the approximation (see
    ``docs/sampling.md``):

    - **identity**: when the sampled closure covers every edge endpoint
      (always true for exhaustive fanouts), :func:`induce_window`
      returns the original window and every call here delegates to the
      wrapped full-graph plan — scores are bitwise-identical (float64)
      by construction;
    - **reproducibility**: capped sampling is a pure function of
      (window content, seeds, fanout spec, sampler seed), so the same
      seed yields bitwise-identical scoped scores across runs.

    Models that cannot split encode from decode (fused vocabulary
    models) pass through to the full plan untouched.
    """

    def __init__(self, plan: ExecutionPlan, sampler, include_targets: bool = True):
        self.plan = plan
        self.sampler = sampler
        self.include_targets = include_targets
        self.identity_encodes = 0
        self.scoped_encodes = 0

    @property
    def model(self):
        return self.plan.model

    @property
    def supports_scoping(self) -> bool:
        return self.plan.supports_split and bool(
            getattr(self.model, "supports_query_scoping", False)
        )

    # ------------------------------------------------------------------
    def _seeds(self, queries: np.ndarray, for_loss: bool = False) -> np.ndarray:
        queries = np.asarray(queries, dtype=np.int64)
        cols = [queries[:, 0]]
        if for_loss and self.include_targets:
            # gold objects must be in-closure during training so their
            # CE logits come from *encoded* rows, not initial embeddings
            cols.append(queries[:, 2])
        return np.unique(np.concatenate(cols))

    def _scatter_state(self, state: EncoderState, window: HistoryWindow) -> EncoderState:
        """Expand a scoped state's entity rows to full entity space."""
        nodes = window.local_nodes
        model = self.model
        reference = model.scoped_reference_matrix()
        full_rows = int(reference.shape[0])

        def expand(matrix: Tensor) -> Tensor:
            if matrix is None or int(matrix.shape[0]) == full_rows:
                # model ignored the scope (e.g. a static-embedding
                # baseline whose encode never touches the graphs)
                return matrix
            return scatter_rows(reference, nodes, matrix)

        slots = set(model.aux_entity_slots(state))
        aux = tuple(expand(t) if i in slots else t for i, t in enumerate(state.aux))
        return replace(
            state,
            entity_matrix=expand(state.entity_matrix),
            aux=aux,
            # scattered states are approximations of the full encode;
            # never let them masquerade as cacheable full states
            fingerprint=None,
        )

    def encode(self, window: HistoryWindow, queries: np.ndarray) -> EncoderState:
        """Scoped encode for a query batch (eval + no-grad, cacheable).

        Identity scopes (exhaustive fanouts, or caps covering the full
        fan-in) delegate to the wrapped plan — same window object, same
        cache entry, bitwise-equal scores.
        """
        if not self.supports_scoping or window.is_scoped:
            return self.plan.encode(window)
        induced, scope = self.sampler.induce(window, self._seeds(queries))
        if scope.identity:
            self.identity_encodes += 1
            return self.plan.encode(window)
        self.scoped_encodes += 1
        cache = self.plan.cache
        if cache is not None:
            state = cache.get_or_encode(self.model, induced, model_key=self.plan.model_key)
        else:
            with span("encoder.encode", owner=f"{self.plan.model_key}.scoped"):
                with self.model.inference_mode():
                    state = self.model.encode(induced)
        with self.model.inference_mode():
            return self._scatter_state(state, induced)

    def entity_scores(self, window: HistoryWindow, queries: np.ndarray) -> np.ndarray:
        if not self.supports_scoping:
            return self.plan.entity_scores(window, queries)
        state = self.encode(window, queries)
        with self.model.inference_mode():
            return self.model.decode(state, queries).data

    def entity_scores_range(
        self, window: HistoryWindow, queries: np.ndarray, lo: int, hi: int
    ) -> np.ndarray:
        if not self.supports_scoping:
            return self.plan.entity_scores_range(window, queries, lo, hi)
        state = self.encode(window, queries)
        return self.plan.decode_block(state, queries, lo, hi)

    def decode_block(
        self, state: EncoderState, queries: np.ndarray, lo: int, hi: int
    ) -> np.ndarray:
        """Grouped-block decode; scoped states are already scattered to
        full entity space by :meth:`encode`, so the wrapped plan's block
        decode applies unchanged."""
        return self.plan.decode_block(state, queries, lo, hi)

    def decode_relations_block(
        self, state: EncoderState, queries: np.ndarray
    ) -> Optional[np.ndarray]:
        return self.plan.decode_relations_block(state, queries)

    def relation_scores(self, window: HistoryWindow, queries: np.ndarray) -> np.ndarray:
        if not self.supports_scoping:
            return self.plan.relation_scores(window, queries)
        state = self.encode(window, queries)
        with self.model.inference_mode():
            logits = self.model.decode_relations(state, queries)
        if logits is None:
            raise TypeError(
                f"{type(self.model).__name__} has no relation decoder; "
                "relation ranking needs a joint model (e.g. HisRES, RE-GCN)"
            )
        return logits.data

    def loss(self, window: HistoryWindow, queries: np.ndarray) -> Tensor:
        """Sampled training objective — encodes the induced window live
        under grad, scatters, and runs the model's ``decode_loss`` so
        gradients reach the closure rows, the reference table, and every
        encoder parameter on the sampled path."""
        if not self.supports_scoping or window.is_scoped:
            return self.plan.loss(window, queries)
        induced, scope = self.sampler.induce(window, self._seeds(queries, for_loss=True))
        if scope.identity:
            self.identity_encodes += 1
            return self.plan.loss(window, queries)
        self.scoped_encodes += 1
        with span("encoder.encode", owner=f"{self.plan.model_key}.scoped_loss"):
            state = self.model.encode(induced)
        return self.model.decode_loss(self._scatter_state(state, induced), queries)

    def stats(self) -> Dict[str, Any]:
        return {
            "model_key": self.plan.model_key,
            "supports_scoping": self.supports_scoping,
            "identity_encodes": self.identity_encodes,
            "scoped_encodes": self.scoped_encodes,
            "sampler": self.sampler.stats() if hasattr(self.sampler, "stats") else None,
        }


# ----------------------------------------------------------------------
# Batched timeline evaluation


@dataclass(frozen=True)
class TimelineStep:
    """One scoring point of a chronological walk.

    Attributes:
        timestamp: the prediction timestamp this step scores at.
        window: the history window assembled for the step (immutable —
            producers may keep absorbing history after yielding it).
        queries: (n, >=2) int64 query rows; relation ids may use the
            doubled space for inverse queries.
        payload: opaque caller context carried through the batcher
            (e.g. the evaluator's per-timestamp time filter).
    """

    timestamp: int
    window: HistoryWindow
    queries: np.ndarray
    payload: Any = None


def group_steps(
    steps: Iterable[TimelineStep], groupable: bool = True
) -> Iterator[List[TimelineStep]]:
    """Yield **maximal** runs of consecutive fingerprint-equal steps.

    Two invariants (property-tested in
    ``tests/core/test_timeline_batcher.py``):

    - every step in a group has the same window content fingerprint as
      the group's first step — a group never spans a window change;
    - groups are maximal: adjacent groups always differ in fingerprint,
      so no two neighbouring groups could have been merged.

    With ``groupable=False`` every step becomes its own group (fused
    models, whose decode consumes per-query window inputs, take this
    path so their behaviour is untouched).
    """
    current: List[TimelineStep] = []
    current_fp: Optional[Hashable] = None
    for step in steps:
        fingerprint = step.window.fingerprint() if groupable else None
        if current and (not groupable or fingerprint != current_fp):
            yield current
            current = []
        current.append(step)
        current_fp = fingerprint
    if current:
        yield current


class TimelineBatcher:
    """Fingerprint-grouped blocked decode over a timeline walk.

    The batched evaluation layer every timeline consumer (the
    :class:`~repro.training.evaluator.TimelineEvaluator`, the
    :class:`~repro.core.forecaster.Forecaster`, the serving engine's
    warm/refresh path) routes through: steps are grouped by
    :func:`group_steps`, each group is encoded **once** through the
    plan's state cache, and the group's concatenated query block is
    scored by one :meth:`ExecutionPlan.decode_block` call on the global
    tile grid.  Per-step score rows are sliced back out, so consumers
    see exactly the per-timestamp stream they always saw — bitwise —
    with the decode call count divided by the group size.

    Args:
        plan: an :class:`ExecutionPlan` or :class:`ScopedExecutionPlan`
            (detected by its ``supports_scoping`` attribute; scoped
            plans encode on the group block's sampled fan-in closure).
        num_entities: default candidate-range upper bound for
            :meth:`run` (callers may override per run via ``hi``).
        owner: obs label for the group counter/size histogram/spans.
    """

    def __init__(self, plan, num_entities: Optional[int] = None, owner: str = "evaluator"):
        self.plan = plan
        self.base_plan: ExecutionPlan = getattr(plan, "plan", plan)
        self._scoped = self.base_plan is not plan
        self.num_entities = num_entities
        self.owner = owner
        registry = get_registry()
        self._groups_total = registry.counter(
            "repro_eval_groups_total",
            "Fingerprint-equal timeline groups scored by the batched walk.",
            labelnames=("owner",),
        ).labels(owner=owner)
        self._group_size = registry.histogram(
            "repro_eval_group_size",
            "Timestamps per fingerprint-equal timeline group.",
            labelnames=("owner",),
            buckets=(1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0),
        ).labels(owner=owner)
        self.last_stats: Dict[str, Any] = {}

    @property
    def model(self):
        return self.base_plan.model

    @property
    def groupable(self) -> bool:
        """Only split models group: their frozen states decode any
        query block, while fused decodes stay per-step."""
        return self.base_plan.supports_split

    # ------------------------------------------------------------------
    def run(
        self,
        steps: Iterable[TimelineStep],
        entities: bool = True,
        relations: bool = False,
        lo: int = 0,
        hi: Optional[int] = None,
    ) -> Iterator[Tuple[TimelineStep, Optional[np.ndarray], Optional[np.ndarray]]]:
        """Score a walk; yield ``(step, entity_rows, relation_rows)`` in order.

        ``steps`` may be a generator that interleaves window assembly
        with history absorption — the batcher looks ahead at most one
        step, and windows are immutable, so producers can absorb freely
        after yielding.  Entity rows cover candidates ``[lo, hi)``
        (``hi`` defaults to ``num_entities``); relation rows are None
        when the model has no relation decoder.  After the iterator is
        exhausted :attr:`last_stats` holds the group accounting.
        """
        lo = int(lo)
        hi = self.num_entities if hi is None else int(hi)
        stats = {"steps": 0, "groups": 0, "queries": 0, "max_group_size": 0}
        self.last_stats = stats
        for group in group_steps(steps, groupable=self.groupable):
            size = len(group)
            stats["groups"] += 1
            stats["steps"] += size
            stats["max_group_size"] = max(stats["max_group_size"], size)
            self._groups_total.inc()
            self._group_size.observe(float(size))
            for step, entity_rows, relation_rows in self._score_group(
                group, entities, relations, lo, hi
            ):
                stats["queries"] += int(len(step.queries))
                yield step, entity_rows, relation_rows
        stats["mean_group_size"] = (
            stats["steps"] / stats["groups"] if stats["groups"] else 0.0
        )

    # ------------------------------------------------------------------
    def _score_group(
        self,
        group: List[TimelineStep],
        entities: bool,
        relations: bool,
        lo: int,
        hi: Optional[int],
    ) -> Iterator[Tuple[TimelineStep, Optional[np.ndarray], Optional[np.ndarray]]]:
        if hi is None:
            raise ValueError("TimelineBatcher needs num_entities (or an explicit hi)")
        window = group[0].window
        blocks = [np.asarray(step.queries, dtype=np.int64) for step in group]
        block = blocks[0] if len(blocks) == 1 else np.concatenate(blocks, axis=0)
        with span("eval.encode", owner=self.owner, group_size=len(group)):
            if self._scoped:
                state = self.plan.encode(window, block)
            else:
                state = self.plan.encode(window)
        with span("eval.decode", owner=self.owner, rows=int(block.shape[0])):
            entity_block = (
                self.base_plan.decode_block(state, block, lo, hi) if entities else None
            )
            relation_block = (
                self.base_plan.decode_relations_block(state, block) if relations else None
            )
        offset = 0
        for step, rows in zip(group, blocks):
            n = len(rows)
            entity_rows = None if entity_block is None else entity_block[offset : offset + n]
            relation_rows = (
                None if relation_block is None else relation_block[offset : offset + n]
            )
            offset += n
            yield step, entity_rows, relation_rows
