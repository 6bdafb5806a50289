"""Per-layer timing for the traced pass, from outside the program.

The benchmark never edits ``src/repro``.  Instead, for the traced pass
it replaces the public functions and methods listed in :data:`SPANS`
with wrappers that open a span around each call, and puts the originals
back afterwards.  Spans nest per thread; a layer's *self time* is its
spans' duration minus the part covered by child spans, so the self
times of all layers add up to the time spent inside any span.

Functions imported by name into another module (``segment_sum``,
``clip_grad_norm_``, ``filtered_ranks``, ``topk_ranked``) are wrapped at
their import sites, which is where the calling code looks them up.
"""

from __future__ import annotations

import functools
import importlib
import threading
import time
from collections import Counter, defaultdict
from typing import Callable, Dict, List, Tuple

#: (module, attribute path, layer).  A dotted attribute is a method on a
#: class; a plain one is a module-level function at its import site.
SPANS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.nn.optim", "Adam.step", "nn.optim.step"),
    ("repro.training.trainer", "clip_grad_norm_", "nn.optim.clip"),
    ("repro.nn.tensor", "Tensor.backward", "nn.tensor.backward"),
    ("repro.core.execution", "ExecutionPlan.loss", "core.execution.loss"),
    ("repro.core.execution", "ExecutionPlan.encode", "core.execution.encode"),
    ("repro.core.execution", "ExecutionPlan.decode_block", "core.execution.decode"),
    ("repro.serving.engine", "topk_ranked", "core.execution.topk"),
    ("repro.training.evaluator", "filtered_ranks", "training.evaluator.rank"),
    ("repro.core.window", "WindowBuilder.window_for", "core.window.window_for"),
    ("repro.serving.store", "OnlineHistoryStore.window_for", "core.window.window_for"),
    ("repro.core.window", "WindowBuilder.absorb", "core.window.absorb"),
    ("repro.serving.store", "OnlineHistoryStore.ingest", "serving.store.ingest"),
    ("repro.serving.store", "OnlineHistoryStore.flush", "serving.store.flush"),
    ("repro.serving.server", "BaseJSONHandler.do_POST", "serving.server.handler"),
    ("repro.serving.engine", "MicroBatcher.submit", "serving.engine.batch_wait"),
    ("repro.serving.engine", "InferenceEngine._execute_batch", "serving.engine.execute"),
)

#: Modules that import segment ops by name (forward calls only: the
#: backward closures live inside ``repro.nn.segment`` and run under
#: ``Tensor.backward``).
SEGMENT_SITES = (
    "repro.nn.functional",
    "repro.core.evolution",
    "repro.core.compgcn",
    "repro.core.convgat",
    "repro.core.rgat",
)
SEGMENT_OPS = ("segment_sum", "segment_mean", "segment_max", "segment_softmax")
SEGMENT_LAYER = "nn.segment.fwd"


class LayerTracer:
    """Accumulates self time, inclusive time and calls per layer."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: List[Tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        with self._lock:
            self.self_s: Dict[str, float] = defaultdict(float)
            self.total_s: Dict[str, float] = defaultdict(float)
            self.calls: Counter = Counter()
            self.open_roots = 0

    def _stack(self) -> List[float]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, layer: str, fn: Callable) -> Callable:
        tracer = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            stack = tracer._stack()
            if not stack:
                with tracer._lock:
                    tracer.open_roots += 1
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                children = stack.pop()
                if stack:
                    stack[-1] += elapsed
                with tracer._lock:
                    tracer.self_s[layer] += elapsed - children
                    if not stack:
                        tracer.total_s[layer] += elapsed
                        tracer.open_roots -= 1
                    tracer.calls[layer] += 1

        return timed

    def patch(self, owner: object, name: str, layer: str) -> None:
        original = vars(owner)[name]
        setattr(owner, name, self.wrap(layer, original))
        self._patches.append((owner, name, original))

    def install(self) -> "LayerTracer":
        """Wrap every entry of :data:`SPANS` and the segment import sites."""
        for module_name, attr, layer in SPANS:
            owner: object = importlib.import_module(module_name)
            *path, name = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            self.patch(owner, name, layer)
        for module_name in SEGMENT_SITES:
            module = importlib.import_module(module_name)
            for name in SEGMENT_OPS:
                if name in vars(module):
                    self.patch(module, name, SEGMENT_LAYER)
        return self

    def uninstall(self) -> None:
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    def snapshot(self, settle_s: float = 5.0) -> Dict[str, Dict[str, float]]:
        """``{layer: {"self_s", "root_s", "calls"}}`` (JSON-ready).

        Waits up to ``settle_s`` for open root spans to close first: a
        server handler's span closes just after the client already has
        its reply.
        """
        deadline = time.perf_counter() + settle_s
        while self.open_roots > 0 and time.perf_counter() < deadline:
            time.sleep(0.001)
        with self._lock:
            layers = set(self.self_s) | set(self.calls)
            return {
                layer: {
                    "self_s": self.self_s[layer],
                    "root_s": self.total_s[layer],
                    "calls": int(self.calls[layer]),
                }
                for layer in sorted(layers)
            }


def table(layers: Dict[str, Dict[str, float]], busy_s: float) -> List[str]:
    """Human-readable per-layer table: self time, share of busy time, calls."""
    lines = [f"{'layer':32s} {'self_s':>10s} {'share':>7s} {'calls':>8s}"]
    for layer, row in sorted(layers.items(), key=lambda kv: -kv[1]["self_s"]):
        share = row["self_s"] / busy_s if busy_s > 0 else 0.0
        lines.append(
            f"{layer:32s} {row['self_s']:10.4f} {share:7.1%} {int(row['calls']):8d}"
        )
    return lines
