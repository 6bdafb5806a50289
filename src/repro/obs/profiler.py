"""Op-level autodiff profiler for the numpy tensor engine.

While enabled, every :class:`~repro.nn.tensor.Tensor` operator and every
backward node it creates is timed and measured (output bytes allocated),
aggregated per op name into a profile table that splits forward from
backward and total from *self* time (total minus time spent in nested
profiled ops — ``mean`` is built from ``sum`` and ``mul``, so its self
time is near zero while the children carry the cost).

Enabling is a *patch*: :meth:`OpProfiler.enable` swaps the Tensor
methods on the class for timed wrappers and installs the free-function
hook (:mod:`repro._obshook`) used by ``concat``/``stack``/``where`` and
the fused segment kernels; :meth:`OpProfiler.disable` restores the
originals.  Disabled instrumentation therefore costs nothing on the
tensor fast path — there is no wrapper left to call.

Coarse, non-tensor stages (optimizer step, window assembly, the
backward graph walk) are attributed with :meth:`OpProfiler.block`, so a
profiled training step accounts for ~all of its wall-clock::

    prof = OpProfiler()
    with prof:
        with prof.block("forward"):
            loss = model.loss(window, queries)
        with prof.block("backward"):
            loss.backward()
        with prof.block("optimizer.step"):
            optimizer.step()
    print(prof.format_table())
    prof.write_chrome_trace("profile.json")
"""

from __future__ import annotations

import json
import os
import threading
import time
from typing import Dict, List, Optional, Tuple

from repro import _obshook
from repro.nn.tensor import Tensor

__all__ = ["OpProfiler", "active_profiler"]

# (attribute on Tensor, op name in the table)
_TENSOR_METHODS: Tuple[Tuple[str, str], ...] = (
    ("__add__", "add"),
    ("__radd__", "add"),
    ("__sub__", "sub"),
    ("__rsub__", "sub"),
    ("__mul__", "mul"),
    ("__rmul__", "mul"),
    ("__truediv__", "div"),
    ("__rtruediv__", "div"),
    ("__neg__", "neg"),
    ("__pow__", "pow"),
    ("__matmul__", "matmul"),
    ("exp", "exp"),
    ("log", "log"),
    ("tanh", "tanh"),
    ("sigmoid", "sigmoid"),
    ("cos", "cos"),
    ("sin", "sin"),
    ("relu", "relu"),
    ("leaky_relu", "leaky_relu"),
    ("clamp", "clamp"),
    ("abs", "abs"),
    ("sum", "sum"),
    ("mean", "mean"),
    ("max", "max"),
    ("reshape", "reshape"),
    ("transpose", "transpose"),
    ("__getitem__", "getitem"),
    ("index_select", "index_select"),
)

_ACTIVE: Optional["OpProfiler"] = None


def active_profiler() -> Optional["OpProfiler"]:
    """The currently enabled profiler, or None."""
    return _ACTIVE


class _Stat:
    """Aggregate for one (op, phase) key."""

    __slots__ = ("count", "total", "self_time", "bytes")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.self_time = 0.0
        self.bytes = 0


class _Block:
    """Context manager timing a coarse named region as an op."""

    __slots__ = ("_profiler", "_name", "_t0")

    def __init__(self, profiler: "OpProfiler", name: str):
        self._profiler = profiler
        self._name = name
        self._t0 = 0.0

    def __enter__(self):
        self._profiler._thread_stack().append(0.0)
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        duration = time.perf_counter() - self._t0
        profiler = self._profiler
        stack = profiler._thread_stack()
        child_time = stack.pop()
        if stack:
            stack[-1] += duration
        profiler._record(self._name, "block", duration, duration - child_time, 0, self._t0)


class OpProfiler:
    """Times every tensor op (forward + backward) while enabled.

    Args:
        max_events: cap on individual trace events kept for the Chrome
            trace export; past it only aggregates keep growing.
        record_events: set False to keep only the aggregate table
            (lowest overhead, no trace file).
    """

    def __init__(self, max_events: int = 200_000, record_events: bool = True):
        self.max_events = int(max_events)
        self.record_events = bool(record_events)
        self._stats: Dict[Tuple[str, str], _Stat] = {}
        self._events: List[Tuple[str, str, float, float, int]] = []
        self.dropped_events = 0
        self._lock = threading.Lock()
        self._local = threading.local()
        self._saved_methods: Dict[str, object] = {}
        self._enabled_at: Optional[float] = None
        self.wall_clock = 0.0

    # ------------------------------------------------------------------
    # enable / disable (patching)
    # ------------------------------------------------------------------
    def enable(self) -> "OpProfiler":
        global _ACTIVE
        if _ACTIVE is self:
            return self
        if _ACTIVE is not None:
            raise RuntimeError("another OpProfiler is already enabled")
        for attr, name in _TENSOR_METHODS:
            original = getattr(Tensor, attr)
            if attr not in self._saved_methods:
                self._saved_methods[attr] = original
            setattr(Tensor, attr, self._wrap_method(name, original))
        self._saved_methods["backward"] = Tensor.backward
        Tensor.backward = self._wrap_backward_walk(Tensor.backward)
        _obshook.HOOK = self._dispatch
        _ACTIVE = self
        self._enabled_at = time.perf_counter()
        return self

    def disable(self) -> "OpProfiler":
        global _ACTIVE
        if _ACTIVE is not self:
            return self
        for attr, original in self._saved_methods.items():
            setattr(Tensor, attr, original)
        self._saved_methods.clear()
        _obshook.HOOK = None
        _ACTIVE = None
        if self._enabled_at is not None:
            self.wall_clock += time.perf_counter() - self._enabled_at
            self._enabled_at = None
        return self

    def __enter__(self) -> "OpProfiler":
        return self.enable()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.disable()

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def _thread_stack(self) -> List[float]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _record(
        self, name: str, phase: str, duration: float, self_time: float, nbytes: int, t0: float
    ) -> None:
        with self._lock:
            stat = self._stats.get((name, phase))
            if stat is None:
                stat = self._stats[(name, phase)] = _Stat()
            stat.count += 1
            stat.total += duration
            stat.self_time += self_time
            stat.bytes += nbytes
            if self.record_events:
                if len(self._events) < self.max_events:
                    self._events.append((name, phase, t0, duration, threading.get_ident()))
                else:
                    self.dropped_events += 1

    def _dispatch(self, name: str, phase: str, fn, args, kwargs):
        """Time one op call; wraps the output's backward node if any."""
        stack = self._thread_stack()
        stack.append(0.0)
        t0 = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        finally:
            duration = time.perf_counter() - t0
            child_time = stack.pop()
            if stack:
                stack[-1] += duration
            nbytes = out.data.nbytes if isinstance(out, Tensor) else 0
            self._record(name, phase, duration, duration - child_time, nbytes, t0)
        if isinstance(out, Tensor):
            node = out._backward
            # Composite ops (mean = sum * scale) return a tensor whose
            # backward was already wrapped by the inner op; keep the
            # innermost attribution, don't re-wrap.
            if node is not None and not getattr(node, "_op_profiled", False):
                out._backward = self._wrap_backward_node(name, node)
        return out

    def _wrap_method(self, name: str, original):
        profiler = self

        def wrapper(*args, **kwargs):
            return profiler._dispatch(name, "forward", original, args, kwargs)

        wrapper.__name__ = getattr(original, "__name__", name)
        wrapper.__doc__ = getattr(original, "__doc__", None)
        wrapper.__wrapped__ = original
        return wrapper

    def _wrap_backward_node(self, name: str, node):
        profiler = self

        def timed(grad):
            stack = profiler._thread_stack()
            stack.append(0.0)
            t0 = time.perf_counter()
            try:
                node(grad)
            finally:
                duration = time.perf_counter() - t0
                child_time = stack.pop()
                if stack:
                    stack[-1] += duration
                profiler._record(
                    name, "backward", duration, duration - child_time,
                    int(grad.nbytes) if hasattr(grad, "nbytes") else 0, t0,
                )

        timed._op_profiled = True
        return timed

    def _wrap_backward_walk(self, original):
        """Wrap Tensor.backward so the topo walk itself shows in the table."""
        profiler = self

        def wrapper(tensor, grad=None):
            with profiler.block("autograd.backward"):
                return original(tensor, grad)

        wrapper.__name__ = "backward"
        wrapper.__doc__ = original.__doc__
        wrapper.__wrapped__ = original
        return wrapper

    def block(self, name: str) -> _Block:
        """Time a coarse region (optimizer step, window build, ...)."""
        return _Block(self, name)

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    def _current_wall(self) -> float:
        wall = self.wall_clock
        if self._enabled_at is not None:
            wall += time.perf_counter() - self._enabled_at
        return wall

    def table(self, sort_by: str = "self") -> List[Dict[str, object]]:
        """Aggregate rows, most expensive first."""
        keys = {"self": "self_s", "total": "total_s", "count": "count", "bytes": "bytes"}
        if sort_by not in keys:
            raise ValueError(f"sort_by must be one of {sorted(keys)}")
        with self._lock:
            rows = [
                {
                    "op": name,
                    "phase": phase,
                    "count": stat.count,
                    "total_s": stat.total,
                    "self_s": stat.self_time,
                    "bytes": stat.bytes,
                }
                for (name, phase), stat in self._stats.items()
            ]
        rows.sort(key=lambda r: r[keys[sort_by]], reverse=True)
        return rows

    def attributed_fraction(self) -> float:
        """Share of enabled wall-clock attributed to named ops/blocks."""
        wall = self._current_wall()
        if wall <= 0:
            return 0.0
        with self._lock:
            attributed = sum(stat.self_time for stat in self._stats.values())
        return min(attributed / wall, 1.0)

    def format_table(self, sort_by: str = "self", limit: Optional[int] = None) -> str:
        rows = self.table(sort_by=sort_by)
        if limit is not None:
            rows = rows[:limit]
        header = f"{'op':<24} {'phase':<9} {'count':>8} {'total_ms':>10} {'self_ms':>10} {'mbytes':>8}"
        lines = [header, "-" * len(header)]
        for row in rows:
            lines.append(
                f"{row['op']:<24} {row['phase']:<9} {row['count']:>8} "
                f"{row['total_s'] * 1e3:>10.3f} {row['self_s'] * 1e3:>10.3f} "
                f"{row['bytes'] / 1e6:>8.2f}"
            )
        lines.append("-" * len(header))
        lines.append(
            f"wall-clock {self._current_wall() * 1e3:.3f} ms, "
            f"{self.attributed_fraction() * 100:.1f}% attributed to named ops"
        )
        return "\n".join(lines)

    # ------------------------------------------------------------------
    def to_chrome_trace(self) -> Dict[str, object]:
        """Chrome ``trace_event`` JSON of individual op invocations."""
        pid = os.getpid()
        with self._lock:
            events = list(self._events)
        t_base = min((e[2] for e in events), default=0.0)
        trace_events = [
            {
                "name": name,
                "cat": phase,
                "ph": "X",
                "ts": round((t0 - t_base) * 1e6, 3),
                "dur": round(duration * 1e6, 3),
                "pid": pid,
                "tid": tid,
            }
            for name, phase, t0, duration, tid in events
        ]
        trace_events.sort(key=lambda e: e["ts"])
        return {
            "traceEvents": trace_events,
            "displayTimeUnit": "ms",
            "otherData": {
                "dropped_events": self.dropped_events,
                "wall_clock_s": self._current_wall(),
                "attributed_fraction": self.attributed_fraction(),
                "table": self.table(),
            },
        }

    def write_chrome_trace(self, path: str) -> str:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_chrome_trace(), fh)
        return path
