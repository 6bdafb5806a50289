"""Process-wide metrics registry: counters, gauges, bounded histograms.

One registry instance (:data:`REGISTRY`, via :func:`get_registry`) is
the single source of truth for every counter in the system — the HTTP
frontend's latency histograms, the compiled-graph build/hit counters,
the window-builder cache counters, and the trainer's per-epoch gauges
all live here, so ``GET /stats`` and ``GET /metrics`` (Prometheus text
exposition) report the same numbers without double bookkeeping.

Metric families are created idempotently by name::

    reg = get_registry()
    hits = reg.counter("repro_cache_hits_total", "Cache hits.")
    hits.inc()

    lat = reg.histogram("repro_latency_seconds", "Latency.", labelnames=("route",))
    lat.labels(route="GET /health").observe(0.003)

Labeled families hand out per-label-value children on demand.  All
mutation paths are thread-safe.  Histograms keep fixed cumulative
buckets (Prometheus semantics) plus a bounded ring of recent raw
samples so snapshots can report *current* percentiles with O(1) memory;
:meth:`Histogram.merge` combines two compatible histograms (multi-shard
aggregation).

Scrape-time values that live elsewhere (e.g. a store's window version)
are bridged with :meth:`MetricsRegistry.register_collector`: collectors
run right before every render/snapshot and refresh their gauges from
the owning object — the owner's counter stays the one source of truth.
"""

from __future__ import annotations

import bisect
import math
import re
import threading
from collections import deque
from typing import Callable, Deque, Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricFamily",
    "MetricsRegistry",
    "PromSample",
    "REGISTRY",
    "get_registry",
    "parse_prometheus_text",
    "percentile",
    "DEFAULT_BUCKETS",
]

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

# Latency-oriented default bucket bounds (seconds), Prometheus-style.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)


def _escape_label_value(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _format_value(value: float) -> str:
    if value == math.inf:
        return "+Inf"
    if value == -math.inf:
        return "-Inf"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _render_labels(labelnames: Sequence[str], labelvalues: Sequence[str]) -> str:
    if not labelnames:
        return ""
    inner = ",".join(
        f'{name}="{_escape_label_value(str(value))}"'
        for name, value in zip(labelnames, labelvalues)
    )
    return "{" + inner + "}"


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of an unsorted sample list (q in [0, 100]).

    Uses the classic nearest-rank definition ``rank = ceil(q/100 * n)``
    (1-based), with ``q=0`` mapping to the minimum and ``q`` clamped to
    ``[0, 100]``; an empty list yields 0.0.
    """
    if not samples:
        return 0.0
    ordered = sorted(samples)
    if q <= 0:
        return float(ordered[0])
    rank = math.ceil(min(float(q), 100.0) / 100.0 * len(ordered))
    return float(ordered[min(rank, len(ordered)) - 1])


class Counter:
    """Monotonically increasing counter (thread-safe)."""

    __slots__ = ("_value", "_lock")

    def __init__(self) -> None:
        self._value = 0.0
        self._lock = threading.Lock()

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters can only increase; use a Gauge")
        with self._lock:
            self._value += amount

    def inc_to(self, value: float) -> None:
        """Raise the counter to ``value`` if larger (bridging external counts)."""
        with self._lock:
            if value > self._value:
                self._value = float(value)

    @property
    def value(self) -> float:
        return self._value

    def reset(self) -> None:
        with self._lock:
            self._value = 0.0

    def snapshot(self) -> float:
        return self._value


class Gauge:
    """Arbitrarily settable value (thread-safe)."""

    __slots__ = ("_value", "_lock")

    def __init__(self) -> None:
        self._value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.inc(-amount)

    @property
    def value(self) -> float:
        return self._value

    def reset(self) -> None:
        self.set(0.0)

    def snapshot(self) -> float:
        return self._value


class Histogram:
    """Cumulative-bucket histogram plus a bounded ring of raw samples.

    The buckets follow Prometheus semantics (each bucket counts samples
    ``<= upper_bound``, with an implicit ``+Inf`` bucket); the ring keeps
    the most recent ``window`` raw observations so snapshots report
    current percentiles rather than lifetime aggregates.
    """

    __slots__ = ("_bounds", "_counts", "_sum", "_count", "_ring", "_lock")

    def __init__(
        self,
        buckets: Sequence[float] = DEFAULT_BUCKETS,
        window: int = 2048,
    ) -> None:
        bounds = sorted(float(b) for b in buckets)
        if not bounds:
            raise ValueError("at least one bucket bound is required")
        if bounds[-1] != math.inf:
            bounds.append(math.inf)
        self._bounds: Tuple[float, ...] = tuple(bounds)
        self._counts = [0] * len(self._bounds)
        self._sum = 0.0
        self._count = 0
        self._ring: Deque[float] = deque(maxlen=int(window))
        self._lock = threading.Lock()

    @property
    def bounds(self) -> Tuple[float, ...]:
        return self._bounds

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    def observe(self, value: float) -> None:
        value = float(value)
        index = bisect.bisect_left(self._bounds, value)
        with self._lock:
            self._counts[index] += 1
            self._sum += value
            self._count += 1
            self._ring.append(value)

    def merge(self, other: "Histogram") -> "Histogram":
        """Fold ``other`` into ``self`` (same bounds required); returns self."""
        if self._bounds != other._bounds:
            raise ValueError("cannot merge histograms with different buckets")
        with other._lock:
            counts = list(other._counts)
            total = other._sum
            count = other._count
            samples = list(other._ring)
        with self._lock:
            for i, c in enumerate(counts):
                self._counts[i] += c
            self._sum += total
            self._count += count
            self._ring.extend(samples)
        return self

    def samples(self) -> List[float]:
        """Most recent raw observations (bounded by the ring window)."""
        with self._lock:
            return list(self._ring)

    def percentile(self, q: float) -> float:
        """Nearest-rank :func:`percentile` over the recent-sample ring."""
        return percentile(self.samples(), q)

    def cumulative_counts(self) -> List[int]:
        with self._lock:
            counts = list(self._counts)
        out, running = [], 0
        for c in counts:
            running += c
            out.append(running)
        return out

    def reset(self) -> None:
        with self._lock:
            self._counts = [0] * len(self._bounds)
            self._sum = 0.0
            self._count = 0
            self._ring.clear()

    def snapshot(self) -> Dict[str, object]:
        samples = self.samples()
        mean = sum(samples) / len(samples) if samples else 0.0
        return {
            "count": self._count,
            "sum": self._sum,
            "recent_mean": mean,
            "p50": self.percentile(50),
            "p95": self.percentile(95),
            "p99": self.percentile(99),
            "buckets": dict(zip(map(_format_value, self._bounds), self.cumulative_counts())),
        }


_METRIC_TYPES = {Counter: "counter", Gauge: "gauge", Histogram: "histogram"}


class MetricFamily:
    """A named metric plus its per-label-value children.

    With no ``labelnames`` the family owns a single default child and
    proxies its mutating/reading API (``inc``, ``observe``, ``value``,
    ...), so unlabeled metrics read naturally::

        builds = registry.counter("x_builds_total", "Builds.")
        builds.inc()
    """

    def __init__(
        self,
        name: str,
        help_text: str,
        metric_cls,
        labelnames: Sequence[str] = (),
        **metric_kwargs,
    ) -> None:
        if not _NAME_RE.match(name):
            raise ValueError(f"invalid metric name {name!r}")
        for label in labelnames:
            if not _LABEL_RE.match(label) or label.startswith("__"):
                raise ValueError(f"invalid label name {label!r}")
        self.name = name
        self.help = help_text
        self.metric_cls = metric_cls
        self.type = _METRIC_TYPES[metric_cls]
        self.labelnames: Tuple[str, ...] = tuple(labelnames)
        self._metric_kwargs = metric_kwargs
        self._children: Dict[Tuple[str, ...], object] = {}
        self._lock = threading.Lock()

    def labels(self, *labelvalues, **labelkwargs):
        """Return (creating on demand) the child for one label-value tuple."""
        if labelkwargs:
            if labelvalues:
                raise ValueError("pass label values positionally or by name, not both")
            try:
                labelvalues = tuple(str(labelkwargs.pop(name)) for name in self.labelnames)
            except KeyError as exc:
                raise ValueError(f"missing label {exc} for metric {self.name!r}") from None
            if labelkwargs:
                raise ValueError(f"unexpected labels {sorted(labelkwargs)} for {self.name!r}")
        else:
            labelvalues = tuple(str(v) for v in labelvalues)
        if len(labelvalues) != len(self.labelnames):
            raise ValueError(
                f"metric {self.name!r} expects labels {self.labelnames}, "
                f"got {len(labelvalues)} value(s)"
            )
        with self._lock:
            child = self._children.get(labelvalues)
            if child is None:
                child = self.metric_cls(**self._metric_kwargs)
                self._children[labelvalues] = child
            return child

    def children(self) -> List[Tuple[Tuple[str, ...], object]]:
        with self._lock:
            return sorted(self._children.items())

    def reset(self) -> None:
        for _, child in self.children():
            child.reset()

    def __getattr__(self, attr):
        # Unlabeled convenience: family.inc() == family.labels().inc().
        if self.labelnames:
            raise AttributeError(
                f"metric {self.name!r} is labeled by {self.labelnames}; "
                f"call .labels(...) first"
            )
        return getattr(self.labels(), attr)

    # ------------------------------------------------------------------
    def render(self) -> List[str]:
        lines = []
        if self.help:
            lines.append(f"# HELP {self.name} {self.help}")
        lines.append(f"# TYPE {self.name} {self.type}")
        children = self.children()
        if not children and not self.labelnames:
            children = [((), self.labels())]
        for labelvalues, child in children:
            if isinstance(child, Histogram):
                lines.extend(self._render_histogram(labelvalues, child))
            else:
                labels = _render_labels(self.labelnames, labelvalues)
                lines.append(f"{self.name}{labels} {_format_value(child.value)}")
        return lines

    def _render_histogram(self, labelvalues, child: Histogram) -> List[str]:
        lines = []
        cumulative = child.cumulative_counts()
        for bound, count in zip(child.bounds, cumulative):
            labels = _render_labels(
                self.labelnames + ("le",), tuple(labelvalues) + (_format_value(bound),)
            )
            lines.append(f"{self.name}_bucket{labels} {count}")
        labels = _render_labels(self.labelnames, labelvalues)
        lines.append(f"{self.name}_sum{labels} {_format_value(child.sum)}")
        lines.append(f"{self.name}_count{labels} {child.count}")
        return lines

    def snapshot(self) -> Dict[str, object]:
        if not self.labelnames:
            return {"type": self.type, "value": self.labels().snapshot()}
        return {
            "type": self.type,
            "series": {
                ",".join(f"{n}={v}" for n, v in zip(self.labelnames, values)): child.snapshot()
                for values, child in self.children()
            },
        }


class MetricsRegistry:
    """Thread-safe collection of metric families with Prometheus export."""

    def __init__(self) -> None:
        self._families: Dict[str, MetricFamily] = {}
        self._collectors: List[Callable[[], None]] = []
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    def _family(self, name, help_text, metric_cls, labelnames, **kwargs) -> MetricFamily:
        with self._lock:
            family = self._families.get(name)
            if family is not None:
                if family.metric_cls is not metric_cls:
                    raise ValueError(
                        f"metric {name!r} already registered as {family.type}"
                    )
                if family.labelnames != tuple(labelnames):
                    raise ValueError(
                        f"metric {name!r} already registered with labels "
                        f"{family.labelnames}, not {tuple(labelnames)}"
                    )
                return family
            family = MetricFamily(name, help_text, metric_cls, labelnames, **kwargs)
            self._families[name] = family
            return family

    def counter(self, name: str, help_text: str = "", labelnames: Sequence[str] = ()) -> MetricFamily:
        return self._family(name, help_text, Counter, labelnames)

    def gauge(self, name: str, help_text: str = "", labelnames: Sequence[str] = ()) -> MetricFamily:
        return self._family(name, help_text, Gauge, labelnames)

    def histogram(
        self,
        name: str,
        help_text: str = "",
        labelnames: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_BUCKETS,
        window: int = 2048,
    ) -> MetricFamily:
        return self._family(
            name, help_text, Histogram, labelnames, buckets=buckets, window=window
        )

    # ------------------------------------------------------------------
    def register_collector(self, collect: Callable[[], None]) -> Callable[[], None]:
        """Run ``collect()`` before every render/snapshot; returns a handle."""
        with self._lock:
            self._collectors.append(collect)
        return collect

    def unregister_collector(self, handle: Callable[[], None]) -> None:
        with self._lock:
            try:
                self._collectors.remove(handle)
            except ValueError:
                pass

    def _run_collectors(self) -> None:
        with self._lock:
            collectors = list(self._collectors)
        for collect in collectors:
            try:
                collect()
            except Exception:  # a broken collector must not break scraping
                continue

    # ------------------------------------------------------------------
    def families(self) -> List[MetricFamily]:
        with self._lock:
            return [self._families[name] for name in sorted(self._families)]

    def get(self, name: str) -> Optional[MetricFamily]:
        with self._lock:
            return self._families.get(name)

    def render_prometheus(self) -> str:
        """Full registry in Prometheus text exposition format (0.0.4)."""
        self._run_collectors()
        lines: List[str] = []
        for family in self.families():
            lines.extend(family.render())
        return "\n".join(lines) + "\n"

    def snapshot(self) -> Dict[str, object]:
        self._run_collectors()
        return {family.name: family.snapshot() for family in self.families()}

    def reset(self) -> None:
        """Zero every metric (test isolation); families stay registered."""
        for family in self.families():
            family.reset()


REGISTRY = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-wide default registry (what ``GET /metrics`` renders)."""
    return REGISTRY


# ----------------------------------------------------------------------
# Prometheus text exposition parsing (the inverse of render_prometheus),
# used by the cluster router to federate worker /metrics scrapes.
# ----------------------------------------------------------------------

class PromSample:
    """One parsed exposition sample: name, labels, value, family type."""

    __slots__ = ("name", "labels", "value", "type")

    def __init__(self, name: str, labels: Dict[str, str], value: float, type: str):
        self.name = name
        self.labels = labels
        self.value = value
        self.type = type

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PromSample({self.name!r}, {self.labels!r}, {self.value!r}, {self.type!r})"


_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>.*)\})?"
    r"\s+(?P<value>[^\s]+)"
    r"(?:\s+(?P<timestamp>-?\d+))?$"
)
_LABEL_PAIR_RE = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')


def _unescape_label_value(value: str) -> str:
    return value.replace("\\n", "\n").replace('\\"', '"').replace("\\\\", "\\")


def _parse_exposition_value(raw: str) -> float:
    if raw == "+Inf":
        return math.inf
    if raw == "-Inf":
        return -math.inf
    if raw == "NaN":
        return math.nan
    return float(raw)


def parse_prometheus_text(text: str) -> List[PromSample]:
    """Parse a Prometheus text-format (0.0.4) page into samples.

    Covers the subset this repo emits — ``# HELP`` / ``# TYPE`` comment
    lines, optional ``{label="value"}`` sets with escapes, float values
    (``+Inf``/``-Inf``/``NaN``), optional trailing timestamps.  Each
    sample carries its family's declared type (histogram samples keep
    the ``_bucket``/``_sum``/``_count`` suffix in ``name``); malformed
    lines are skipped rather than failing the whole scrape.
    """
    types: Dict[str, str] = {}
    samples: List[PromSample] = []
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        if line.startswith("#"):
            parts = line.split(None, 3)
            if len(parts) >= 4 and parts[1] == "TYPE":
                types[parts[2]] = parts[3]
            continue
        match = _SAMPLE_RE.match(line)
        if match is None:
            continue
        name = match.group("name")
        try:
            value = _parse_exposition_value(match.group("value"))
        except ValueError:
            continue
        labels = {
            key: _unescape_label_value(raw)
            for key, raw in _LABEL_PAIR_RE.findall(match.group("labels") or "")
        }
        family = name
        for suffix in ("_bucket", "_sum", "_count"):
            if name.endswith(suffix) and name[: -len(suffix)] in types:
                family = name[: -len(suffix)]
                break
        samples.append(PromSample(name, labels, value, types.get(family, "untyped")))
    return samples
