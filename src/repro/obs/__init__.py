"""repro.obs — the unified observability plane.

One package gives training and serving the same four instruments:

- :mod:`repro.obs.metrics` — a process-wide **metrics registry**
  (counters, gauges, bounded histograms; labeled series; Prometheus
  text exposition via ``GET /metrics``).  The HTTP latency histograms,
  compiled-graph build/hit counters, cache counters, and trainer
  gauges all live here — ``/stats`` and ``/metrics`` read the
  same objects.
- :mod:`repro.obs.cache` — the one **LRU primitive**; every cache in
  the system is an :class:`~repro.obs.cache.LRUCache` and reports the
  same ``repro_cache_events_total`` / ``repro_cache_entries`` series.
- :mod:`repro.obs.trace` — a **span tracer**: nested context-manager
  spans with attributes, exported as Chrome ``trace_event`` JSON or a
  human-readable tree.  Disabled spans are a shared no-op object.
- :mod:`repro.obs.profiler` — an **op-level autodiff profiler** that
  patches the tensor engine while enabled and restores it on disable,
  attributing forward *and* backward time (total/self) plus allocated
  bytes to each named op.  ``python -m repro.cli profile`` drives it.

Everything is zero-cost when disabled: the tracer fast path is one flag
check, and the profiler leaves no wrapper installed.

On top of the in-process plane sits the **cross-run** layer:

- :mod:`repro.obs.runs` — the append-only run ledger (one schema'd
  JSONL record per train/eval/bench run: run id, timestamp, git SHA,
  config fingerprint, dtype, seed, metrics) plus the shared writer
  behind every ``BENCH_*.json``;
- :mod:`repro.obs.regress` — noise-aware regression detection against
  a rolling ledger baseline (median of last N, MAD-scaled tolerance);
- :mod:`repro.obs.health` — training watchdogs (NaN/Inf gradients,
  loss divergence, plateau) firing structured events, registry
  counters, and diagnostic bundles;
- :mod:`repro.obs.report` — ``repro report``: ledger trajectories as
  terminal sparklines, Markdown, or static HTML.
"""

from repro.obs.cache import LRUCache
from repro.obs.health import HealthMonitor, TrainingAborted, WatchdogPolicy
from repro.obs.logging import LOG_FORMAT, configure_logging, log_event
from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricFamily,
    MetricsRegistry,
    REGISTRY,
    get_registry,
)
from repro.obs.profiler import OpProfiler, active_profiler
from repro.obs.runs import (
    RunLedger,
    SCHEMA_VERSION,
    build_record,
    config_fingerprint,
    default_ledger,
    default_ledger_path,
    flatten_metrics,
    git_sha,
    new_run_id,
    write_bench_report,
)
from repro.obs.trace import (
    SpanRecord,
    TraceContext,
    Tracer,
    activate,
    current_context,
    disable_tracing,
    enable_tracing,
    get_tracer,
    span,
    tracing_enabled,
)

__all__ = [
    "Counter",
    "DEFAULT_BUCKETS",
    "Gauge",
    "HealthMonitor",
    "Histogram",
    "LOG_FORMAT",
    "LRUCache",
    "MetricFamily",
    "MetricsRegistry",
    "OpProfiler",
    "REGISTRY",
    "RunLedger",
    "SCHEMA_VERSION",
    "SpanRecord",
    "TraceContext",
    "Tracer",
    "TrainingAborted",
    "WatchdogPolicy",
    "activate",
    "active_profiler",
    "current_context",
    "build_record",
    "config_fingerprint",
    "configure_logging",
    "default_ledger",
    "default_ledger_path",
    "disable_tracing",
    "enable_tracing",
    "flatten_metrics",
    "get_registry",
    "get_tracer",
    "git_sha",
    "log_event",
    "new_run_id",
    "span",
    "tracing_enabled",
    "write_bench_report",
]
