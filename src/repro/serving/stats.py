"""Serving-side observability: per-endpoint latency and throughput.

Request counters and latency distributions live on the
:mod:`repro.obs` metrics registry — one ``repro_http_requests_total`` /
``repro_http_errors_total`` counter pair and one
``repro_http_request_latency_seconds`` histogram per route — so the
JSON ``/stats`` snapshot and the Prometheus ``/metrics`` exposition
report from the same objects.  The registry histograms keep a bounded
ring of the most recent samples, so a long-lived server reports
*current* percentiles, not lifetime averages, with O(1) memory.

Because the default registry is process-wide, two servers running in
one process (e.g. under tests) share per-route series; pass a private
:class:`~repro.obs.metrics.MetricsRegistry` for isolation.
"""

from __future__ import annotations

import time
from threading import Lock
from typing import Dict, Optional

from repro.obs.metrics import Counter, Histogram, MetricsRegistry, get_registry, percentile


class EndpointStats:
    """Counters plus a latency histogram for one endpoint.

    Wraps registry children when created through :class:`ServerStats`;
    standalone construction creates detached (unregistered) metrics so
    the class keeps working as a plain latency ring.
    """

    def __init__(
        self,
        window: int = 2048,
        requests: Optional[Counter] = None,
        errors: Optional[Counter] = None,
        latency: Optional[Histogram] = None,
    ):
        self._requests = requests if requests is not None else Counter()
        self._errors = errors if errors is not None else Counter()
        self._latency = latency if latency is not None else Histogram(window=window)

    @property
    def requests(self) -> int:
        return int(self._requests.value)

    @property
    def errors(self) -> int:
        return int(self._errors.value)

    def record(self, latency_s: float, error: bool = False) -> None:
        self._requests.inc()
        if error:
            self._errors.inc()
        else:
            self._latency.observe(float(latency_s))

    def snapshot(self) -> Dict[str, float]:
        samples = self._latency.samples()
        mean = sum(samples) / len(samples) if samples else 0.0
        return {
            "requests": self.requests,
            "errors": self.errors,
            "latency_ms": {
                "mean": round(mean * 1e3, 3),
                "p50": round(percentile(samples, 50) * 1e3, 3),
                "p95": round(percentile(samples, 95) * 1e3, 3),
                "p99": round(percentile(samples, 99) * 1e3, 3),
            },
        }


class ServerStats:
    """Aggregates :class:`EndpointStats` keyed by route name."""

    def __init__(self, clock=time.monotonic, registry: Optional[MetricsRegistry] = None):
        self._clock = clock
        self._started = clock()
        self._lock = Lock()
        self._endpoints: Dict[str, EndpointStats] = {}
        self.registry = registry if registry is not None else get_registry()
        self._requests = self.registry.counter(
            "repro_http_requests_total", "HTTP requests served.", labelnames=("route",)
        )
        self._errors = self.registry.counter(
            "repro_http_errors_total", "HTTP requests that failed.", labelnames=("route",)
        )
        self._latency = self.registry.histogram(
            "repro_http_request_latency_seconds",
            "HTTP request latency (successful requests).",
            labelnames=("route",),
        )

    def endpoint(self, name: str) -> EndpointStats:
        with self._lock:
            stats = self._endpoints.get(name)
            if stats is None:
                stats = EndpointStats(
                    requests=self._requests.labels(route=name),
                    errors=self._errors.labels(route=name),
                    latency=self._latency.labels(route=name),
                )
                self._endpoints[name] = stats
            return stats

    def timer(self) -> float:
        return self._clock()

    def record(self, name: str, started: float, error: bool = False) -> None:
        self.endpoint(name).record(self._clock() - started, error=error)

    def snapshot(self) -> Dict[str, object]:
        uptime = max(self._clock() - self._started, 1e-9)
        with self._lock:
            endpoints = dict(self._endpoints)
        per_endpoint = {name: ep.snapshot() for name, ep in endpoints.items()}
        total = sum(ep["requests"] for ep in per_endpoint.values())
        return {
            "uptime_s": round(uptime, 3),
            "total_requests": total,
            "requests_per_s": round(total / uptime, 3),
            "endpoints": per_endpoint,
        }
