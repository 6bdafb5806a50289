"""Serving stats: nearest-rank percentile edge cases, registry backing."""

import pytest

from repro.obs.metrics import MetricsRegistry, percentile
from repro.serving.stats import EndpointStats, ServerStats


class TestPercentile:
    def test_empty_returns_zero(self):
        assert percentile([], 50) == 0.0

    def test_single_sample_every_q(self):
        for q in (0, 1, 50, 99, 100):
            assert percentile([7.0], q) == 7.0

    def test_q0_is_min_q100_is_max(self):
        samples = [5.0, 1.0, 9.0, 3.0]
        assert percentile(samples, 0) == 1.0
        assert percentile(samples, 100) == 9.0

    def test_nearest_rank_on_small_window(self):
        # The old round()-based rank picked the 3rd-smallest here
        # (banker's rounding of 1.5); nearest-rank says ceil(2) -> 2nd.
        assert percentile([1.0, 2.0, 3.0, 4.0], 50) == 2.0

    def test_ties(self):
        assert percentile([2.0, 2.0, 2.0, 9.0], 50) == 2.0
        assert percentile([2.0, 2.0, 2.0, 9.0], 99) == 9.0

    def test_out_of_range_q_clamped(self):
        samples = [1.0, 2.0]
        assert percentile(samples, -5) == 1.0
        assert percentile(samples, 250) == 2.0

    def test_input_order_irrelevant(self):
        assert percentile([4.0, 1.0, 3.0, 2.0], 50) == percentile(
            [1.0, 2.0, 3.0, 4.0], 50
        )


class TestEndpointStats:
    def test_standalone_records_and_snapshots(self):
        ep = EndpointStats()
        ep.record(0.010)
        ep.record(0.030)
        ep.record(0.5, error=True)
        snap = ep.snapshot()
        assert snap["requests"] == 3
        assert snap["errors"] == 1
        # the error latency is not folded into the percentiles
        assert snap["latency_ms"]["p99"] == pytest.approx(30.0)
        assert snap["latency_ms"]["mean"] == pytest.approx(20.0)

    def test_empty_snapshot(self):
        snap = EndpointStats().snapshot()
        assert snap["requests"] == 0
        assert snap["latency_ms"]["p50"] == 0.0


class TestServerStats:
    def test_snapshot_shape_and_rates(self):
        clock_value = [0.0]
        stats = ServerStats(clock=lambda: clock_value[0], registry=MetricsRegistry())
        started = stats.timer()
        clock_value[0] = 0.25
        stats.record("GET /health", started)
        clock_value[0] = 2.0
        snap = stats.snapshot()
        assert snap["uptime_s"] == 2.0
        assert snap["total_requests"] == 1
        assert snap["requests_per_s"] == 0.5
        assert snap["endpoints"]["GET /health"]["latency_ms"]["p50"] == 250.0

    def test_metrics_registry_sees_the_same_counts(self):
        registry = MetricsRegistry()
        stats = ServerStats(registry=registry)
        stats.endpoint("POST /predict").record(0.002)
        stats.endpoint("POST /predict").record(0.004, error=True)
        text = registry.render_prometheus()
        assert 'repro_http_requests_total{route="POST /predict"} 2' in text
        assert 'repro_http_errors_total{route="POST /predict"} 1' in text
        assert 'repro_http_request_latency_seconds_count{route="POST /predict"} 1' in text
        # one source of truth: the JSON snapshot reads the same objects
        assert stats.snapshot()["endpoints"]["POST /predict"]["requests"] == 2

    def test_endpoint_is_cached_per_route(self):
        stats = ServerStats(registry=MetricsRegistry())
        assert stats.endpoint("a") is stats.endpoint("a")
        assert stats.endpoint("a") is not stats.endpoint("b")
