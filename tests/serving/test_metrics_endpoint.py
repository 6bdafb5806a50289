"""GET /metrics: Prometheus exposition over the live serving plane."""

import re
import urllib.request

import json

import pytest

from repro.baselines import build_model
from repro.nn.serialization import save_checkpoint
from repro.serving import InferenceEngine, serve_in_thread

_LABEL = r'[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\.)*"'
_SAMPLE_RE = re.compile(
    rf"^[a-zA-Z_:][a-zA-Z0-9_:]*(\{{{_LABEL}(,{_LABEL})*\}})? -?[0-9eE+.]+(\+Inf)?$"
)


@pytest.fixture(scope="module")
def served(tmp_path_factory):
    from repro.data.profiles import DatasetProfile
    from repro.data.synthetic import SyntheticTKGGenerator

    dataset = SyntheticTKGGenerator(DatasetProfile(
        name="metrics_tiny", num_entities=20, num_relations=4,
        num_timestamps=16, facts_per_snapshot=8,
        time_granularity="1 step", seed=7,
    )).generate()
    model = build_model("distmult", 20, 4, dim=8)
    path = str(tmp_path_factory.mktemp("ckpt") / "model.npz")
    save_checkpoint(model, path, metadata={
        "model": "distmult", "num_entities": 20, "num_relations": 4, "dim": 8,
        "window": {"history_length": 2, "use_global": False},
    })
    engine = InferenceEngine.from_checkpoint(path, batch_window_s=0.0)
    engine.store.warm_up(dataset.train)
    server, thread = serve_in_thread(engine)
    yield server, engine
    server.shutdown()
    server.server_close()


def _get(url):
    with urllib.request.urlopen(url, timeout=10) as response:
        return response.headers, response.read().decode()


def _post(url, payload):
    request = urllib.request.Request(
        url, data=json.dumps(payload).encode(), method="POST",
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=10) as response:
        return json.loads(response.read().decode())


class TestMetricsEndpoint:
    def test_content_type_and_exposition_validity(self, served):
        server, _ = served
        headers, text = _get(server.url + "/metrics")
        assert headers["Content-Type"].startswith("text/plain")
        assert "version=0.0.4" in headers["Content-Type"]
        for line in text.strip().splitlines():
            if line.startswith("#"):
                assert re.match(r"^# (HELP|TYPE) ", line), line
            else:
                assert _SAMPLE_RE.match(line), f"bad exposition line: {line!r}"

    def test_request_latency_histogram_exported(self, served):
        server, _ = served
        _get(server.url + "/health")
        _, text = _get(server.url + "/metrics")
        assert 'repro_http_request_latency_seconds_bucket{route="GET /health",le="+Inf"}' in text
        assert 'repro_http_request_latency_seconds_count{route="GET /health"}' in text
        assert 'repro_http_requests_total{route="GET /health"}' in text

    def test_cache_and_engine_counters_exported(self, served):
        server, engine = served

        def exported(text, event):
            match = re.search(
                r'repro_cache_events_total\{cache="prediction",owner="serving",'
                rf'event="{event}"\}} (\d+)',
                text,
            )
            assert match, f"prediction-cache {event} series missing"
            return int(match.group(1))

        _, text = _get(server.url + "/metrics")
        before = {event: exported(text, event) for event in ("hit", "miss")}
        stats_before = engine.cache.stats()
        _post(server.url + "/predict", {"subject": 1, "relation": 1})
        _post(server.url + "/predict", {"subject": 1, "relation": 1})  # cache hit
        _, text = _get(server.url + "/metrics")
        stats = engine.cache.stats()
        # live registry counts move exactly with the owner (the LRU cache)
        assert exported(text, "hit") - before["hit"] == stats["hits"] - stats_before["hits"] >= 1
        assert exported(text, "miss") - before["miss"] == stats["misses"] - stats_before["misses"]
        assert "repro_engine_queries_served_total" in text
        assert "repro_compiled_graph_builds_total" in text
        assert 'repro_cache_events_total{cache="window_snapshot"' in text

    def test_encoder_state_cache_counters_exported(self, served):
        """Cold (s, r) pairs on a quiet window share one encode: the
        state-cache hit counter must be non-zero and exported."""
        server, engine = served
        # distinct cold pairs -> prediction-cache misses, but the window
        # content is unchanged (no global graph for distmult), so all but
        # the first decode from the cached encoder state
        for pair in ((2, 0), (3, 1), (4, 2), (5, 3)):
            _post(server.url + "/predict", {"subject": pair[0], "relation": pair[1]})
        _, text = _get(server.url + "/metrics")
        hit = re.search(
            r'repro_cache_events_total\{cache="encoder_state",owner="serving",event="hit"\} (\d+)',
            text,
        )
        miss = re.search(
            r'repro_cache_events_total\{cache="encoder_state",owner="serving",event="miss"\} (\d+)',
            text,
        )
        assert hit and miss, "encoder-state cache counters missing from /metrics"
        assert int(miss.group(1)) >= 1
        assert int(hit.group(1)) >= 1, "no state-cache hits on a quiet window"
        assert 'repro_cache_entries{cache="encoder_state",owner="serving"}' in text
        # /stats reads the same underlying cache (the registry counters
        # are cumulative across every serving-owned cache in the
        # process, so exported >= this instance's counts)
        stats = engine.stats()["state_cache"]
        assert int(hit.group(1)) >= stats["hits"] >= 1
        assert int(miss.group(1)) >= stats["misses"] >= 1
        assert stats["hit_rate"] > 0.0

    def test_window_version_gauge_tracks_store(self, served):
        server, engine = served
        _, text = _get(server.url + "/metrics")
        version = re.search(r"^repro_window_version (\d+)$", text, re.M)
        assert version and int(version.group(1)) == engine.store.window_version
        _post(server.url + "/ingest", {
            "events": [[0, 0, 1]],
            "timestamp": engine.store.current_time + 1,
            "flush": True,
        })
        _, text = _get(server.url + "/metrics")
        version = re.search(r"^repro_window_version (\d+)$", text, re.M)
        assert int(version.group(1)) == engine.store.window_version

    def test_stats_and_metrics_agree(self, served):
        """/stats and /metrics must read the same underlying objects."""
        server, _ = served
        _get(server.url + "/health")
        _, stats_text = _get(server.url + "/stats")
        stats = json.loads(stats_text)["server"]["endpoints"]["GET /health"]
        _, text = _get(server.url + "/metrics")
        # /metrics was rendered after /stats, so it saw >= that count
        exported = int(re.search(
            r'repro_http_requests_total\{route="GET /health"\} (\d+)', text
        ).group(1))
        assert exported >= stats["requests"]


_CACHES = (
    "encoder_state", "window_snapshot", "window_merged", "window_global",
    "prediction", "hot_pairs", "sampler",
)
_OLD_FAMILIES = (
    "repro_encoder_state_cache_events_total", "repro_encoder_state_cache_entries",
    "repro_window_cache_events_total", "repro_window_cache_entries",
    "repro_sampler_events_total",
    "repro_prediction_cache_events_total", "repro_prediction_cache_entries",
)


def test_every_cache_reports_one_series_vocabulary(tmp_path, tiny_dataset):
    """Every cache of a live scoped-cold-start server exports the same
    hit/miss/evict + entries series, and no old per-cache family."""
    from repro.obs.metrics import parse_prometheus_text

    E, R = tiny_dataset.num_entities, tiny_dataset.num_relations
    model = build_model("hisres", E, R, dim=8)
    path = str(tmp_path / "hisres.npz")
    save_checkpoint(model, path, metadata={
        "model": "hisres", "num_entities": E, "num_relations": R, "dim": 8,
        "window": {"history_length": 2, "use_global": True},
    })
    engine = InferenceEngine.from_checkpoint(
        path, cache_entries=2, batch_window_s=0.0, scoped_cold_start="2,1"
    )
    engine.store.warm_up(tiny_dataset.train)
    server, _ = serve_in_thread(engine)
    try:
        _post(server.url + "/ingest", {
            "events": [[0, 0, 1], [2, 1, 3]],
            "timestamp": engine.store.current_time + 1,
            "flush": True,
        })
        for s, r in ((0, 0), (0, 0), (1, 1), (2, 0), (0, 0)):
            _post(server.url + "/predict", {"subject": s, "relation": r})
            engine.join_warmups(timeout=30)
        _, text = _get(server.url + "/metrics")
    finally:
        server.shutdown()
        server.server_close()
    samples = parse_prometheus_text(text)
    events = {
        (x.labels["cache"], x.labels["event"])
        for x in samples if x.name == "repro_cache_events_total"
    }
    entries = {x.labels["cache"] for x in samples if x.name == "repro_cache_entries"}
    for cache in _CACHES:
        for event in ("hit", "miss", "evict"):
            assert (cache, event) in events, f"{cache} lacks {event} events"
        assert cache in entries, f"{cache} lacks an entries gauge"
    assert engine.cache.stats()["evictions"] >= 1
    assert engine.cache.stats()["hits"] >= 1
    for family in _OLD_FAMILIES:
        assert family not in text, f"old cache family {family} still exported"
