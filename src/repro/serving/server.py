"""Dependency-free JSON-over-HTTP frontend on stdlib ``http.server``.

Routes (see ``docs/serving.md`` for full request/response schemas):

- ``GET  /health``  — liveness + model identity.
- ``GET  /stats``   — per-endpoint latency percentiles / throughput,
  engine cache + batching counters, store state.
- ``GET  /metrics`` — the process-wide :mod:`repro.obs` registry in
  Prometheus text exposition format (request latency histograms, cache
  hit/miss counters, window version, ...).
- ``POST /ingest``  — stream events; ``{"events": [[s, r, o], ...],
  "timestamp": t}`` or ``{"quads": [[s, r, o, t], ...]}``; optional
  ``"flush": true`` seals the open snapshot immediately.
- ``POST /predict`` — one query (``subject``/``relation``/``top_k``/
  ``inverse`` fields) or many (``{"queries": [...]}``, answered by one
  batched forward pass).

The server is a ``ThreadingHTTPServer``: concurrent ``/predict``
requests are coalesced by the engine's micro-batcher.

Two pieces here are deliberately generic so the cluster plane
(:mod:`repro.serving.router`, :mod:`repro.serving.shard`) reuses them
instead of reinventing HTTP plumbing:

- :class:`BaseJSONHandler` — JSON body parsing, response encoding,
  route dispatch with per-endpoint stats, and the drain-aware 503 on
  mutating routes;
- :class:`DrainableHTTPServer` — a ``ThreadingHTTPServer`` that counts
  in-flight requests and supports graceful drain: ``begin_drain()``
  flips ``/health`` to ``"draining"`` and rejects new work while
  :meth:`~DrainableHTTPServer.drain` waits for in-flight requests to
  finish.  :func:`run_with_graceful_shutdown` wires SIGTERM/SIGINT to
  that sequence for the CLI entry points.
"""

from __future__ import annotations

import json
import logging
import os
import signal
import threading
import time
import uuid
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, Optional, Tuple
from urllib.parse import parse_qs

from repro.obs.health import health_counter
from repro.obs.logging import log_event
from repro.obs.metrics import MetricsRegistry, get_registry
from repro.obs.trace import TraceContext, activate, span
from repro.obs.runs import RunLedger, default_ledger_path
from repro.serving.audit import AUDIT_DEFAULT_CAPACITY, RequestAudit
from repro.serving.engine import InferenceEngine
from repro.serving.stats import ServerStats

MAX_BODY_BYTES = 16 * 1024 * 1024

#: Structured access-log stream: one ``http.access`` event per request
#: (request id, trace id, route, status, latency).  NullHandler by
#: default — ``configure_logging()`` or any root handler surfaces it.
ACCESS_LOGGER = logging.getLogger("repro.serving.access")
ACCESS_LOGGER.addHandler(logging.NullHandler())

REQUEST_ID_HEADER = "X-Request-Id"


def new_request_id() -> str:
    """A fresh 16-hex request id (generated when the client sent none)."""
    return uuid.uuid4().hex[:16]


class BadRequest(ValueError):
    """Client error: malformed JSON or invalid fields (HTTP 400)."""


class DrainableHTTPServer(ThreadingHTTPServer):
    """Threading HTTP server with in-flight tracking and graceful drain.

    ``begin_drain()`` marks the server as draining: mutating routes
    (see :attr:`BaseJSONHandler.drain_rejected`) start answering 503
    while requests already past the door run to completion.
    ``drain(timeout)`` blocks until the in-flight count reaches zero
    (or the timeout passes) — after it returns, ``shutdown()`` +
    ``server_close()`` cannot cut off a response mid-write.
    """

    daemon_threads = True

    def __init__(self, address, handler_class):
        super().__init__(address, handler_class)
        self._inflight = 0
        self._inflight_lock = threading.Lock()
        self._idle = threading.Condition(self._inflight_lock)
        self._draining = threading.Event()

    @property
    def draining(self) -> bool:
        return self._draining.is_set()

    @property
    def inflight(self) -> int:
        with self._inflight_lock:
            return self._inflight

    def begin_drain(self) -> None:
        self._draining.set()

    def request_started(self) -> None:
        with self._inflight_lock:
            self._inflight += 1

    def request_finished(self) -> None:
        with self._inflight_lock:
            self._inflight = max(0, self._inflight - 1)
            if self._inflight == 0:
                self._idle.notify_all()

    def drain(self, timeout: float = 10.0) -> bool:
        """Stop accepting work and wait for in-flight requests; True if idle."""
        self.begin_drain()
        deadline = time.monotonic() + max(0.0, timeout)
        with self._inflight_lock:
            while self._inflight > 0:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return False
                self._idle.wait(timeout=min(remaining, 0.1))
        return True

    @property
    def url(self) -> str:
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"


def run_with_graceful_shutdown(server: DrainableHTTPServer, drain_timeout: float = 10.0):
    """``serve_forever`` with SIGTERM/SIGINT mapped to drain-then-stop.

    On the first signal the server flips to draining (503 on new work,
    ``/health`` reports ``"draining"``), a helper thread waits out the
    in-flight requests, and only then is the accept loop shut down.
    Handlers are restored on exit so nested/serial servers in one
    process (tests) do not leak signal state.  Must run on the main
    thread (CPython restricts ``signal.signal`` to it); the caller
    still owns ``server_close()``.
    """

    def _initiate(signum, frame):  # noqa: ARG001 - signal signature
        if server.draining:
            return  # second signal: drain already in progress
        server.begin_drain()

        def _finish():
            server.drain(timeout=drain_timeout)
            server.shutdown()

        threading.Thread(target=_finish, daemon=True).start()

    previous = {
        sig: signal.signal(sig, _initiate) for sig in (signal.SIGTERM, signal.SIGINT)
    }
    try:
        server.serve_forever()
    finally:
        for sig, old in previous.items():
            signal.signal(sig, old)


class BaseJSONHandler(BaseHTTPRequestHandler):
    """JSON plumbing + route dispatch shared by every serving frontend.

    Subclasses implement :meth:`routes` returning ``{"METHOD /path":
    callable}`` where each callable returns ``(payload_dict, status)``.
    ``GET /metrics`` is handled here (Prometheus text, not JSON)
    whenever the server exposes a ``registry``.  While the server is
    draining, routes listed in :attr:`drain_rejected` answer 503 so a
    supervisor can drain a node without failing reads.
    """

    protocol_version = "HTTP/1.1"
    server_version = "repro-serving"

    #: Routes refused (503) once draining begins — mutating or
    #: long-running work; health/stats/metrics stay available so the
    #: drain itself is observable.
    drain_rejected = ("POST /ingest", "POST /predict", "POST /decode")

    @property
    def stats(self) -> ServerStats:
        return self.server.stats

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        if getattr(self.server, "verbose", False):
            super().log_message(format, *args)

    def _read_json(self) -> Dict:
        length = int(self.headers.get("Content-Length") or 0)
        if length <= 0:
            raise BadRequest("a JSON body is required")
        if length > MAX_BODY_BYTES:
            raise BadRequest(f"body too large ({length} bytes)")
        raw = self.rfile.read(length)
        try:
            body = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise BadRequest(f"invalid JSON body: {exc}") from exc
        if not isinstance(body, dict):
            raise BadRequest("JSON body must be an object")
        return body

    def _send_json(self, payload: Dict, status: int = 200) -> None:
        # Every response carries the request's identity; errors and
        # degraded (partial) replies embed it in the body too, so a
        # client log line is enough to find the matching audit entry.
        request_id = getattr(self, "request_id", None)
        if request_id and isinstance(payload, dict):
            if status >= 400 or payload.get("partial"):
                payload.setdefault("request_id", request_id)
        data = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        if request_id:
            self.send_header(REQUEST_ID_HEADER, request_id)
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)
        self._response_status = status

    def _send_text(self, text: str, content_type: str, status: int = 200) -> None:
        data = text.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        request_id = getattr(self, "request_id", None)
        if request_id:
            self.send_header(REQUEST_ID_HEADER, request_id)
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)
        self._response_status = status

    def routes(self) -> Dict[str, object]:
        """Route table: ``{"METHOD /path": handler}`` (override)."""
        return {}

    # ------------------------------------------------------------------
    def _route(self, method: str) -> None:
        path, _, query = self.path.partition("?")
        path = path.rstrip("/") or "/"
        self.query = parse_qs(query) if query else {}
        name = f"{method} {path}"
        # request identity: echo the caller's X-Request-Id / traceparent
        # or mint fresh ones, so every hop of a request shares one
        # (request_id, trace_id) pair even while tracing is disabled.
        self.request_id = (self.headers.get(REQUEST_ID_HEADER) or "").strip() or new_request_id()
        self.trace_ctx = TraceContext.extract(self.headers) or TraceContext.new()
        self.audit_detail: Dict = {}
        self._response_status = 200
        started = self.stats.timer()
        wall_started = time.perf_counter()
        tracked = hasattr(self.server, "request_started")
        if tracked:
            self.server.request_started()
        try:
            with activate(self.trace_ctx):
                self._dispatch(name, started)
        finally:
            latency_ms = (time.perf_counter() - wall_started) * 1e3
            self._audit(name, latency_ms)
            if tracked:
                self.server.request_finished()

    def _dispatch(self, name: str, started: float) -> None:
        try:
            if getattr(self.server, "draining", False) and name in self.drain_rejected:
                self._send_json(
                    {"error": "server is draining", "status": "draining"}, status=503
                )
                self.stats.record(name, started, error=True)
                return
            if name == "GET /metrics" and getattr(self.server, "registry", None) is not None:
                # Prometheus exposition is plain text, not JSON.
                with span("http.request", route=name):
                    self._send_text(
                        self.server.registry.render_prometheus(),
                        "text/plain; version=0.0.4; charset=utf-8",
                    )
                self.stats.record(name, started)
                return
            if name == "GET /debug/requests" and getattr(self.server, "audit", None) is not None:
                self._send_json(self._debug_requests_payload())
                self.stats.record(name, started)
                return
            handler = self.routes().get(name)
            if handler is None:
                self._send_json({"error": f"unknown route {name!r}"}, status=404)
                return
            with span("http.request", route=name, request_id=self.request_id):
                payload, status = handler()
            self._send_json(payload, status=status)
            self.stats.record(name, started, error=status >= 400)
        except BadRequest as exc:
            self._send_json({"error": str(exc)}, status=400)
            self.stats.record(name, started, error=True)
        except ValueError as exc:  # engine/store validation errors
            self._send_json({"error": str(exc)}, status=400)
            self.stats.record(name, started, error=True)
        except Exception as exc:  # pragma: no cover - defensive
            self._send_json({"error": f"internal error: {exc}"}, status=500)
            self.stats.record(name, started, error=True)

    def _debug_requests_payload(self) -> Dict:
        slowest = None
        raw = self.query.get("slowest", [None])[0]
        if raw is not None:
            try:
                slowest = max(1, int(raw))
            except ValueError:
                raise BadRequest(f"'slowest' must be an integer, got {raw!r}")
        return self.server.audit.snapshot(slowest=slowest)

    def _audit(self, name: str, latency_ms: float) -> None:
        """Record one audit-ring entry + access-log event per request."""
        status = getattr(self, "_response_status", 200)
        detail = getattr(self, "audit_detail", None) or {}
        audit: Optional[RequestAudit] = getattr(self.server, "audit", None)
        if audit is not None and name != "GET /debug/requests":
            audit.record(
                name,
                status,
                latency_ms,
                request_id=self.request_id,
                trace_id=self.trace_ctx.trace_id,
                **detail,
            )
        log_event(
            ACCESS_LOGGER,
            "http.access",
            request_id=self.request_id,
            trace_id=self.trace_ctx.trace_id,
            route=name,
            status=status,
            latency_ms=round(latency_ms, 3),
            **{k: v for k, v in detail.items() if not isinstance(v, (list, dict))},
        )

    def do_GET(self) -> None:  # noqa: N802 - stdlib casing
        self._route("GET")

    def do_POST(self) -> None:  # noqa: N802 - stdlib casing
        self._route("POST")


class ServingHandler(BaseJSONHandler):
    """Single-process route table; state lives on ``server``."""

    # ------------------------------------------------------------------
    @property
    def engine(self) -> InferenceEngine:
        return self.server.engine

    def routes(self) -> Dict[str, object]:
        return {
            "GET /health": self._handle_health,
            "GET /stats": self._handle_stats,
            "POST /ingest": self._handle_ingest,
            "POST /predict": self._handle_predict,
        }

    # ------------------------------------------------------------------
    def _handle_health(self) -> Tuple[Dict, int]:
        return (
            {
                "status": "draining" if self.server.draining else "ok",
                "model": self.engine.model_key,
                "num_entities": self.engine.store.num_entities,
                "num_relations": self.engine.store.num_relations,
                "window_version": self.engine.store.window_version,
                "current_time": self.engine.store.current_time,
            },
            200,
        )

    def _handle_stats(self) -> Tuple[Dict, int]:
        return ({"server": self.stats.snapshot(), "engine": self.engine.stats()}, 200)

    def _handle_ingest(self) -> Tuple[Dict, int]:
        body = self._read_json()
        if ("events" in body) == ("quads" in body):
            raise BadRequest("provide exactly one of 'events' (with 'timestamp') or 'quads'")
        if "events" in body:
            if "timestamp" not in body:
                raise BadRequest("'events' requires a 'timestamp'")
            result = self.engine.ingest(body["events"], timestamp=int(body["timestamp"]))
        else:
            result = self.engine.ingest(body["quads"])
        if body.get("flush"):
            result["flushed"] = self.engine.flush()
            result["window_version"] = self.engine.store.window_version
            result["pending_events"] = self.engine.store.pending_events
        return result, 200

    def _handle_predict(self) -> Tuple[Dict, int]:
        body = self._read_json()
        if "queries" in body:
            queries = body["queries"]
            if not isinstance(queries, list) or not queries:
                raise BadRequest("'queries' must be a non-empty list")
            for q in queries:
                if not isinstance(q, dict) or "subject" not in q or "relation" not in q:
                    raise BadRequest("each query needs 'subject' and 'relation'")
            results = self.engine.predict_many(
                queries, default_top_k=int(body.get("top_k", 10))
            )
            self.audit_detail.update(self.engine.last_batch_info or {})
            return {"results": results}, 200
        if "subject" not in body or "relation" not in body:
            raise BadRequest("'subject' and 'relation' are required")
        predictions = self.engine.predict(
            int(body["subject"]),
            int(body["relation"]),
            top_k=int(body.get("top_k", 10)),
            inverse=bool(body.get("inverse", False)),
        )
        self.audit_detail.update(self.engine.last_batch_info or {})
        return (
            {
                "subject": int(body["subject"]),
                "relation": int(body["relation"]),
                "inverse": bool(body.get("inverse", False)),
                "predictions": predictions,
            },
            200,
        )


def _engine_collector(engine: InferenceEngine, registry: MetricsRegistry):
    """Bridge engine-owned counters onto the registry at scrape time.

    The engine's micro-batcher and store keep their own counters (they
    predate the registry and back ``/stats`` directly); rather than
    double-count, this collector refreshes registry series from those
    owners right before every ``/metrics`` render.  The engine's caches
    need no bridge: :class:`~repro.obs.cache.LRUCache` counts live on
    the registry.
    """
    window_version = registry.gauge(
        "repro_window_version", "History-store window version (bumps per sealed snapshot)."
    )
    queries = registry.counter(
        "repro_engine_queries_served_total", "Queries answered by the engine."
    )
    forwards = registry.counter(
        "repro_engine_predict_calls_total", "Model forward passes executed."
    )
    batches = registry.counter(
        "repro_batcher_batches_total", "Micro-batches executed."
    )
    batched = registry.counter(
        "repro_batcher_batched_queries_total", "Queries coalesced into micro-batches."
    )
    store_gauges = registry.gauge(
        "repro_store_events", "History-store event counts.", labelnames=("state",)
    )

    def collect() -> None:
        stats = engine.stats()
        store, batching = stats["store"], stats["batching"]
        window_version.set(store["window_version"])
        queries.inc_to(stats["queries_served"])
        forwards.inc_to(stats["predict_calls"])
        batches.inc_to(batching["batches"])
        batched.inc_to(batching["batched_queries"])
        store_gauges.labels(state="pending").set(store["pending_events"])
        store_gauges.labels(state="total").set(store["total_events"])
        store_gauges.labels(state="sealed_snapshots").set(store["sealed_snapshots"])

    return collect


def _ledger_collector(registry: MetricsRegistry):
    """Expose run-ledger record counts by kind on ``/metrics``.

    Reads the default ledger lazily at scrape time, cached on the
    file's (mtime, size) so an idle server costs one ``stat`` per
    scrape, not a re-parse.
    """
    rows = registry.gauge(
        "repro_run_ledger_records",
        "Records in the run ledger by kind.",
        labelnames=("kind",),
    )
    cache = {"stamp": None, "counts": {}}

    def collect() -> None:
        path = default_ledger_path()
        try:
            stat = os.stat(path)
            stamp = (stat.st_mtime_ns, stat.st_size)
        except OSError:
            return
        if stamp != cache["stamp"]:
            cache["counts"] = RunLedger(path).counts_by_kind()
            cache["stamp"] = stamp
        for kind, count in cache["counts"].items():
            rows.labels(kind=kind).set(count)

    return collect


class ServingServer(DrainableHTTPServer):
    """Drainable threading server carrying the engine + stats singletons."""

    def __init__(
        self,
        address,
        engine: InferenceEngine,
        verbose: bool = False,
        request_log_entries: int = AUDIT_DEFAULT_CAPACITY,
    ):
        super().__init__(address, ServingHandler)
        self.engine = engine
        self.registry = get_registry()
        self.stats = ServerStats(registry=self.registry)
        self.audit = RequestAudit(request_log_entries) if request_log_entries else None
        self.verbose = verbose
        self._collector = self.registry.register_collector(
            _engine_collector(engine, self.registry)
        )
        # health events + run-ledger counts render on /metrics even
        # before anything fires (families are created idempotently)
        health_counter(self.registry)
        self._ledger_collector = self.registry.register_collector(
            _ledger_collector(self.registry)
        )

    def server_close(self) -> None:
        self.registry.unregister_collector(self._collector)
        self.registry.unregister_collector(self._ledger_collector)
        super().server_close()


def create_server(
    engine: InferenceEngine,
    host: str = "127.0.0.1",
    port: int = 8420,
    verbose: bool = False,
    request_log_entries: int = AUDIT_DEFAULT_CAPACITY,
) -> ServingServer:
    """Bind (but do not start) a serving frontend; ``port=0`` auto-picks."""
    return ServingServer(
        (host, port), engine, verbose=verbose, request_log_entries=request_log_entries
    )


def serve_in_thread(engine: InferenceEngine, host: str = "127.0.0.1", port: int = 0):
    """Start a server on a daemon thread; returns ``(server, thread)``.

    Convenience for tests and notebooks::

        server, thread = serve_in_thread(engine)
        ... urllib.request.urlopen(server.url + "/health") ...
        server.shutdown()
    """
    server = create_server(engine, host=host, port=port)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    return server, thread
