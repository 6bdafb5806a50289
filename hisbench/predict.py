"""``predict_hot`` and ``predict_stream``: the HTTP serving workloads.

Both drive a separate server process (``server.py``: HisRES dim 200,
store warmed from the ``icews14s_small`` train history) from this
process, with at most two connections open at a time.

- ``predict_hot`` — closed loop: two keep-alive ``http.client``
  connections each send a fixed list of single-pair ``/predict``
  requests for Zipf-skewed pairs the prediction cache already holds.
  Read-only; zero encodes.
- ``predict_stream`` — open loop on a fixed schedule: in every interval
  one sender issues ``/predict`` requests at a fixed rate through
  ``ServingClient`` (a new connection per request) for the raw and
  inverse pairs of the next held-out snapshot, then ``/ingest``s that
  snapshot with ``flush``.  Latency counts from each request's due time.
"""

from __future__ import annotations

import http.client
import json
import math
import select
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple
from urllib.parse import urlparse

import numpy as np

import server as serving
from record import DIM, MODEL, MODEL_SEED, Checks, latency_summary

HERE = Path(__file__).resolve().parent
TOP_K = 10
#: server spawns per run; ``setup_s`` is the median spawn-to-ready time
SPAWNS = 5
READY_TIMEOUT_S = 120.0
REQUEST_TIMEOUT_S = 30.0
#: replies recomputed by an in-process engine
RECHECK_SAMPLE = 8

# predict_hot
CONNECTIONS = 2
HOT_POOL = 48
HOT_ZIPF = 1.1
#: requests per 10 s of ``--seconds``, split over the connections
HOT_REQUESTS_PER_10_S = 400
HOT_WARMUP_PER_CONNECTION = 10

# predict_stream: 16 intervals per 10 s (one per held-out snapshot of
# icews14s_small), 6 predicts each: 9.6 requests/s, about half of what
# one sender can serve at ~50 ms per encode
STREAM_PERIOD_S = 0.625
STREAM_PREDICTS_PER_INTERVAL = 6
STREAM_WARMUP_PREDICTS = 3

Pair = Tuple[int, int, bool]  # (subject, relation, inverse)


class ServerProcess:
    """One ``server.py`` child: spawn-to-ready timing, commands, stop."""

    def __init__(self, seed: int, trace: bool):
        started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "server.py"), "--seed", str(seed),
             "--trace", str(int(trace))],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
            bufsize=1,
        )
        try:
            line = self._readline(READY_TIMEOUT_S)
            if not line.startswith("READY "):
                raise RuntimeError(f"server did not start: {line!r}")
        except BaseException:
            self.stop()
            raise
        self.ready_s = time.perf_counter() - started
        self.url = line.split()[1]

    def _readline(self, timeout: float) -> str:
        ready, _, _ = select.select([self.proc.stdout], [], [], timeout)
        if not ready:
            raise TimeoutError("server did not answer")
        return self.proc.stdout.readline().strip()

    def command(self, name: str, timeout: float = 30.0) -> str:
        self.proc.stdin.write(name + "\n")
        self.proc.stdin.flush()
        return self._readline(timeout)

    def reset(self) -> None:
        if self.command("reset") != "ok":
            raise RuntimeError("server reset failed")

    def report(self) -> Dict:
        return json.loads(self.command("report"))

    def stop(self) -> None:
        if self.proc.poll() is None:
            try:
                self.proc.stdin.write("quit\n")
                self.proc.stdin.close()
            except OSError:
                pass
            try:
                self.proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        for stream in (self.proc.stdin, self.proc.stdout):
            if stream is not None and not stream.closed:
                stream.close()

    def __enter__(self) -> "ServerProcess":
        return self

    def __exit__(self, *exc) -> None:
        self.stop()


def spawn_for_setup(seed: int) -> Tuple[ServerProcess, List[float]]:
    """Spawn ``SPAWNS`` servers one after another; keep the last."""
    times = []
    for i in range(SPAWNS):
        proc = ServerProcess(seed, trace=False)
        times.append(proc.ready_s)
        if i < SPAWNS - 1:
            proc.stop()
    return proc, times


class KeepAlive:
    """One persistent ``http.client`` connection sending ``/predict``."""

    def __init__(self, url: str):
        parts = urlparse(url)
        self.conn = http.client.HTTPConnection(
            parts.hostname, parts.port, timeout=REQUEST_TIMEOUT_S
        )

    def predict(self, pair: Pair) -> Dict:
        body = json.dumps(
            {"subject": pair[0], "relation": pair[1], "top_k": TOP_K, "inverse": pair[2]}
        )
        self.conn.request("POST", "/predict", body, {"Content-Type": "application/json"})
        response = self.conn.getresponse()
        data = response.read()
        if response.status != 200:
            raise RuntimeError(f"HTTP {response.status}: {data[:200]!r}")
        return json.loads(data)

    def close(self) -> None:
        self.conn.close()


def query(pair: Pair) -> Dict:
    return {"subject": pair[0], "relation": pair[1], "inverse": pair[2]}


def pairs_of(quads: np.ndarray) -> List[Pair]:
    """Distinct raw ``(s, r)`` and inverse ``(o, r)`` query pairs, sorted."""
    raw = {(int(s), int(r), False) for s, r, _, _ in quads}
    inverse = {(int(o), int(r), True) for _, r, o, _ in quads}
    return sorted(raw | inverse)


# ----------------------------------------------------------------------
# output checks
def check_reply(reply: Optional[Dict], pair: Pair, num_entities: int) -> Optional[str]:
    """None when a ``/predict`` reply is well formed, else the defect."""
    if reply is None:
        return "no reply"
    if (reply.get("subject"), reply.get("relation"), reply.get("inverse")) != pair:
        return f"reply is for another query: {reply.get('subject')}, {reply.get('relation')}"
    rows = reply.get("predictions") or []
    if len(rows) != TOP_K:
        return f"{len(rows)} rows, expected {TOP_K}"
    if [row.get("rank") for row in rows] != list(range(1, TOP_K + 1)):
        return "ranks are not 1..k"
    ids = [row.get("entity") for row in rows]
    if len(set(ids)) != len(ids):
        return "duplicate entity ids"
    if not all(isinstance(e, int) and 0 <= e < num_entities for e in ids):
        return "entity id out of range"
    scores = [row.get("score") for row in rows]
    if not all(isinstance(v, float) and math.isfinite(v) for v in scores):
        return "non-finite score"
    if any(b > a for a, b in zip(scores, scores[1:])):
        return "scores increase"
    return None


def check_replies(checks: Checks, name: str, sent: List[Tuple[Pair, Optional[Dict]]],
                  num_entities: int) -> None:
    defects = [
        (pair, defect)
        for pair, reply in sent
        if (defect := check_reply(reply, pair, num_entities)) is not None
    ]
    checks.expect(
        f"{name}.replies_well_formed",
        not defects,
        f"{len(defects)} bad of {len(sent)}; first: {defects[:1]}",
    )


def check_recomputed(checks: Checks, name: str, expected: Dict[int, List[int]],
                     sent: List[Tuple[Pair, Optional[Dict]]]) -> None:
    """Sampled replies carry the ids an in-process engine computes."""
    wrong = [
        i for i, ids in expected.items()
        if sent[i][1] is None or [row["entity"] for row in sent[i][1]["predictions"]] != ids
    ]
    checks.expect(
        f"{name}.sample_matches_in_process_engine",
        bool(expected) and not wrong,
        f"{len(wrong)} of {len(expected)} differ: {wrong[:3]}",
    )


def top_ids(engine, pair: Pair) -> List[int]:
    return [row["entity"] for row in engine.predict(pair[0], pair[1], top_k=TOP_K, inverse=pair[2])]


# ----------------------------------------------------------------------
# predict_hot
def hot_inputs(dataset, seed: int, seconds: int):
    """Cache-resident pool and one Zipf-skewed request list per connection."""
    rng = np.random.default_rng(seed)
    candidates = pairs_of(dataset.train.quads)
    pool = [candidates[i] for i in sorted(rng.choice(len(candidates), HOT_POOL, replace=False))]
    weights = 1.0 / np.arange(1, HOT_POOL + 1) ** HOT_ZIPF
    weights /= weights.sum()
    per_connection = HOT_REQUESTS_PER_10_S * seconds // 10 // CONNECTIONS
    schedules = [
        [pool[i] for i in np.random.default_rng([seed, c + 1]).choice(HOT_POOL, per_connection, p=weights)]
        for c in range(CONNECTIONS)
    ]
    return pool, schedules


def hot_pass(proc: ServerProcess, pool: List[Pair], schedules: List[List[Pair]]):
    """Fill the cache, warm both connections, then run the closed loop."""
    from repro.serving import ServingClient

    ServingClient(proc.url, timeout=REQUEST_TIMEOUT_S).predict_many(
        [query(p) for p in pool], top_k=TOP_K
    )
    connections = [KeepAlive(proc.url) for _ in schedules]
    try:
        for conn in connections:
            for pair in pool[:HOT_WARMUP_PER_CONNECTION]:
                conn.predict(pair)
        proc.reset()
        barrier = threading.Barrier(len(connections))
        spans = [None] * len(connections)
        outcomes: List[List] = [[] for _ in connections]

        def drive(c: int) -> None:
            conn, out = connections[c], outcomes[c]
            barrier.wait()
            start = time.perf_counter()
            for pair in schedules[c]:
                sent = time.perf_counter()
                try:
                    reply = conn.predict(pair)
                    out.append((time.perf_counter() - sent, pair, reply))
                except (OSError, RuntimeError, ValueError, http.client.HTTPException):
                    out.append((math.inf, pair, None))
                    conn.close()
            spans[c] = (start, time.perf_counter())

        threads = [threading.Thread(target=drive, args=(c,)) for c in range(len(connections))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    finally:
        for conn in connections:
            conn.close()
    wall = max(end for _, end in spans) - min(start for start, _ in spans)
    flat = [item for out in outcomes for item in out]
    return wall, flat


def run_hot(seed: int, seconds: int, trace: bool):
    from repro.data.synthetic import generate_dataset

    dataset = generate_dataset(serving.PROFILE, seed=seed)
    pool, schedules = hot_inputs(dataset, seed, seconds)
    proc, setups = spawn_for_setup(seed)
    with proc:
        wall, outcomes = hot_pass(proc, pool, schedules)
        report = proc.report()
    latencies = [lat for lat, _, _ in outcomes]
    sent = [(pair, reply) for _, pair, reply in outcomes]
    failed = sum(reply is None for _, reply in sent)

    checks = Checks()
    check_replies(checks, "predict_hot", sent, dataset.num_entities)
    engine = serving.build_engine(dataset)
    engine.predict_many([query(p) for p in pool], default_top_k=TOP_K)
    rng = np.random.default_rng([seed, 0])
    sample = sorted(rng.choice(len(sent), RECHECK_SAMPLE, replace=False).tolist())
    check_recomputed(checks, "predict_hot", {i: top_ids(engine, sent[i][0]) for i in sample}, sent)

    completed = len(sent) - failed
    result = finish(
        "predict_hot", seed, seconds, setups, report, latencies, completed / wall, checks,
        details={
            "throughput": "completed requests per second, closed loop of 2 keep-alive connections",
            "latency": "per request at the client, send to reply",
            "timed_wall_s": wall,
            "requests": len(sent),
            "pool": HOT_POOL,
            "server_counters": report["counters"],
        },
    )
    result["attempted"] = len(sent)
    result["failed"] = failed
    result["untraced"] = {"busy_s": sum(latencies), "ops": len(sent)}
    if trace:
        with ServerProcess(seed, trace=True) as traced_proc:
            t_wall, t_outcomes = hot_pass(traced_proc, pool, schedules)
            t_report = traced_proc.report()
        t_sent = [(pair, reply) for _, pair, reply in t_outcomes]
        check_replies(checks, "predict_hot.traced", t_sent, dataset.num_entities)
        service = sum(lat for lat, _, _ in t_outcomes)
        result["traced"] = traced_summary(t_report, service, len(t_outcomes))
        result["attempted"] += len(t_outcomes)
        result["failed"] += sum(reply is None for _, reply in t_sent)
    return result


# ----------------------------------------------------------------------
# predict_stream
def stream_intervals(seconds: int) -> int:
    return max(2, round(seconds / STREAM_PERIOD_S))


def stream_schedule(dataset, seed: int, seconds: int) -> List[Tuple]:
    """Events ``(offset_s, "predict", pair)`` / ``(offset_s, "ingest", triples, t)``.

    Interval ``i`` asks about held-out snapshot ``i`` (cycled, with
    advancing timestamps) at a fixed rate and then ingests it.
    """
    held = sorted(dataset.valid.facts_by_time().items()) + sorted(
        dataset.test.facts_by_time().items()
    )
    first_t = int(held[0][0])
    rng = np.random.default_rng(seed)
    slot = STREAM_PERIOD_S / (STREAM_PREDICTS_PER_INTERVAL + 1)
    events: List[Tuple] = []
    for i in range(stream_intervals(seconds)):
        _, quads = held[i % len(held)]
        pairs = pairs_of(quads)
        picks = rng.choice(len(pairs), STREAM_PREDICTS_PER_INTERVAL,
                           replace=len(pairs) < STREAM_PREDICTS_PER_INTERVAL)
        base = i * STREAM_PERIOD_S
        for j, k in enumerate(picks):
            events.append((base + j * slot, "predict", pairs[int(k)]))
        triples = [[int(s), int(r), int(o)] for s, r, o, _ in quads]
        events.append((base + STREAM_PREDICTS_PER_INTERVAL * slot, "ingest", triples, first_t + i))
    return events


def stream_pass(proc: ServerProcess, dataset, schedule: List[Tuple]):
    """Warm up, then replay the schedule from one sender thread."""
    from repro.serving import ServingClient, ServingError

    client = ServingClient(proc.url, timeout=REQUEST_TIMEOUT_S)
    last_train = sorted(dataset.train.facts_by_time().items())[-1][1]
    for pair in pairs_of(last_train)[:STREAM_WARMUP_PREDICTS]:
        client.predict(pair[0], pair[1], top_k=TOP_K, inverse=pair[2])
    proc.reset()
    outcomes = []  # (kind, pair, reply, due_latency, service, lag)
    origin = time.perf_counter() + 0.05
    for event in schedule:
        due = origin + event[0]
        pause = due - time.perf_counter()
        if pause > 0:
            time.sleep(pause)
        sent = time.perf_counter()
        reply = None
        try:
            if event[1] == "predict":
                pair = event[2]
                reply = client.predict(pair[0], pair[1], top_k=TOP_K, inverse=pair[2])
            else:
                reply = client.ingest(event[2], timestamp=event[3], flush=True)
        except (ServingError, OSError, ValueError):
            reply = None
        end = time.perf_counter()
        outcomes.append((event[1], event[2] if event[1] == "predict" else None, reply,
                         end - due if reply is not None else math.inf, end - sent, sent - due))
    wall = time.perf_counter() - origin
    return wall, outcomes


def run_stream(seed: int, seconds: int, trace: bool):
    from repro.data.synthetic import generate_dataset

    dataset = generate_dataset(serving.PROFILE, seed=seed)
    schedule = stream_schedule(dataset, seed, seconds)
    proc, setups = spawn_for_setup(seed)
    with proc:
        wall, outcomes = stream_pass(proc, dataset, schedule)
        report = proc.report()
    predicts = [o for o in outcomes if o[0] == "predict"]
    ingests = [o for o in outcomes if o[0] == "ingest"]
    sent = [(o[1], o[2]) for o in predicts]
    failed = sum(o[2] is None for o in outcomes)

    checks = Checks()
    check_replies(checks, "predict_stream", sent, dataset.num_entities)
    checks.expect(
        "predict_stream.every_ingest_sealed",
        all(o[2] is not None and o[2].get("flushed") for o in ingests),
    )
    rng = np.random.default_rng([seed, 0])
    sample = set(rng.choice(len(predicts), RECHECK_SAMPLE, replace=False).tolist())
    engine = serving.build_engine(dataset)
    expected, index = {}, 0
    for event in schedule:
        if event[1] == "ingest":
            engine.ingest(event[2], timestamp=event[3])
            engine.flush()
            continue
        if index in sample:
            expected[index] = top_ids(engine, event[2])
        index += 1
    check_recomputed(checks, "predict_stream", expected, sent)

    completed = sum(o[2] is not None for o in predicts)
    lags = [o[5] for o in predicts]
    result = finish(
        "predict_stream", seed, seconds, setups, report, [o[3] for o in predicts],
        completed / wall, checks,
        details={
            "throughput": "completed /predict requests per second of the schedule",
            "latency": "per /predict request, from its due time to its reply",
            "offered_rate_per_s": STREAM_PREDICTS_PER_INTERVAL / STREAM_PERIOD_S,
            "intervals": stream_intervals(seconds),
            "timed_wall_s": wall,
            "generator_lag_ms": {
                "p50": statistics.median(lags) * 1e3,
                "max": max(lags) * 1e3,
            },
            "service_latency": latency_summary([o[4] for o in predicts]),
            "ingest_latency": latency_summary([o[4] for o in ingests]),
            "server_counters": report["counters"],
        },
    )
    result["attempted"] = len(outcomes)
    result["failed"] = failed
    result["untraced"] = {"busy_s": sum(o[4] for o in outcomes), "ops": len(outcomes)}
    if trace:
        with ServerProcess(seed, trace=True) as traced_proc:
            _, t_outcomes = stream_pass(traced_proc, dataset, schedule)
            t_report = traced_proc.report()
        t_sent = [(o[1], o[2]) for o in t_outcomes if o[0] == "predict"]
        check_replies(checks, "predict_stream.traced", t_sent, dataset.num_entities)
        service = sum(o[4] for o in t_outcomes)
        result["traced"] = traced_summary(t_report, service, len(t_outcomes))
        result["attempted"] += len(t_outcomes)
        result["failed"] += sum(o[2] is None for o in t_outcomes)
    return result


# ----------------------------------------------------------------------
def config(workload: str, seed: int, seconds: int) -> Dict[str, object]:
    shared = {
        "model": MODEL,
        "dim": DIM,
        "model_seed": MODEL_SEED,
        "profile": serving.PROFILE,
        "dataset_seed": seed,
        "window": serving.WINDOW,
        "top_k": TOP_K,
        "engine": "InferenceEngine defaults (cache 4096, batch window 2 ms, state cache 8)",
    }
    if workload == "predict_hot":
        shared.update(
            loop="closed", connections=CONNECTIONS, keep_alive=True, pool=HOT_POOL,
            zipf=HOT_ZIPF, requests=HOT_REQUESTS_PER_10_S * seconds // 10 // CONNECTIONS * CONNECTIONS,
        )
    else:
        shared.update(
            loop="open", connections=1, keep_alive=False, period_s=STREAM_PERIOD_S,
            predicts_per_interval=STREAM_PREDICTS_PER_INTERVAL,
            intervals=stream_intervals(seconds),
        )
    return shared


def finish(workload, seed, seconds, setups, report, latencies, throughput, checks, details):
    lat = latency_summary(latencies)
    details = dict(details, latency_samples=lat, setup_samples_s=setups)
    return {
        "config": config(workload, seed, seconds),
        "metrics": {
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (report["peak_rss_mb"], "MB"),
            "throughput_per_s": (throughput, "1/s"),
            "latency_p50_ms": (lat["p50_ms"], "ms"),
            "latency_p90_ms": (lat["p90_ms"], "ms"),
        },
        "checks": checks,
        "details": details,
        "traced": None,
    }


def traced_summary(report: Dict, client_service_s: float, requests: int) -> Dict:
    """Server layers plus the client-side transport remainder."""
    layers = dict(report["layers"])
    handler_root = layers.get("serving.server.handler", {}).get("root_s", 0.0)
    layers["serving.client.transport"] = {
        "self_s": client_service_s - handler_root,
        "root_s": client_service_s - handler_root,
        "calls": requests,
    }
    counters = report["counters"]
    lookups = counters["cache_hits"] + counters["cache_misses"]
    state_lookups = counters["state_hits"] + counters["state_misses"]
    return {
        "busy_s": client_service_s,
        "ops": requests,
        "layers": layers,
        "extra": {
            "serving.cache.hit_ratio": counters["cache_hits"] / lookups if lookups else 0.0,
            "core.execution.state_cache_hit_ratio": (
                counters["state_hits"] / state_lookups if state_lookups else 0.0
            ),
            "serving.engine.batch_size_mean": (
                counters["batched_queries"] / counters["batches"] if counters["batches"] else 0.0
            ),
        },
    }
