"""Shared encoder-state tier: one encode per window, cluster-wide.

Every decode worker in a serving cluster (:mod:`repro.serving.cluster`)
needs the *same* encoder state for the same history window — the encode
is the expensive part, and with N workers the naive design runs it N
times.  This module adds a file-backed tier beneath each worker's
in-memory :class:`~repro.core.execution.EncoderStateCache`:

- :class:`SharedEncoderStateStore` — an ``.npz``-per-state directory
  keyed **exactly** like the in-memory cache: ``(model_key,
  model.version, dtype, window fingerprint)``.  Fingerprints are
  cross-process stable (blake2b content digests, see
  :func:`repro.graphs.snapshot.stable_array_digest`), so two workers
  fed the same ingest stream derive byte-identical keys.  Writes are
  atomic (tmp file + ``os.replace``) so readers never observe a
  half-written state.
- **Single-flight locking** — on a tier miss, workers race for an
  ``O_CREAT | O_EXCL`` lock file; the winner encodes and publishes,
  losers poll for the published state with a timeout and fall back to
  a local encode if the winner stalls (never deadlocks, at worst does
  redundant work).  Stale locks (a worker killed mid-encode) are broken
  after ``lock_stale_s``.
- :class:`TieredStateCache` — an :class:`EncoderStateCache` subclass
  whose miss path goes memory -> shared tier -> single-flight encode.
  Workers plug it into their engine via the ``state_cache`` parameter.

Tier events are counted on ``repro_state_tier_events_total{owner,
event}`` with events ``hit`` / ``miss`` / ``publish`` / ``wait`` /
``fallback``.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from typing import Any, Dict, Hashable, Optional

import numpy as np

from repro.core.execution import EncoderState, EncoderStateCache
from repro.core.window import HistoryWindow
from repro.nn.tensor import Tensor
from repro.obs.metrics import get_registry
from repro.obs.trace import span

_META_KEY = "__meta__"


class SharedEncoderStateStore:
    """File-backed store of serialized :class:`EncoderState` objects.

    Args:
        root: directory for state files (created if missing).
        lock_timeout_s: how long a single-flight loser waits for the
            winner to publish before encoding locally.
        lock_stale_s: age after which a lock file is presumed orphaned
            (owner crashed mid-encode) and broken.
        owner: label for the tier-event counter series.
    """

    def __init__(
        self,
        root: str,
        lock_timeout_s: float = 10.0,
        lock_stale_s: float = 60.0,
        poll_interval_s: float = 0.005,
        owner: str = "tier",
    ):
        self.root = root
        os.makedirs(root, exist_ok=True)
        self.lock_timeout_s = float(lock_timeout_s)
        self.lock_stale_s = float(lock_stale_s)
        self.poll_interval_s = float(poll_interval_s)
        self.owner = owner
        family = get_registry().counter(
            "repro_state_tier_events_total",
            "Shared encoder-state tier events per owner.",
            labelnames=("owner", "event"),
        )
        self._counters = {
            event: family.labels(owner=owner, event=event)
            for event in ("hit", "miss", "publish", "wait", "fallback")
        }
        self.events: Dict[str, int] = {
            "hit": 0, "miss": 0, "publish": 0, "wait": 0, "fallback": 0
        }

    def count(self, event: str) -> None:
        self._counters[event].inc()
        self.events[event] += 1

    # ------------------------------------------------------------------
    def path_for(self, key: Hashable) -> str:
        digest = hashlib.blake2b(repr(key).encode("utf-8"), digest_size=16).hexdigest()
        return os.path.join(self.root, f"state-{digest}.npz")

    def _lock_path(self, key: Hashable) -> str:
        return self.path_for(key) + ".lock"

    # ------------------------------------------------------------------
    def load(self, key: Hashable) -> Optional[EncoderState]:
        """Deserialize the state for ``key``, or None when absent/corrupt.

        The stored ``key_repr`` is compared against ``repr(key)`` so a
        (vanishingly unlikely) digest collision degrades to a miss, not
        to serving another window's scores.
        """
        path = self.path_for(key)
        try:
            with np.load(path, allow_pickle=False) as archive:
                meta = json.loads(bytes(archive[_META_KEY].tobytes()).decode("utf-8"))
                if meta.get("key_repr") != repr(key):
                    return None
                arrays = {
                    name: np.array(archive[name])
                    for name in archive.files
                    if name != _META_KEY
                }
        except (FileNotFoundError, OSError, ValueError, KeyError, json.JSONDecodeError):
            return None
        entity = Tensor(arrays["entity"]) if "entity" in arrays else None
        relation = Tensor(arrays["relation"]) if "relation" in arrays else None
        aux = tuple(
            Tensor(arrays[f"aux{i}"]) for i in range(int(meta.get("aux_count", 0)))
        )
        fingerprint = key[-1] if isinstance(key, tuple) and key else None
        return EncoderState(
            entity_matrix=entity,
            relation_matrix=relation,
            aux=aux,
            fingerprint=fingerprint,
            model_version=int(meta.get("model_version", 0)),
            dtype=str(meta.get("dtype", "float64")),
            prediction_time=int(meta.get("prediction_time", 0)),
        )

    def store(self, key: Hashable, state: EncoderState) -> bool:
        """Atomically publish ``state`` under ``key``; False if not storable."""
        if not state.cacheable:
            return False  # fused states carry windows; not serializable
        arrays: Dict[str, np.ndarray] = {}
        if state.entity_matrix is not None:
            arrays["entity"] = np.asarray(state.entity_matrix.data)
        if state.relation_matrix is not None:
            arrays["relation"] = np.asarray(state.relation_matrix.data)
        for i, tensor in enumerate(state.aux):
            arrays[f"aux{i}"] = np.asarray(tensor.data)
        meta = {
            "key_repr": repr(key),
            "model_version": int(state.model_version),
            "dtype": str(state.dtype),
            "prediction_time": int(state.prediction_time),
            "aux_count": len(state.aux),
        }
        arrays[_META_KEY] = np.frombuffer(
            json.dumps(meta).encode("utf-8"), dtype=np.uint8
        )
        path = self.path_for(key)
        tmp = f"{path}.{os.getpid()}.tmp.npz"
        try:
            with open(tmp, "wb") as handle:
                np.savez(handle, **arrays)
            os.replace(tmp, path)
        except OSError:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            return False
        return True

    # ------------------------------------------------------------------
    def try_acquire(self, key: Hashable) -> bool:
        """Claim the single-flight encode lock for ``key`` (non-blocking).

        Breaks locks older than ``lock_stale_s`` (owner presumed dead);
        after breaking, one more claim attempt is made — losing *that*
        race is still a clean False.
        """
        lock = self._lock_path(key)
        for attempt in (0, 1):
            try:
                fd = os.open(lock, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
                os.write(fd, str(os.getpid()).encode("ascii"))
                os.close(fd)
                return True
            except FileExistsError:
                if attempt:
                    return False
                try:
                    if time.time() - os.path.getmtime(lock) <= self.lock_stale_s:
                        return False
                    os.unlink(lock)  # stale: owner died mid-encode
                except OSError:
                    return False
        return False

    def release(self, key: Hashable) -> None:
        try:
            os.unlink(self._lock_path(key))
        except OSError:
            pass

    def wait_for(self, key: Hashable, timeout: Optional[float] = None) -> Optional[EncoderState]:
        """Poll for a state another worker is encoding right now.

        Returns early when the lock disappears (winner finished or
        died): one final load distinguishes published from abandoned.
        """
        deadline = time.monotonic() + (
            self.lock_timeout_s if timeout is None else float(timeout)
        )
        lock = self._lock_path(key)
        while time.monotonic() < deadline:
            state = self.load(key)
            if state is not None:
                return state
            if not os.path.exists(lock):
                return self.load(key)
            time.sleep(self.poll_interval_s)
        return self.load(key)

    def stats(self) -> Dict[str, Any]:
        try:
            entries = sum(1 for n in os.listdir(self.root) if n.endswith(".npz"))
        except OSError:
            entries = 0
        return {"root": self.root, "entries": entries, "events": dict(self.events)}


class TieredStateCache(EncoderStateCache):
    """Encoder-state cache with a shared on-disk tier beneath memory.

    Lookup order on :meth:`get_or_encode`: in-memory LRU -> shared tier
    -> single-flight encode (winner publishes; losers wait, then fall
    back to a local encode).  Keys are identical to the base class's, so
    a worker restarted against the same tier directory warm-starts from
    its siblings' published states.
    """

    def __init__(self, tier: SharedEncoderStateStore, capacity: int = 16, owner: str = "worker"):
        super().__init__(capacity=capacity, owner=owner)
        self.tier = tier

    def get_or_encode(self, model, window: HistoryWindow, model_key: str = "model") -> EncoderState:
        fingerprint = window.fingerprint()
        key = self._key(model, model_key, fingerprint)
        return self.get_or_build(key, lambda: self._load_or_encode(model, window, key, fingerprint))

    def _load_or_encode(self, model, window: HistoryWindow, key: Hashable, fingerprint) -> EncoderState:
        """The in-memory miss path: shared tier, then single-flight encode."""
        state = self.tier.load(key)
        if state is not None:
            self.tier.count("hit")
            return state
        self.tier.count("miss")

        if self.tier.try_acquire(key):
            try:
                state = self._encode_live(model, window, fingerprint)
                if self.tier.store(key, state):
                    self.tier.count("publish")
            finally:
                self.tier.release(key)
            return state
        self.tier.count("wait")
        with span("state_tier.wait", owner=self.owner):
            state = self.tier.wait_for(key)
        if state is None:
            # winner stalled or died: encode locally rather than fail
            self.tier.count("fallback")
            state = self._encode_live(model, window, fingerprint)
        return state

    def stats(self) -> Dict[str, Any]:
        base = super().stats()
        base["tier"] = self.tier.stats()
        return base
