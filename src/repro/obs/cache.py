"""The one LRU primitive: a thread-safe, instrumented, bounded cache.

Every cache in the system — encoder states, the window builder's
snapshot / merged / global graphs, the sampler's induced windows, the
serving engine's predictions and its hot-pair ring — is an
:class:`LRUCache`, so every cache reports the same series on the
process-wide registry (scraped by ``GET /metrics``)::

    repro_cache_events_total{cache, owner, event=hit|miss|evict}
    repro_cache_entries{cache, owner}

``cache`` names what is cached and ``owner`` names who owns the
instance.  Instances sharing both labels add into one series; the
per-instance counts behind :meth:`LRUCache.stats` stay exact either
way.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Callable, Dict, Hashable, List

from repro.obs.metrics import get_registry

__all__ = ["LRUCache"]

_MISSING = object()


class LRUCache:
    """Thread-safe least-recently-used cache with registry-backed counters.

    Args:
        capacity: maximum resident entries; 0 turns caching off (every
            lookup misses, :meth:`put` stores nothing).
        cache: ``cache`` label — what kind of value is cached.
        owner: ``owner`` label — which component owns this instance.
    """

    def __init__(self, capacity: int, cache: str, owner: str):
        if capacity < 0:
            raise ValueError("capacity must be >= 0")
        self.capacity = int(capacity)
        self.cache = cache
        self.owner = owner
        self._data: "OrderedDict[Hashable, Any]" = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        registry = get_registry()
        events = registry.counter(
            "repro_cache_events_total",
            "Cache hits/misses/evictions per cache and owner.",
            labelnames=("cache", "owner", "event"),
        )
        self._hit, self._miss, self._evict = (
            events.labels(cache=cache, owner=owner, event=event)
            for event in ("hit", "miss", "evict")
        )
        self._entries = registry.gauge(
            "repro_cache_entries",
            "Live entries per cache and owner.",
            labelnames=("cache", "owner"),
        ).labels(cache=cache, owner=owner)

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)

    def get(self, key: Hashable, default: Any = None, count_miss: bool = True) -> Any:
        """The cached value (refreshing its recency), else ``default``.

        A hit always counts; ``count_miss=False`` makes an absent key a
        pure membership probe that leaves the miss count alone.
        """
        with self._lock:
            value = self._data.get(key, _MISSING)
            if value is _MISSING:
                if count_miss:
                    self.misses += 1
                    self._miss.inc()
                return default
            self._data.move_to_end(key)
            self.hits += 1
            self._hit.inc()
            return value

    def put(self, key: Hashable, value: Any) -> None:
        """Insert or refresh ``key`` as most recent, evicting past capacity."""
        if self.capacity == 0:
            return
        with self._lock:
            self._data[key] = value
            self._data.move_to_end(key)
            while len(self._data) > self.capacity:
                self._data.popitem(last=False)
                self.evictions += 1
                self._evict.inc()
            self._entries.set(len(self._data))

    def get_or_build(self, key: Hashable, build: Callable[[], Any]) -> Any:
        """The cached value, or ``build()`` stored through :meth:`put`.

        ``build`` runs outside the lock, once per miss: two threads
        missing on the same key concurrently both build, and the later
        :meth:`put` wins.
        """
        value = self.get(key, _MISSING)
        if value is _MISSING:
            value = build()
            self.put(key, value)
        return value

    def keys(self) -> List[Hashable]:
        """Resident keys, least to most recently used."""
        with self._lock:
            return list(self._data)

    def clear(self) -> None:
        """Drop every entry; the event counts keep running."""
        with self._lock:
            self._data.clear()
            self._entries.set(0)

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def stats(self) -> Dict[str, Any]:
        with self._lock:
            return {
                "entries": len(self._data),
                "capacity": self.capacity,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "hit_rate": round(self.hit_rate, 4),
            }
