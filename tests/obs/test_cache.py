"""The LRU primitive: eviction order, get_or_build, registry agreement, threads."""

import sys
import threading

import pytest

from repro.obs.cache import LRUCache
from repro.obs.metrics import get_registry

_OWNERS = iter(range(10**6))


def _cache(capacity, cache="unit"):
    # a fresh owner per instance keeps its registry series its own
    return LRUCache(capacity, cache=cache, owner=f"test-cache-{next(_OWNERS)}")


def _registry_view(cache):
    events = get_registry().get("repro_cache_events_total")
    entries = get_registry().get("repro_cache_entries")
    counts = {
        event: int(events.labels(cache=cache.cache, owner=cache.owner, event=event).value)
        for event in ("hit", "miss", "evict")
    }
    counts["entries"] = int(entries.labels(cache=cache.cache, owner=cache.owner).value)
    return counts


def test_negative_capacity_rejected():
    with pytest.raises(ValueError):
        _cache(-1)


def test_capacity_zero_caches_nothing():
    cache = _cache(0)
    cache.put("a", 1)
    assert cache.get("a") is None
    assert len(cache) == 0 and cache.keys() == []
    builds = []
    assert cache.get_or_build("a", lambda: builds.append(1) or 7) == 7
    assert cache.get_or_build("a", lambda: builds.append(1) or 7) == 7
    assert len(builds) == 2
    stats = cache.stats()
    assert stats["misses"] == 3 and stats["hits"] == 0 and stats["evictions"] == 0


def test_evicts_least_recently_used_first():
    cache = _cache(3)
    for key in "abc":
        cache.put(key, key.upper())
    assert cache.keys() == ["a", "b", "c"]
    assert cache.get("a") == "A"  # a becomes most recent
    cache.put("b", "B2")  # re-put refreshes b too
    assert cache.keys() == ["c", "a", "b"]
    cache.put("d", "D")
    assert cache.keys() == ["a", "b", "d"]
    cache.put("e", "E")
    assert cache.keys() == ["b", "d", "e"]
    assert cache.get("c") is None and cache.get("b") == "B2"
    assert cache.evictions == 2 and len(cache) == 3


def test_get_or_build_builds_once_per_miss():
    cache = _cache(2)
    builds = []

    def build(key):
        builds.append(key)
        return key * 2

    for key in (1, 1, 2, 1, 3, 2, 2):
        assert cache.get_or_build(key, lambda: build(key)) == key * 2
    # 1 miss, hit, 2 miss, hit, 3 miss (evicts 2), 2 miss (evicts 1), hit
    assert builds == [1, 2, 3, 2]
    stats = cache.stats()
    assert stats["misses"] == 4 and stats["hits"] == 3 and stats["evictions"] == 2


def test_count_miss_false_is_a_silent_probe():
    cache = _cache(2)
    assert cache.get("x", count_miss=False) is None
    cache.put("x", 1)
    assert cache.get("x", count_miss=False) == 1
    assert (cache.hits, cache.misses) == (1, 0)


def test_stats_equal_registry_children():
    cache = _cache(2)
    for key in (1, 2, 1, 3, 4, 4, 5):
        cache.get_or_build(key, lambda: key)
    stats = cache.stats()
    assert stats["capacity"] == 2
    assert stats["hit_rate"] == pytest.approx(stats["hits"] / 7, abs=1e-4)
    assert _registry_view(cache) == {
        "hit": stats["hits"],
        "miss": stats["misses"],
        "evict": stats["evictions"],
        "entries": stats["entries"],
    }
    cache.clear()
    assert len(cache) == 0 and _registry_view(cache)["entries"] == 0
    assert cache.stats()["misses"] == stats["misses"]  # clear keeps counts


def test_counts_consistent_under_concurrent_access():
    cache = _cache(16)
    threads, rounds, keys = 4, 2000, 40
    barrier = threading.Barrier(threads)

    def worker(offset):
        barrier.wait()
        for i in range(rounds):
            key = (i * 7 + offset) % keys
            if cache.get(key) is None:
                cache.put(key, key)

    pool = [threading.Thread(target=worker, args=(n,)) for n in range(threads)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often enough to race
    try:
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join()
    finally:
        sys.setswitchinterval(interval)
    stats = cache.stats()
    assert stats["hits"] + stats["misses"] == threads * rounds
    assert stats["entries"] == len(cache.keys()) <= 16
    # each miss puts once; a put inserts a key (resident now or evicted
    # since) unless a racing thread inserted it first
    assert 0 < stats["entries"] + stats["evictions"] <= stats["misses"]
    assert stats["evictions"] > 0
    assert _registry_view(cache) == {
        "hit": stats["hits"],
        "miss": stats["misses"],
        "evict": stats["evictions"],
        "entries": stats["entries"],
    }
