"""The cache instance's LRU eviction order: set, get and delete under a
byte budget that holds three entries."""

from repro.cache.instance import CacheInstance, CacheOp
from repro.types import Value

#: 56 bytes of overhead + a 1-byte key + a 100-byte value.
ENTRY = 157


def lru(sim, entries=3):
    """An instance that fits ``entries`` entries, and the keys it evicts."""
    instance = CacheInstance(sim, "c", memory_bytes=entries * ENTRY)
    evicted = []
    instance.subscribe_evictions(evicted.append)
    return instance, evicted


def call(instance, op, key):
    value = Value(1, 100) if op == "set" else None
    return instance.handle_request(CacheOp(op=op, key=key, value=value))


def fill(instance, keys):
    for key in keys:
        call(instance, "set", key)


class TestLru:
    def test_evicts_least_recently_used(self, sim):
        instance, evicted = lru(sim)
        fill(instance, "abc")
        call(instance, "get", "a")
        fill(instance, "d")
        assert evicted == ["b"]

    def test_insert_refreshes_position(self, sim):
        instance, evicted = lru(sim)
        fill(instance, "abc")
        fill(instance, "a")  # overwrite moves to MRU
        fill(instance, "d")
        assert evicted == ["b"]

    def test_remove(self, sim):
        instance, evicted = lru(sim)
        fill(instance, "abc")
        call(instance, "delete", "a")
        assert instance.entry_count == 2
        fill(instance, "de")
        assert evicted == ["b"]

    def test_empty_victim_is_none(self, sim):
        # A lone entry over the budget has no other entry to evict.
        instance, evicted = lru(sim, entries=0)
        fill(instance, "a")
        assert evicted == [] and instance.contains("a")

    def test_access_unknown_key_ignored(self, sim):
        instance, evicted = lru(sim)
        fill(instance, "abc")
        call(instance, "get", "ghost")
        fill(instance, "d")
        assert evicted == ["a"]
        assert instance.entry_count == 3

    def test_clear(self, sim):
        instance, evicted = lru(sim)
        fill(instance, "ab")
        instance.wipe()
        assert instance.entry_count == 0
        fill(instance, "cdea")
        assert evicted == ["c"]
