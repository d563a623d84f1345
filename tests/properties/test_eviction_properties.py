"""Property-based tests for the cache instance's LRU eviction order and
memory accounting."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.instance import CacheInstance, CacheOp
from repro.sim.core import Simulator
from repro.types import Value

OPS = st.lists(
    st.tuples(st.sampled_from(["set", "get", "delete"]),
              st.integers(min_value=0, max_value=9)),
    min_size=1, max_size=60)


def apply(instance, op, key, size=100):
    value = Value(1, size) if op == "set" else None
    instance.handle_request(CacheOp(op=op, key=key, value=value))


class TestPolicyProperties:
    @given(ops=OPS, sizes=st.lists(st.integers(min_value=0, max_value=300),
                                   min_size=60, max_size=60))
    @settings(max_examples=100, deadline=None)
    def test_victim_is_always_a_member(self, ops, sizes):
        sim = Simulator()
        instance = CacheInstance(sim, "c", memory_bytes=600)
        members = set()
        evicted = []

        def on_evict(key):
            assert key in members
            evicted.append(key)
            members.discard(key)
        instance.subscribe_evictions(on_evict)
        for (op, key_id), size in zip(ops, sizes):
            key = f"k{key_id}"
            if op == "set":
                members.add(key)
            elif op == "delete":
                members.discard(key)
            apply(instance, op, key, size)
        assert instance.entry_count == len(members)
        assert all(instance.contains(key) for key in members)

    @given(ops=OPS)
    @settings(max_examples=100, deadline=None)
    def test_lru_victim_is_least_recently_touched(self, ops):
        sim = Simulator()
        # Every entry is the same size; the budget holds all ten keys.
        instance = CacheInstance(sim, "c", memory_bytes=10_000)
        evicted = []
        instance.subscribe_evictions(evicted.append)
        touch_order = []  # most recent last

        def touch(key):
            if key in touch_order:
                touch_order.remove(key)
            touch_order.append(key)

        for op, key_id in ops:
            key = f"k{key_id}"
            apply(instance, op, key)
            if op == "set":
                touch(key)
            elif op == "get":
                if key in touch_order:
                    touch(key)
            elif key in touch_order:
                touch_order.remove(key)
        assert evicted == []
        # Shrink the budget to what is stored, then store one more entry
        # of the same size: exactly one key must go, the least recent.
        instance.memory_bytes = instance.used_bytes
        apply(instance, "set", "kp")
        assert evicted == touch_order[:1]


class TestInstanceMemoryProperties:
    @given(
        budget=st.integers(min_value=500, max_value=5000),
        inserts=st.lists(
            st.tuples(st.integers(min_value=0, max_value=30),
                      st.integers(min_value=0, max_value=400)),
            min_size=1, max_size=80),
    )
    @settings(max_examples=60, deadline=None)
    def test_memory_accounting_exact_and_bounded(self, budget, inserts):
        sim = Simulator()
        instance = CacheInstance(sim, "c", memory_bytes=budget)
        for key_id, size in inserts:
            instance.handle_request(CacheOp(
                op="set", key=f"key-{key_id}", value=Value(1, size)))
        # Used bytes always equals the sum over live entries...
        assert instance.used_bytes == sum(
            e.size for e in instance._entries.values())
        # ...and respects the budget whenever more than one entry lives.
        if instance.entry_count > 1:
            assert instance.used_bytes <= budget

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_eviction_never_loses_unrelated_state(self, data):
        """After arbitrary churn the instance still serves a freshly
        inserted key (no corruption of the entry map / policy)."""
        sim = Simulator()
        instance = CacheInstance(sim, "c", memory_bytes=1000)
        n = data.draw(st.integers(min_value=1, max_value=50))
        for index in range(n):
            instance.handle_request(CacheOp(
                op="set", key=f"k{index % 7}", value=Value(1, index * 10)))
        instance.handle_request(CacheOp(op="set", key="probe",
                                        value=Value(9, 10)))
        assert instance.handle_request(
            CacheOp(op="get", key="probe")).version == 9
