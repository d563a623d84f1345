"""Unit tests for the cache instance (IQ ops, dirty lists, config ids,
eviction under budget, crash semantics)."""

import pytest

from repro.cache.dirtylist import dirty_list_key
from repro.cache.instance import CONFIG_ENTRY_KEY, CacheInstance, CacheOp
from repro.config.configuration import Configuration
from repro.errors import CacheError, InstanceDown, LeaseBackoff, StaleConfiguration
from repro.types import CACHE_MISS, Value


@pytest.fixture
def instance(sim):
    return CacheInstance(sim, "cache-0", memory_bytes=10_000)


def call(instance, op, **fields):
    return instance.handle_request(CacheOp(op=op, **fields))


class TestPlainOps:
    def test_get_missing_returns_miss(self, instance):
        assert call(instance, "get", key="k") is CACHE_MISS

    def test_set_then_get(self, instance):
        call(instance, "set", key="k", value=Value(1, 10))
        assert call(instance, "get", key="k").version == 1

    def test_delete(self, instance):
        call(instance, "set", key="k", value=Value(1, 10))
        assert call(instance, "delete", key="k")
        assert call(instance, "get", key="k") is CACHE_MISS

    def test_delete_missing_returns_false(self, instance):
        assert not call(instance, "delete", key="k")

    def test_ping(self, instance):
        assert call(instance, "ping") == "pong"

    def test_unknown_op_rejected(self, instance):
        with pytest.raises(CacheError):
            call(instance, "frobnicate", key="k")

    def test_stats_reflect_traffic(self, instance):
        call(instance, "set", key="k", value=Value(1, 10))
        call(instance, "get", key="k")
        call(instance, "get", key="missing")
        stats = call(instance, "stats")
        assert stats["hits"] == 1
        assert stats["misses"] == 1
        assert stats["sets"] == 1
        assert stats["entry_count"] == 1


class TestIqProtocol:
    def test_iqget_miss_grants_i_lease(self, instance):
        kind, token = call(instance, "iqget", key="k")
        assert kind == "miss"
        assert instance.leases.check_i("k", token)

    def test_iqget_hit_returns_value(self, instance):
        call(instance, "set", key="k", value=Value(3, 10))
        kind, value = call(instance, "iqget", key="k")
        assert kind == "hit"
        assert value.version == 3

    def test_iqset_with_valid_lease_installs(self, instance):
        __, token = call(instance, "iqget", key="k")
        assert call(instance, "iqset", key="k", value=Value(1, 5), token=token)
        assert call(instance, "get", key="k").version == 1

    def test_iqset_consumes_lease(self, instance):
        __, token = call(instance, "iqget", key="k")
        call(instance, "iqset", key="k", value=Value(1, 5), token=token)
        assert not instance.leases.check_i("k", token)

    def test_iqset_after_void_is_ignored(self, instance):
        """The Lemma 2 race: a Q lease voids the I lease, so the reader's
        stale insert must be dropped."""
        __, token = call(instance, "iqget", key="k")
        call(instance, "qareg", key="k")
        assert not call(instance, "iqset", key="k", value=Value(1, 5),
                        token=token)
        assert call(instance, "get", key="k") is CACHE_MISS

    def test_iqset_after_expiry_is_ignored(self, instance, sim):
        __, token = call(instance, "iqget", key="k")
        sim.schedule(1.0, lambda: None)
        sim.run()  # advance well past the 10 ms lease lifetime
        assert not call(instance, "iqset", key="k", value=Value(1, 5),
                        token=token)

    def test_concurrent_iqget_miss_backs_off(self, instance):
        """Thundering-herd guard: only one reader computes the value."""
        call(instance, "iqget", key="k")
        with pytest.raises(LeaseBackoff):
            call(instance, "iqget", key="k")

    def test_iset_deletes_and_grants_i(self, instance):
        call(instance, "set", key="k", value=Value(1, 5))
        token = call(instance, "iset", key="k")
        assert call(instance, "get", key="k") is CACHE_MISS
        assert instance.leases.check_i("k", token)

    def test_qareg_dar_cycle_deletes_entry(self, instance):
        call(instance, "set", key="k", value=Value(1, 5))
        token = call(instance, "qareg", key="k")
        call(instance, "dar", key="k", token=token)
        assert call(instance, "get", key="k") is CACHE_MISS

    def test_unreleased_q_lease_deletes_entry_on_expiry(self, instance, sim):
        """Section 2.3: 'When a Q lease times out, the instance deletes its
        associated cache entry' — the writer may have updated the store."""
        call(instance, "set", key="k", value=Value(1, 5))
        call(instance, "qareg", key="k")  # never released
        sim.run(until=1.0)
        assert call(instance, "get", key="k") is CACHE_MISS

    def test_released_q_lease_does_not_delete_later(self, instance, sim):
        call(instance, "set", key="k", value=Value(1, 5))
        token = call(instance, "qareg", key="k")
        # dar deletes and releases; reinstall afterwards.
        call(instance, "dar", key="k", token=token)
        call(instance, "set", key="k", value=Value(2, 5))
        sim.run(until=1.0)
        assert call(instance, "get", key="k").version == 2


class TestConfigIdProtocol:
    def test_stale_client_bounced(self, instance):
        call(instance, "get", key="k", client_cfg_id=10)
        with pytest.raises(StaleConfiguration) as exc_info:
            call(instance, "get", key="k", client_cfg_id=9)
        assert exc_info.value.known_id == 10

    def test_newer_client_updates_memoized_id(self, instance):
        call(instance, "get", key="k", client_cfg_id=42)
        assert instance.known_config_id == 42

    def test_entry_below_fragment_floor_discarded(self, instance):
        call(instance, "set", key="k", value=Value(1, 5), write_cfg_id=3,
             client_cfg_id=3)
        assert call(instance, "get", key="k", fragment_cfg_id=5,
                    client_cfg_id=5) is CACHE_MISS
        assert instance.stats.invalid_discards == 1

    def test_entry_at_or_above_floor_served(self, instance):
        call(instance, "set", key="k", value=Value(1, 5), write_cfg_id=5,
             client_cfg_id=5)
        assert call(instance, "get", key="k", fragment_cfg_id=5,
                    client_cfg_id=5).version == 1

    def test_floor_restore_revives_entries(self, instance):
        """Recovery restores the fragment floor to its pre-failure value,
        making surviving entries valid again (Section 3.2.4)."""
        call(instance, "set", key="k", value=Value(1, 5), write_cfg_id=3,
             client_cfg_id=3)
        # While in transient mode the floor was higher; a recovery-mode
        # read with the restored floor sees the entry again.
        assert call(instance, "get", key="k", fragment_cfg_id=3,
                    client_cfg_id=7).version == 1

    def test_set_config_stores_and_memoizes(self, instance):
        config = Configuration.initial(["cache-0"], 4, config_id=9)
        call(instance, "set_config", value=config)
        assert instance.known_config_id == 9
        assert call(instance, "get_config").config_id == 9

    def test_config_entry_evictable(self, instance):
        config = Configuration.initial(["cache-0"], 4, config_id=9)
        call(instance, "set_config", value=config)
        instance._remove(CONFIG_ENTRY_KEY)
        assert call(instance, "get_config") is CACHE_MISS
        # But the memoized id survives eviction.
        assert instance.known_config_id == 9


class TestDirtyListOps:
    def test_create_makes_complete_list(self, instance):
        call(instance, "create_dirty", fragment_id=3)
        dirty = call(instance, "get_dirty", fragment_id=3)
        assert dirty.complete and len(dirty) == 0

    def test_append_to_existing_list(self, instance):
        call(instance, "create_dirty", fragment_id=3)
        assert call(instance, "append_dirty", fragment_id=3, key="a")
        assert "a" in call(instance, "get_dirty", fragment_id=3)

    def test_append_without_list_creates_partial(self, instance):
        complete = call(instance, "append_dirty", fragment_id=3, key="a")
        assert complete is False
        assert not call(instance, "get_dirty", fragment_id=3).complete

    def test_create_preserves_existing_complete_list(self, instance):
        """Arrow 5 of Figure 4: re-entering transient mode must not reset
        the log that covers the first outage."""
        call(instance, "create_dirty", fragment_id=3)
        call(instance, "append_dirty", fragment_id=3, key="a")
        call(instance, "create_dirty", fragment_id=3)
        assert "a" in call(instance, "get_dirty", fragment_id=3)

    def test_create_replaces_partial_list(self, instance):
        call(instance, "append_dirty", fragment_id=3, key="a")  # partial
        call(instance, "create_dirty", fragment_id=3)
        dirty = call(instance, "get_dirty", fragment_id=3)
        assert dirty.complete and len(dirty) == 0

    def test_delete_dirty(self, instance):
        call(instance, "create_dirty", fragment_id=3)
        assert call(instance, "delete_dirty", fragment_id=3)
        assert call(instance, "get_dirty", fragment_id=3) is CACHE_MISS

    def test_red_acquire_release_cycle(self, instance):
        token = call(instance, "red_acquire", fragment_id=3)
        with pytest.raises(LeaseBackoff):
            call(instance, "red_acquire", fragment_id=3)
        assert call(instance, "red_release", fragment_id=3, token=token)
        call(instance, "red_acquire", fragment_id=3)

    def test_red_release_with_stale_config_id_frees_the_lease(
            self, instance):
        # A repair pass whose configuration moved mid-pass still gives
        # its Redlease up; otherwise the next pass backs off for the
        # whole red_lifetime.
        token = call(instance, "red_acquire", fragment_id=3,
                     client_cfg_id=5)
        call(instance, "get", key="k", client_cfg_id=6)
        assert call(instance, "red_release", fragment_id=3, token=token,
                    client_cfg_id=5)
        assert call(instance, "red_acquire", fragment_id=3,
                    client_cfg_id=6) != token

    def test_red_release_with_stale_config_id_checks_the_token(
            self, instance):
        token = call(instance, "red_acquire", fragment_id=3,
                     client_cfg_id=5)
        call(instance, "get", key="k", client_cfg_id=6)
        assert not call(instance, "red_release", fragment_id=3,
                        token=token + 1, client_cfg_id=5)
        with pytest.raises(LeaseBackoff):
            call(instance, "red_acquire", fragment_id=3, client_cfg_id=6)

    def test_dirty_appends_counted(self, instance):
        call(instance, "create_dirty", fragment_id=3)
        call(instance, "append_dirty", fragment_id=3, key="a")
        assert instance.stats.dirty_appends == 1


class TestEviction:
    def test_insert_beyond_budget_evicts_lru(self, sim):
        instance = CacheInstance(sim, "c", memory_bytes=400)
        # Each entry is 56 overhead + 2 key + 100 value = 158 bytes.
        for index in range(3):
            call(instance, "set", key=f"k{index}", value=Value(1, 100))
        assert instance.stats.evictions >= 1
        assert instance.used_bytes <= 400

    def test_hot_entry_survives(self, sim):
        instance = CacheInstance(sim, "c", memory_bytes=400)
        call(instance, "set", key="k0", value=Value(1, 100))
        call(instance, "set", key="k1", value=Value(1, 100))
        call(instance, "get", key="k0")  # refresh k0
        call(instance, "set", key="k2", value=Value(1, 100))
        assert instance.contains("k0")
        assert not instance.contains("k1")

    def test_new_entry_not_immediately_evicted(self, sim):
        instance = CacheInstance(sim, "c", memory_bytes=200)
        call(instance, "set", key="old", value=Value(1, 100))
        call(instance, "set", key="new", value=Value(1, 100))
        assert instance.contains("new")

    def test_dirty_list_eviction_counted(self, sim):
        instance = CacheInstance(sim, "c", memory_bytes=400)
        call(instance, "create_dirty", fragment_id=1)
        for index in range(4):
            call(instance, "set", key=f"k{index}", value=Value(1, 100))
        assert not instance.contains(dirty_list_key(1))
        assert instance.stats.dirty_list_evictions == 1

    def test_dirty_append_recharges_memory(self, sim):
        instance = CacheInstance(sim, "c", memory_bytes=100_000)
        call(instance, "create_dirty", fragment_id=1)
        before = instance.used_bytes
        call(instance, "append_dirty", fragment_id=1, key="some-key")
        assert instance.used_bytes > before


class TestCrashSemantics:
    def test_failed_instance_rejects_requests(self, instance):
        instance.fail()
        with pytest.raises(InstanceDown):
            call(instance, "get", key="k")

    def test_crash_preserves_entries_drops_leases(self, instance):
        call(instance, "set", key="k", value=Value(1, 5))
        call(instance, "iqget", key="other")  # grants an I lease
        instance.fail()
        instance.recover()
        assert call(instance, "get", key="k").version == 1
        call(instance, "iqget", key="other")  # no back off: leases gone

    def test_wipe_discards_everything(self, instance):
        call(instance, "set", key="k", value=Value(1, 5))
        call(instance, "wipe")
        assert instance.entry_count == 0
        assert instance.used_bytes == 0

    def test_known_config_id_survives_crash(self, instance):
        call(instance, "get", key="k", client_cfg_id=77)
        instance.fail()
        instance.recover()
        assert instance.known_config_id == 77


class TestHelpers:
    def test_peek_does_not_touch_stats(self, instance):
        call(instance, "set", key="k", value=Value(1, 5))
        before = instance.stats.gets
        instance.peek("k")
        assert instance.stats.gets == before

    def test_hit_ratio(self, instance):
        call(instance, "set", key="k", value=Value(1, 5))
        call(instance, "get", key="k")
        call(instance, "get", key="missing")
        assert instance.hit_ratio() == pytest.approx(0.5)
