"""Unit tests for cluster assembly."""

import pytest

from repro.harness.cluster import ClusterSpec, GeminiCluster
from repro.types import CACHE_MISS


class TestSpec:
    def test_num_fragments(self):
        spec = ClusterSpec(num_instances=4, fragments_per_instance=10)
        assert spec.num_fragments == 40


class TestSpecValidation:
    def test_defaults_validate(self):
        ClusterSpec().validate()

    @pytest.mark.parametrize("kwargs", [
        {"num_instances": 0},
        {"num_instances": -3},
        {"fragments_per_instance": 0},
        {"cache_db_ratio": 0.0},
        {"cache_db_ratio": 1.5},
        {"cache_db_ratio": -0.1},
        {"memory_bytes": 0},
        {"num_clients": -1},
        {"num_workers": -2},
        {"datastore_read_time": -0.5},
        {"datastore_write_time": -0.5},
        {"iq_lifetime": 0.0},
        {"red_lifetime": -1.0},
        {"monitor_interval": 0.0},
        {"datastore_servers": 0},
        {"num_shadow_coordinators": -1},
    ])
    def test_bad_knob_rejected(self, kwargs):
        from repro.errors import SimulationError
        with pytest.raises(SimulationError):
            ClusterSpec(**kwargs).validate()

    def test_error_names_the_field(self):
        from repro.errors import SimulationError
        with pytest.raises(SimulationError, match="cache_db_ratio"):
            ClusterSpec(cache_db_ratio=2.0).validate()

    def test_cluster_constructor_validates(self):
        from repro.errors import SimulationError
        with pytest.raises(SimulationError, match="num_instances"):
            GeminiCluster(ClusterSpec(num_instances=0))


class TestWiring:
    def test_components_registered_on_network(self, small_cluster):
        assert small_cluster.network.node("datastore") is small_cluster.datastore
        assert small_cluster.network.node("coordinator") is small_cluster.coordinator
        for address in small_cluster.instance_addresses:
            assert small_cluster.network.node(address) is \
                small_cluster.instances[address]

    def test_clients_bootstrapped_with_config(self, small_cluster):
        for client in small_cluster.clients:
            assert client.cache.ready
            assert client.cache.config_id == 1

    def test_workers_have_config(self, small_cluster):
        for worker in small_cluster.workers:
            assert worker.config is not None

    def test_shadow_ensemble_optional(self):
        cluster = GeminiCluster(ClusterSpec(num_shadow_coordinators=1))
        assert cluster.ensemble is not None
        assert len(cluster.ensemble.shadows) == 1

    def test_wst_feedback_aggregates_clients(self, small_cluster):
        small_cluster.clients[0].wst.observe("cache-0", 7, True)
        counts = small_cluster._wst_feedback("cache-0", 7)
        assert counts == {"hits": 1, "misses": 0}

    def test_wst_feedback_is_episode_scoped(self, small_cluster):
        # Counts from a previous outage episode of the same primary must
        # be invisible to the current episode's feedback.
        small_cluster.clients[0].wst.observe("cache-0", 7, False)
        small_cluster.clients[0].wst.observe("cache-0", 7, False)
        counts = small_cluster._wst_feedback("cache-0", 9)
        assert counts == {"hits": 0, "misses": 0}


class TestWarmCache:
    def make_populated(self):
        cluster = GeminiCluster(ClusterSpec(
            num_instances=3, fragments_per_instance=4, seed=2))
        keys = [f"user{i:010d}" for i in range(200)]
        cluster.datastore.populate(keys, size_of=lambda __: 100)
        return cluster, keys

    def test_warm_cache_loads_primaries(self):
        cluster, keys = self.make_populated()
        loaded = cluster.warm_cache(keys)
        assert loaded == 200
        assert cluster.total_entries() == 200

    def test_warm_entries_routed_correctly(self):
        cluster, keys = self.make_populated()
        cluster.warm_cache(keys)
        config = cluster.coordinator.current
        for key in keys[:50]:
            fragment = config.fragment_for_key(key)
            assert cluster.instances[fragment.primary].peek(key) \
                is not CACHE_MISS

    def test_unpopulated_keys_skipped(self):
        cluster, __ = self.make_populated()
        assert cluster.warm_cache(["not-in-store"]) == 0

    def test_warm_entries_tagged_with_current_config(self):
        cluster, keys = self.make_populated()
        cluster.warm_cache(keys[:1])
        config = cluster.coordinator.current
        fragment = config.fragment_for_key(keys[0])
        entry = cluster.instances[fragment.primary]._entries[keys[0]]
        assert entry.config_id == config.config_id


class TestMemorySizing:
    def test_size_memory_for_applies_ratio(self):
        cluster = GeminiCluster(ClusterSpec(
            num_instances=4, cache_db_ratio=0.5))
        per_instance = cluster.size_memory_for(8_000_000)
        assert per_instance == 1_000_000
        assert all(i.memory_bytes == 1_000_000
                   for i in cluster.instances.values())

    def test_minimum_floor(self):
        cluster = GeminiCluster(ClusterSpec(num_instances=4))
        assert cluster.size_memory_for(100) == 12  # returned raw
        assert all(i.memory_bytes == 4096
                   for i in cluster.instances.values())


class TestEntryCounting:
    def test_invalid_entries_counted_after_discard(self):
        cluster, keys = TestWarmCache().make_populated()
        cluster.warm_cache(keys)
        cluster.fail_instance("cache-0")
        cluster.sim.run(until=1.0)
        # Transient floors bumped: cache-0's entries are now below floor.
        invalid = cluster.count_invalid_entries("cache-0")
        valid = cluster.count_valid_entries("cache-0")
        assert invalid > 0
        assert valid == 0

    def test_internal_keys_ignored(self, small_cluster):
        small_cluster.sim.run(until=0.1)
        assert small_cluster.count_valid_entries("cache-0") == 0


class TestFailureHelpers:
    def test_unknown_instance_rejected(self, small_cluster):
        from repro.errors import SimulationError
        with pytest.raises(SimulationError):
            small_cluster.fail_instance("cache-99")
        with pytest.raises(SimulationError):
            small_cluster.recover_instance("cache-99")
