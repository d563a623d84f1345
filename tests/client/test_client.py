"""Unit tests for the Gemini client sessions against a live mini-cluster."""

import pytest

from repro.cache.instance import CacheOp
from repro.recovery.policies import GEMINI_O, GEMINI_O_W, STALE_CACHE
from repro.types import CACHE_MISS, FragmentMode
from tests.conftest import build_cluster


def run_session(cluster, generator, limit=30.0):
    process = cluster.sim.process(generator)
    return cluster.sim.run_until(process, limit=limit)


def settle(cluster, for_seconds=1.0):
    cluster.sim.run(until=cluster.sim.now + for_seconds)


@pytest.fixture
def loaded_cluster():
    cluster = build_cluster(GEMINI_O_W, num_clients=2)
    cluster.datastore.populate([f"user{i:010d}" for i in range(100)],
                               size_of=lambda __: 100)
    cluster.start()
    return cluster


class TestNormalMode:
    def test_read_miss_fills_cache(self, loaded_cluster):
        client = loaded_cluster.clients[0]
        value = run_session(loaded_cluster, client.read("user0000000001"))
        assert value.version == 1
        fragment = client.config.fragment_for_key("user0000000001")
        assert loaded_cluster.instances[fragment.primary].contains(
            "user0000000001")

    def test_second_read_is_cache_hit(self, loaded_cluster):
        client = loaded_cluster.clients[0]
        run_session(loaded_cluster, client.read("user0000000001"))
        before = loaded_cluster.datastore.reads
        run_session(loaded_cluster, client.read("user0000000001"))
        assert loaded_cluster.datastore.reads == before

    def test_write_invalidates_cache_and_bumps_version(self, loaded_cluster):
        client = loaded_cluster.clients[0]
        key = "user0000000002"
        run_session(loaded_cluster, client.read(key))
        value = run_session(loaded_cluster, client.write(key, size=100))
        assert value.version == 2
        fragment = client.config.fragment_for_key(key)
        assert not loaded_cluster.instances[fragment.primary].contains(key)

    def test_read_after_write_sees_new_version(self, loaded_cluster):
        client = loaded_cluster.clients[0]
        key = "user0000000003"
        run_session(loaded_cluster, client.read(key))
        run_session(loaded_cluster, client.write(key, size=100))
        value = run_session(loaded_cluster, client.read(key))
        assert value.version == 2

    def test_metrics_recorded(self, loaded_cluster):
        client = loaded_cluster.clients[0]
        run_session(loaded_cluster, client.read("user0000000004"))
        run_session(loaded_cluster, client.write("user0000000004"))
        recorder = loaded_cluster.recorder
        assert recorder.reads == 1 and recorder.writes == 1

    def test_oracle_sees_commit_and_read(self, loaded_cluster):
        client = loaded_cluster.clients[0]
        run_session(loaded_cluster, client.write("user0000000005"))
        run_session(loaded_cluster, client.read("user0000000005"))
        assert loaded_cluster.oracle.reads_checked == 1
        assert loaded_cluster.oracle.stale_reads == 0


class TestTransientMode:
    def fail_primary_of(self, cluster, key):
        client = cluster.clients[0]
        fragment = client.config.fragment_for_key(key)
        cluster.fail_instance(fragment.primary)
        settle(cluster)
        return fragment.primary

    def test_reads_served_by_secondary(self, loaded_cluster):
        client = loaded_cluster.clients[0]
        key = "user0000000010"
        failed = self.fail_primary_of(loaded_cluster, key)
        value = run_session(loaded_cluster, client.read(key))
        assert value.version == 1
        fragment = client.config.fragment_for_key(key)
        assert fragment.mode is FragmentMode.TRANSIENT
        assert fragment.secondary != failed
        assert loaded_cluster.instances[fragment.secondary].contains(key)

    def test_write_appends_to_dirty_list(self, loaded_cluster):
        client = loaded_cluster.clients[0]
        key = "user0000000011"
        self.fail_primary_of(loaded_cluster, key)
        run_session(loaded_cluster, client.write(key, size=100))
        fragment = client.config.fragment_for_key(key)
        secondary = loaded_cluster.instances[fragment.secondary]
        dirty = secondary.handle_request(CacheOp(
            op="get_dirty", fragment_id=fragment.fragment_id,
            client_cfg_id=client.config.config_id))
        assert key in dirty

    def test_baseline_write_skips_dirty_list(self):
        cluster = build_cluster(STALE_CACHE)
        cluster.datastore.populate(["user0000000011"], size_of=lambda _: 10)
        cluster.start()
        client = cluster.clients[0]
        key = "user0000000011"
        fragment = client.config.fragment_for_key(key)
        cluster.fail_instance(fragment.primary)
        settle(cluster)
        run_session(cluster, client.write(key))
        fragment = client.config.fragment_for_key(key)
        secondary = cluster.instances[fragment.secondary]
        assert secondary.handle_request(CacheOp(
            op="get_dirty", fragment_id=fragment.fragment_id,
            client_cfg_id=client.config.config_id)) is CACHE_MISS


class TestRecoveryMode:
    def prepare_recovery(self, cluster, key, write_during_outage=True):
        """Warm the key, fail its primary, optionally dirty it, recover."""
        client = cluster.clients[0]
        run_session(cluster, client.read(key))
        fragment = client.config.fragment_for_key(key)
        cluster.fail_instance(fragment.primary)
        settle(cluster)
        if write_during_outage:
            run_session(cluster, client.write(key, size=100))
        cluster.recover_instance(fragment.primary)
        settle(cluster, 0.5)
        return fragment.primary

    def test_clean_key_served_from_recovered_primary(self):
        cluster = build_cluster(GEMINI_O_W, num_workers=0)
        cluster.datastore.populate([f"user{i:010d}" for i in range(50)],
                                   size_of=lambda __: 100)
        cluster.start()
        client = cluster.clients[0]
        key = "user0000000001"
        self.prepare_recovery(cluster, key, write_during_outage=False)
        before = cluster.datastore.reads
        value = run_session(cluster, client.read(key))
        assert value.version == 1
        assert cluster.datastore.reads == before  # persisted entry reused
        assert client.config.fragment_for_key(key).mode is FragmentMode.RECOVERY

    def test_dirty_key_not_served_stale(self):
        cluster = build_cluster(GEMINI_O_W, num_workers=0)
        cluster.datastore.populate([f"user{i:010d}" for i in range(50)],
                                   size_of=lambda __: 100)
        cluster.start()
        client = cluster.clients[0]
        key = "user0000000001"
        self.prepare_recovery(cluster, key, write_during_outage=True)
        value = run_session(cluster, client.read(key))
        assert value.version == 2  # the write during the outage

    def test_write_during_recovery_deletes_both_replicas(self):
        cluster = build_cluster(GEMINI_O_W, num_workers=0)
        cluster.datastore.populate([f"user{i:010d}" for i in range(50)],
                                   size_of=lambda __: 100)
        cluster.start()
        client = cluster.clients[0]
        key = "user0000000001"
        self.prepare_recovery(cluster, key)
        fragment = client.config.fragment_for_key(key)
        assert fragment.mode is FragmentMode.RECOVERY
        run_session(cluster, client.write(key, size=100))
        assert not cluster.instances[fragment.primary].contains(key)
        assert not cluster.instances[fragment.secondary].contains(key)

    def test_wst_miss_in_primary_served_from_secondary(self):
        cluster = build_cluster(GEMINI_O_W, num_workers=0)
        cluster.datastore.populate([f"user{i:010d}" for i in range(50)],
                                   size_of=lambda __: 100)
        cluster.start()
        client = cluster.clients[0]
        key = "user0000000020"
        # Key never cached in the primary; populate the secondary during
        # the outage, then recover.
        fragment = client.config.fragment_for_key(key)
        cluster.fail_instance(fragment.primary)
        settle(cluster)
        run_session(cluster, client.read(key))  # fills the secondary
        cluster.recover_instance(fragment.primary)
        settle(cluster, 0.5)
        before = cluster.datastore.reads
        value = run_session(cluster, client.read(key))
        assert value.version == 1
        assert cluster.datastore.reads == before  # came from the secondary
        assert client.wst.totals(fragment.primary)["hits"] == 1
        # ...and the count is namespaced under the outage's episode.
        episode = client.config.fragment_for_key(key).episode
        assert episode > 0
        assert client.wst.counts(fragment.primary, episode)["hits"] == 1

    def test_without_wst_miss_goes_to_store(self):
        cluster = build_cluster(GEMINI_O, num_workers=0)
        cluster.datastore.populate([f"user{i:010d}" for i in range(50)],
                                   size_of=lambda __: 100)
        cluster.start()
        client = cluster.clients[0]
        key = "user0000000020"
        fragment = client.config.fragment_for_key(key)
        cluster.fail_instance(fragment.primary)
        settle(cluster)
        run_session(cluster, client.read(key))
        cluster.recover_instance(fragment.primary)
        settle(cluster, 0.5)
        before = cluster.datastore.reads
        run_session(cluster, client.read(key))
        assert cluster.datastore.reads == before + 1


class TestFailureHandling:
    def test_read_falls_back_to_store_when_unreachable(self):
        """Section 2.2: with no serving replica, reads use the store."""
        cluster = build_cluster(GEMINI_O_W)
        cluster.datastore.populate(["user0000000001"], size_of=lambda _: 10)
        # Crash the instance for real, without telling the coordinator.
        client = cluster.clients[0]
        fragment = client.config.fragment_for_key("user0000000001")
        cluster.instances[fragment.primary].fail()
        # Also silence the coordinator so no new config gets published.
        cluster.coordinator.fail()
        value = run_session(cluster, client.read("user0000000001"),
                            limit=60.0)
        assert value.version == 1
        assert cluster.recorder.store_direct_reads == 1

    def test_write_suspends_until_new_config(self):
        cluster = build_cluster(GEMINI_O_W)
        cluster.datastore.populate(["user0000000001"], size_of=lambda _: 10)
        cluster.start()
        client = cluster.clients[0]
        fragment = client.config.fragment_for_key("user0000000001")
        cluster.instances[fragment.primary].fail()  # real crash
        process = cluster.sim.process(client.write("user0000000001"))
        # The client reports the failure; the coordinator reassigns; the
        # write then completes against the secondary.
        value = cluster.sim.run_until(process, limit=60.0)
        assert value.version == 2
        fragment = client.config.fragment_for_key("user0000000001")
        assert fragment.mode is FragmentMode.TRANSIENT

    def test_stale_client_bounced_and_recovers(self):
        cluster = build_cluster(GEMINI_O_W)
        cluster.datastore.populate(["user0000000001"], size_of=lambda _: 10)
        cluster.start()
        client_a, = cluster.clients
        # Detach a fresh client that will NOT hear config pushes.
        from repro.client.client import GeminiClient
        stale_client = GeminiClient(
            cluster.sim, cluster.network, cluster.spec.policy,
            oracle=cluster.oracle, recorder=cluster.recorder,
            rng=cluster.rng.stream("stale-client"))
        stale_client.config = cluster.coordinator.current
        fragment = stale_client.config.fragment_for_key("user0000000001")
        # Fail some *other* instance: the stale client's next request (to
        # a live instance that already learned the new id) must bounce
        # with StaleConfiguration and trigger a refresh.
        other = next(a for a in cluster.instance_addresses
                     if a != fragment.primary)
        cluster.fail_instance(other)
        settle(cluster)
        value = run_session(cluster, stale_client.read("user0000000001"))
        assert value.version == 1
        assert stale_client.config.config_id == \
            cluster.coordinator.current.config_id
        assert cluster.instances[fragment.primary].stats.stale_config_bounces >= 1
