"""Integration: losing the secondary at awkward moments (Section 3.3).

* Secondary fails DURING recovery mode: the working-set transfer must
  stop, and the remaining dirty keys are repaired from the coordinator's
  fallback copy — never served stale.
* Dirty list evicted under memory pressure during transient mode: the
  marker detects the partial list and the fragment is discarded, again
  without stale reads.
"""


from repro.cache.instance import CacheOp
from repro.recovery.policies import GEMINI_O, GEMINI_O_W
from repro.types import FragmentMode
from tests.conftest import build_cluster


def run_session(cluster, generator, limit_extra=30.0):
    process = cluster.sim.process(generator)
    return cluster.sim.run_until(process,
                                 limit=cluster.sim.now + limit_extra)


def settle(cluster, seconds=1.0):
    cluster.sim.run(until=cluster.sim.now + seconds)


def make_cluster(policy, **kw):
    kw.setdefault("num_instances", 4)
    kw.setdefault("fragments_per_instance", 2)
    kw.setdefault("num_workers", 1)
    cluster = build_cluster(policy, **kw)
    cluster.datastore.populate([f"user{i:010d}" for i in range(80)],
                               size_of=lambda __: 50)
    return cluster


class TestSecondaryFailsDuringRecovery:
    def prepare(self, cluster, key):
        """Warm key, fail primary, dirty the key, recover primary but
        keep workers from finishing by stopping them first."""
        client = cluster.clients[0]
        cluster.start()
        for worker in cluster.workers:
            worker.stop()
        run_session(cluster, client.read(key))
        fragment = client.config.fragment_for_key(key)
        cluster.fail_instance(fragment.primary)
        settle(cluster)
        run_session(cluster, client.write(key, size=50))
        cluster.recover_instance(fragment.primary)
        settle(cluster, 0.5)
        return client, cluster.coordinator.current.fragment(
            fragment.fragment_id)

    def test_dirty_copy_fallback_preserves_consistency(self):
        cluster = make_cluster(GEMINI_O_W)
        key = "user0000000001"
        client, fragment = self.prepare(cluster, key)
        assert fragment.mode is FragmentMode.RECOVERY
        # The secondary (holding the authoritative dirty list) dies.
        cluster.fail_instance(fragment.secondary)
        settle(cluster)
        updated = cluster.coordinator.current.fragment(fragment.fragment_id)
        assert updated.mode is FragmentMode.RECOVERY
        assert updated.secondary is None
        assert updated.wst_active is False  # transfer terminated (3.3)
        # A fresh read of the dirty key must NOT see the stale primary
        # copy: the client falls back to the coordinator's list copy.
        value = run_session(cluster, client.read(key))
        assert value.version == 2
        assert cluster.oracle.stale_reads == 0

    def test_fresh_client_also_protected(self):
        """A client that never saw the outage fetches the dirty list only
        now — from the coordinator, since the secondary is gone."""
        cluster = make_cluster(GEMINI_O_W, num_clients=2)
        key = "user0000000001"
        client, fragment = self.prepare(cluster, key)
        cluster.fail_instance(fragment.secondary)
        settle(cluster)
        other = cluster.clients[1]
        value = run_session(cluster, other.read(key))
        assert value.version == 2
        assert cluster.oracle.stale_reads == 0

    def test_worker_finishes_from_coordinator_copy(self):
        cluster = make_cluster(GEMINI_O_W)
        key = "user0000000001"
        client, fragment = self.prepare(cluster, key)
        cluster.fail_instance(fragment.secondary)
        settle(cluster)
        # Restart a worker; it must repair from the coordinator copy and
        # drive the fragment back to normal.
        cluster.workers[0]._process = None
        cluster.workers[0].start()
        settle(cluster, 5.0)
        updated = cluster.coordinator.current.fragment(fragment.fragment_id)
        assert updated.mode is FragmentMode.NORMAL
        assert not cluster.instances[fragment.primary].contains(key) or \
            cluster.instances[fragment.primary].peek(key).version >= 2
        assert cluster.oracle.stale_reads == 0


class TestDirtyListEvictedInTransient:
    def test_partial_list_forces_discard(self):
        cluster = make_cluster(GEMINI_O)
        cluster.start()
        client = cluster.clients[0]
        key = "user0000000001"
        run_session(cluster, client.read(key))
        fragment = client.config.fragment_for_key(key)
        cluster.fail_instance(fragment.primary)
        settle(cluster)
        transient = cluster.coordinator.current.fragment(
            fragment.fragment_id)
        secondary = cluster.instances[transient.secondary]
        # Simulate memory pressure evicting the dirty list.
        secondary.handle_request(CacheOp(
            op="delete_dirty", fragment_id=fragment.fragment_id,
            client_cfg_id=cluster.coordinator.current.config_id))
        # The next write recreates it partial and reports dirty-lost.
        run_session(cluster, client.write(key, size=50))
        settle(cluster)
        updated = cluster.coordinator.current.fragment(fragment.fragment_id)
        # The coordinator promoted the secondary and discarded the
        # primary replica (floor bump).
        assert updated.mode is FragmentMode.NORMAL
        assert updated.primary == transient.secondary
        # And on recovery of the old primary nothing stale survives.
        cluster.recover_instance(fragment.primary)
        settle(cluster)
        value = run_session(cluster, client.read(key))
        assert value.version == 2
        assert cluster.oracle.stale_reads == 0
