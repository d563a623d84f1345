"""Unit tests for recovery workers (Algorithm 3)."""


from repro.cache.instance import CacheOp
from repro.recovery.policies import GEMINI_I, GEMINI_O
from repro.types import CACHE_MISS, FragmentMode
from tests.conftest import build_cluster


def settle(cluster, for_seconds=1.0):
    cluster.sim.run(until=cluster.sim.now + for_seconds)


def run_session(cluster, generator, limit_extra=30.0):
    process = cluster.sim.process(generator)
    return cluster.sim.run_until(process,
                                 limit=cluster.sim.now + limit_extra)


def dirty_cycle(cluster, keys):
    """Warm keys, fail their primaries, write them (dirtying), recover.

    Returns {key: fragment} for inspection after recovery is triggered.
    """
    client = cluster.clients[0]
    for key in keys:
        run_session(cluster, client.read(key))
    fragments = {key: client.config.fragment_for_key(key) for key in keys}
    failed = {f.primary for f in fragments.values()}
    for address in failed:
        cluster.fail_instance(address)
    settle(cluster)
    for key in keys:
        run_session(cluster, client.write(key, size=50))
    for address in failed:
        cluster.recover_instance(address)
    return fragments


def make_cluster(policy, **kw):
    kw.setdefault("num_workers", 1)
    cluster = build_cluster(policy, num_instances=3,
                            fragments_per_instance=2, **kw)
    cluster.datastore.populate([f"user{i:010d}" for i in range(60)],
                               size_of=lambda __: 50)
    cluster.start()
    return cluster


class TestGeminiO:
    def test_dirty_keys_overwritten_from_secondary(self):
        cluster = make_cluster(GEMINI_O)
        keys = [f"user{i:010d}" for i in range(6)]
        fragments = dirty_cycle(cluster, keys)
        # Re-read through the secondary during the outage so the secondary
        # holds fresh copies... (they were deleted by the writes). Instead
        # read now, while fragments are still transient-to-recovery, to
        # repopulate secondaries is not needed: the worker deletes missing
        # keys. Let recovery run to completion.
        settle(cluster, 10.0)
        worker = cluster.workers[0]
        assert worker.fragments_recovered > 0
        # Every fragment is back to normal; dirty lists are gone.
        for fragment in fragments.values():
            current = cluster.coordinator.current.fragment(
                fragment.fragment_id)
            assert current.mode is FragmentMode.NORMAL
        assert cluster.oracle.stale_reads == 0

    def test_secondary_value_copied_into_primary(self):
        cluster = make_cluster(GEMINI_O)
        client = cluster.clients[0]
        key = "user0000000001"
        run_session(cluster, client.read(key))
        fragment = client.config.fragment_for_key(key)
        cluster.fail_instance(fragment.primary)
        settle(cluster)
        run_session(cluster, client.write(key, size=50))
        # Read it back through the secondary: the secondary now caches v2.
        run_session(cluster, client.read(key))
        cluster.recover_instance(fragment.primary)
        settle(cluster, 10.0)
        cached = cluster.instances[fragment.primary].peek(key)
        assert cached is not CACHE_MISS and cached.version == 2
        assert cluster.workers[0].keys_overwritten >= 1

    def test_dirty_list_deleted_after_processing(self):
        cluster = make_cluster(GEMINI_O)
        client = cluster.clients[0]
        key = "user0000000001"
        run_session(cluster, client.read(key))
        fragment = client.config.fragment_for_key(key)
        cluster.fail_instance(fragment.primary)
        settle(cluster)
        run_session(cluster, client.write(key, size=50))
        secondary_address = client.config.fragment_for_key(key).secondary
        cluster.recover_instance(fragment.primary)
        settle(cluster, 10.0)
        secondary = cluster.instances[secondary_address]
        dirty = secondary.handle_request(CacheOp(
            op="get_dirty", fragment_id=fragment.fragment_id,
            client_cfg_id=cluster.coordinator.current.config_id))
        assert dirty is CACHE_MISS


class TestGeminiI:
    def test_dirty_keys_deleted_not_overwritten(self):
        cluster = make_cluster(GEMINI_I)
        client = cluster.clients[0]
        key = "user0000000001"
        run_session(cluster, client.read(key))
        fragment = client.config.fragment_for_key(key)
        cluster.fail_instance(fragment.primary)
        settle(cluster)
        run_session(cluster, client.write(key, size=50))
        run_session(cluster, client.read(key))  # secondary caches v2
        cluster.recover_instance(fragment.primary)
        settle(cluster, 10.0)
        worker = cluster.workers[0]
        assert worker.keys_deleted >= 1
        assert worker.keys_overwritten == 0
        assert not cluster.instances[fragment.primary].contains(key)
        # A subsequent read refills from the store — fresh.
        value = run_session(cluster, client.read(key))
        assert value.version == 2
        assert cluster.oracle.stale_reads == 0


class TestMutualExclusion:
    def test_two_workers_share_fragments_via_redlease(self):
        cluster = make_cluster(GEMINI_O, num_workers=2)
        keys = [f"user{i:010d}" for i in range(10)]
        dirty_cycle(cluster, keys)
        settle(cluster, 10.0)
        total = sum(w.fragments_recovered for w in cluster.workers)
        assert total >= 1
        assert cluster.oracle.stale_reads == 0


class TestWorkerCrash:
    def test_crashed_worker_superseded_after_redlease_expiry(self):
        cluster = make_cluster(GEMINI_O, num_workers=2,
                               red_lifetime=0.5)
        client = cluster.clients[0]
        key = "user0000000001"
        run_session(cluster, client.read(key))
        fragment = client.config.fragment_for_key(key)
        cluster.fail_instance(fragment.primary)
        settle(cluster)
        run_session(cluster, client.write(key, size=50))
        # Kill worker 0 the moment recovery starts; worker 1 takes over
        # once the Redlease expires.
        cluster.recover_instance(fragment.primary)
        cluster.workers[0].stop()
        settle(cluster, 15.0)
        current = cluster.coordinator.current.fragment(fragment.fragment_id)
        assert current.mode is FragmentMode.NORMAL
        assert cluster.oracle.stale_reads == 0


class TestIdleWorker:
    def test_worker_quiet_without_recovery_fragments(self):
        cluster = make_cluster(GEMINI_O)
        settle(cluster, 5.0)
        worker = cluster.workers[0]
        assert worker.fragments_recovered == 0
        assert worker.keys_deleted == 0
