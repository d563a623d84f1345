"""Regression: a recovery-mode write whose secondary delete bounces.

Found by the Figure 8 benchmark sweep: when a client one configuration
behind performs Algorithm 2's write, its delete on the secondary can be
bounced with StaleConfiguration (the secondary already knows a newer id).
Swallowing that bounce leaves the stale value in the secondary, and a
Gemini-O recovery worker then faithfully copies it back into the primary
— a read-after-write violation. The client must instead retry the whole
cache-side invalidation under the fresh configuration.
"""


from repro.errors import StaleConfiguration
from repro.recovery.policies import GEMINI_O
from repro.types import CACHE_MISS, FragmentMode
from tests.conftest import build_cluster


def run_session(cluster, generator, limit_extra=30.0):
    process = cluster.sim.process(generator)
    return cluster.sim.run_until(process,
                                 limit=cluster.sim.now + limit_extra)


def settle(cluster, seconds=1.0):
    cluster.sim.run(until=cluster.sim.now + seconds)


class TestRecoveryWriteSecondaryBounce:
    def test_bounced_secondary_delete_retries_and_cleans(self):
        cluster = build_cluster(GEMINI_O, num_workers=0)
        cluster.datastore.populate(["user0000000001"], size_of=lambda _: 50)
        cluster.start()
        client = cluster.clients[0]
        key = "user0000000001"
        # Warm, fail, dirty, recover: fragment in recovery mode with a
        # stale-ish copy in the secondary (filled by a transient read).
        run_session(cluster, client.read(key))
        fragment = client.config.fragment_for_key(key)
        cluster.fail_instance(fragment.primary)
        settle(cluster)
        run_session(cluster, client.write(key, size=50))   # v2, dirty
        run_session(cluster, client.read(key))             # secondary: v2
        cluster.recover_instance(fragment.primary)
        settle(cluster, 0.5)
        fragment = client.config.fragment_for_key(key)
        assert fragment.mode is FragmentMode.RECOVERY
        # Simulate the mid-fan-out bounce window: a newer (content-wise
        # identical) configuration exists; the secondary has already
        # learned its id, the primary and this client have not.
        coordinator = cluster.coordinator
        newer = coordinator.current.evolve(
            coordinator.current.config_id + 1, {})
        coordinator.current = newer
        coordinator.published = newer
        coordinator._config_id = newer.config_id
        secondary = cluster.instances[fragment.secondary]
        secondary.known_config_id = newer.config_id
        # The write session must still remove the key from BOTH replicas
        # (after refreshing and retrying), not leave v2 in the secondary.
        value = run_session(cluster, client.write(key, size=50))
        assert value.version == 3
        assert secondary.peek(key) is CACHE_MISS
        # And a subsequent read is fresh.
        got = run_session(cluster, client.read(key))
        assert got.version == 3
        assert cluster.oracle.stale_reads == 0

    def test_worker_cannot_resurrect_after_clean_write(self):
        """End-to-end flavour: with workers on, the full cycle under the
        same bounce conditions never yields a stale read."""
        cluster = build_cluster(GEMINI_O, num_workers=2)
        cluster.datastore.populate([f"user{i:010d}" for i in range(20)],
                                   size_of=lambda _: 50)
        cluster.start()
        client = cluster.clients[0]
        key = "user0000000001"
        run_session(cluster, client.read(key))
        fragment = client.config.fragment_for_key(key)
        cluster.fail_instance(fragment.primary)
        settle(cluster)
        run_session(cluster, client.write(key, size=50))
        run_session(cluster, client.read(key))
        cluster.recover_instance(fragment.primary)
        settle(cluster, 0.2)
        # Immediately write again while repair is racing.
        run_session(cluster, client.write(key, size=50))
        settle(cluster, 5.0)
        got = run_session(cluster, client.read(key))
        assert got.version == 3
        assert cluster.oracle.stale_reads == 0
