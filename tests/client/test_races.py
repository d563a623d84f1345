"""Deterministic reproductions of the race conditions in Appendix A.

These tests engineer the interleavings of Lemmas 2, 4 and 5 by making the
data store slow (so sessions overlap) and launching sessions at precise
simulated times, then assert the oracle sees no stale read.
"""


from repro.harness.cluster import ClusterSpec, GeminiCluster
from repro.recovery.policies import GEMINI_O_W
from repro.types import FragmentMode


def make_cluster(read_time=0.05, write_time=0.05):
    """A cluster whose store is slow enough to overlap sessions."""
    spec = ClusterSpec(
        num_instances=2, fragments_per_instance=2, num_clients=2,
        num_workers=0, policy=GEMINI_O_W, seed=3,
        datastore_read_time=read_time, datastore_write_time=write_time,
        iq_lifetime=1.0,  # leases outlive the engineered overlap window
    )
    cluster = GeminiCluster(spec)
    cluster.datastore.populate(["k-race"], size_of=lambda __: 10)
    cluster.start()
    return cluster


KEY = "k-race"


def launch(cluster, client, kind, at, results, tag):
    def session():
        yield max(0.0, at - cluster.sim.now)
        if kind == "read":
            value = yield from client.read(KEY)
        else:
            value = yield from client.write(KEY, size=10)
        results.append((tag, cluster.sim.now, value.version))
    cluster.sim.process(session(), name=tag)


class TestLemma2NormalMode:
    """Read-miss racing a write in normal mode."""

    def test_case1_read_insert_before_q_lease(self):
        """Read fills before the write's Q lease: the insert lands and the
        write's delete removes it — read serialized before write."""
        cluster = make_cluster()
        reader, writer = cluster.clients
        results = []
        launch(cluster, reader, "read", at=0.0, results=results, tag="r")
        # Write starts after the read's fill is done (read ~0.05s).
        launch(cluster, writer, "write", at=0.2, results=results, tag="w")
        cluster.sim.run(until=5.0)
        assert cluster.oracle.stale_reads == 0
        fragment = reader.config.fragment_for_key(KEY)
        assert not cluster.instances[fragment.primary].contains(KEY)

    def test_case2_q_lease_voids_slow_readers_insert(self):
        """The write's Q lease lands while the reader still queries the
        store: the reader's insert must be ignored."""
        cluster = make_cluster(read_time=0.5, write_time=0.01)
        reader, writer = cluster.clients
        results = []
        launch(cluster, reader, "read", at=0.0, results=results, tag="r")
        launch(cluster, writer, "write", at=0.1, results=results, tag="w")
        cluster.sim.run(until=5.0)
        assert cluster.oracle.stale_reads == 0
        fragment = reader.config.fragment_for_key(KEY)
        # The slow reader's v1 insert was voided; no stale copy remains.
        cached = cluster.instances[fragment.primary].peek(KEY)
        if cached is not None and cached is not False:
            from repro.types import CACHE_MISS
            assert cached is CACHE_MISS or cached.version >= 2

    def test_many_interleaved_sessions_stay_consistent(self):
        cluster = make_cluster(read_time=0.03, write_time=0.04)
        reader, writer = cluster.clients
        results = []
        for index in range(20):
            launch(cluster, reader, "read", at=0.01 * index,
                   results=results, tag=f"r{index}")
            if index % 3 == 0:
                launch(cluster, writer, "write", at=0.01 * index + 0.005,
                       results=results, tag=f"w{index}")
        cluster.sim.run(until=10.0)
        assert cluster.oracle.stale_reads == 0
        assert len(results) == 27


class TestThunderingHerd:
    def test_concurrent_misses_issue_one_store_query(self):
        """The I lease admits one reader to the store; the rest back off
        and consume the filled entry (Section 2.3)."""
        cluster = make_cluster(read_time=0.2)
        reader = cluster.clients[0]
        results = []
        for index in range(8):
            launch(cluster, reader, "read", at=0.001 * index,
                   results=results, tag=f"r{index}")
        cluster.sim.run(until=10.0)
        assert len(results) == 8
        assert cluster.datastore.reads == 1


class TestLemma4RecoveryMode:
    def prepare(self, cluster):
        """Fail + dirty the key + recover; returns the fragment."""
        client = cluster.clients[0]
        process = cluster.sim.process(client.read(KEY))
        cluster.sim.run_until(process, limit=10.0)
        fragment = client.config.fragment_for_key(KEY)
        cluster.fail_instance(fragment.primary)
        cluster.sim.run(until=cluster.sim.now + 1.0)
        process = cluster.sim.process(client.write(KEY, size=10))
        cluster.sim.run_until(process, limit=20.0)
        cluster.recover_instance(fragment.primary)
        cluster.sim.run(until=cluster.sim.now + 0.5)
        assert client.config.fragment_for_key(KEY).mode is FragmentMode.RECOVERY
        return fragment

    def test_dirty_read_racing_write(self):
        """Algorithm 1's repair path overlapping Algorithm 2's write."""
        cluster = make_cluster(read_time=0.3, write_time=0.3)
        self.prepare(cluster)
        reader, writer = cluster.clients
        results = []
        start = cluster.sim.now
        launch(cluster, reader, "read", at=start + 0.01,
               results=results, tag="r")
        launch(cluster, writer, "write", at=start + 0.05,
               results=results, tag="w")
        cluster.sim.run(until=start + 10.0)
        assert cluster.oracle.stale_reads == 0
        # Any read AFTER the write completes must see its version.
        final = cluster.sim.process(reader.read(KEY))
        value = cluster.sim.run_until(final, limit=cluster.sim.now + 10.0)
        assert value.version >= 3

    def test_write_then_read_in_recovery_is_fresh(self):
        cluster = make_cluster()
        self.prepare(cluster)
        reader, writer = cluster.clients
        process = cluster.sim.process(writer.write(KEY, size=10))
        cluster.sim.run_until(process, limit=cluster.sim.now + 10.0)
        process = cluster.sim.process(reader.read(KEY))
        value = cluster.sim.run_until(process, limit=cluster.sim.now + 10.0)
        assert value.version == 3
        assert cluster.oracle.stale_reads == 0


class TestLemma5CleanKeys:
    def test_clean_key_hit_during_recovery_is_consistent(self):
        cluster = make_cluster()
        client = cluster.clients[0]
        process = cluster.sim.process(client.read(KEY))
        cluster.sim.run_until(process, limit=10.0)
        fragment = client.config.fragment_for_key(KEY)
        cluster.fail_instance(fragment.primary)
        cluster.sim.run(until=cluster.sim.now + 1.0)
        # No write during the outage: the key stays clean.
        cluster.recover_instance(fragment.primary)
        cluster.sim.run(until=cluster.sim.now + 0.5)
        process = cluster.sim.process(client.read(KEY))
        value = cluster.sim.run_until(process, limit=cluster.sim.now + 10.0)
        assert value.version == 1
        assert cluster.oracle.stale_reads == 0
