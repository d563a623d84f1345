"""Integration: evolving access patterns and the working-set transfer
(Section 5.4.4 / Figure 10)."""

import pytest

from repro.harness.experiment import Experiment
from repro.recovery.policies import GEMINI_I, GEMINI_I_W
from repro.sim.failures import FailureSchedule
from repro.workload.ycsb import WORKLOAD_B, ClosedLoopThread, YcsbWorkload
from tests.conftest import build_cluster


def build_evolving(policy, switch_fraction, duration=40.0, seed=13):
    """Failure at t=8 for 8 s; the access pattern switches at the failure."""
    cluster = build_cluster(policy, num_instances=3,
                            fragments_per_instance=4, num_clients=2,
                            num_workers=1, seed=seed)
    spec = WORKLOAD_B.with_records(400).with_update_fraction(0.05)
    workload = YcsbWorkload(spec, cluster.rng.stream("load"))
    workload.populate(cluster.datastore)
    cluster.warm_cache(workload.keyspace.active_keys())
    experiment = Experiment(cluster, duration=duration, failures=[
        FailureSchedule(at=8.0, duration=8.0, targets=["cache-0"])])
    for index in range(4):
        client = cluster.clients[index % 2]
        experiment.add_load(ClosedLoopThread(
            cluster.sim, client, workload, name=f"t{index}"))
    if switch_fraction >= 1.0:
        cluster.sim.schedule_at(8.0, workload.keyspace.switch_full)
    else:
        cluster.sim.schedule_at(8.0, workload.keyspace.switch_hottest,
                                switch_fraction)
    return cluster, workload, experiment


@pytest.fixture(scope="module")
def full_switch():
    """One run of the full switch under Gemini-I+W; the simulation is
    deterministic, so every test reads the same outcome a rebuild of its
    own would give."""
    cluster, __, experiment = build_evolving(GEMINI_I_W, 1.0)
    return cluster, experiment.run()


class TestEvolvingPattern:
    def test_full_switch_stays_consistent(self, full_switch):
        __, result = full_switch
        assert result.oracle.stale_reads == 0

    def test_wst_transfers_new_working_set(self, full_switch):
        """With +W, the secondary's copies of the NEW working set move to
        the recovering primary instead of being recomputed at the store."""
        cluster, __ = full_switch
        wst_hits = sum(client.wst.totals("cache-0")["hits"]
                       for client in cluster.clients)
        assert wst_hits > 0

    def test_wst_beats_plain_invalidate_on_store_load(self):
        """Gemini-I must recompute the evolved working set at the data
        store; Gemini-I+W fetches it from the secondary. Compare store
        reads in the window after recovery."""
        __, ___, exp_w = build_evolving(GEMINI_I_W, 1.0, seed=31)
        cluster_w = exp_w.cluster
        exp_w.run()
        reads_with = cluster_w.datastore.reads

        __, ___, exp_i = build_evolving(GEMINI_I, 1.0, seed=31)
        cluster_i = exp_i.cluster
        exp_i.run()
        reads_without = cluster_i.datastore.reads
        assert reads_with < reads_without

    def test_partial_switch_consistent(self):
        __, ___, experiment = build_evolving(GEMINI_I_W, 0.2)
        result = experiment.run()
        assert result.oracle.stale_reads == 0
