"""Integration: coordinator failover mid-protocol (Section 2.1).

The master coordinator dies while an instance outage is in progress; the
promoted shadow must finish the recovery and consistency must hold.
"""

from repro.harness.experiment import Experiment
from repro.recovery.policies import GEMINI_O
from repro.sim.failures import FailureSchedule
from repro.types import FragmentMode
from repro.workload.ycsb import WORKLOAD_B, ClosedLoopThread, YcsbWorkload
from tests.conftest import build_cluster


def build(duration=40.0):
    cluster = build_cluster(GEMINI_O, num_shadow_coordinators=1,
                            num_clients=2, num_workers=1)
    spec = WORKLOAD_B.with_records(300).with_update_fraction(0.05)
    workload = YcsbWorkload(spec, cluster.rng.stream("load"))
    workload.populate(cluster.datastore)
    cluster.warm_cache(workload.keyspace.active_keys())
    experiment = Experiment(cluster, duration=duration, failures=[
        FailureSchedule(at=8.0, duration=8.0, targets=["cache-0"])])
    for index in range(4):
        experiment.add_load(ClosedLoopThread(
            cluster.sim, cluster.clients[index % 2], workload,
            name=f"t{index}"))
    return cluster, experiment


class TestCoordinatorFailover:
    def test_failover_during_outage(self):
        cluster, experiment = build()

        def promote_and_redirect():
            promoted = cluster.ensemble.fail_master()
            # Clients and workers now talk to the promoted master (the
            # ZooKeeper lookup in a real deployment).
            for client in cluster.clients:
                client.coordinator_address = promoted.address
            for worker in cluster.workers:
                worker.coordinator_address = promoted.address
            cluster.injector.subscribe(promoted.on_event)
            promoted.start_monitor()

        # Master dies mid-outage; the recovery event must be handled by
        # the promoted shadow.
        cluster.sim.schedule_at(12.0, promote_and_redirect)
        result = experiment.run()
        assert cluster.ensemble.promotions == 1
        assert result.oracle.stale_reads == 0
        final = cluster.ensemble.active.current
        assert all(f.mode is FragmentMode.NORMAL for f in final.fragments)

    def test_promoted_master_continues_config_ids(self):
        cluster, experiment = build()
        ids = []

        def promote():
            ids.append(cluster.ensemble.active.current.config_id)
            promoted = cluster.ensemble.fail_master()
            ids.append(promoted.current.config_id)
            cluster.injector.subscribe(promoted.on_event)

        cluster.sim.schedule_at(12.0, promote)
        experiment.run()
        # The shadow adopted the replicated state: same id at takeover,
        # and ids keep increasing afterwards.
        assert ids[1] >= ids[0]
        assert cluster.ensemble.active.current.config_id >= ids[1]
