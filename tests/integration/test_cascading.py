"""Integration: cascading failures (Table 3 scenario) under live load.

cache-1 fails; its fragments get secondaries. Then one of the secondaries
fails before cache-1 recovers: those fragments' dirty lists are gone, so
Gemini must discard the affected primary replicas — and stay consistent.
"""

import pytest

from repro.recovery.policies import GEMINI_O
from repro.sim.failures import FailureSchedule
from repro.types import FragmentMode
from tests.conftest import build_loaded_experiment


@pytest.fixture(scope="module")
def cascade():
    """One run of the cascade; the simulation is deterministic, so every
    test reads the same outcome a rebuild of its own would give."""
    cluster, __, experiment = build_loaded_experiment(
        GEMINI_O, records=400, duration=40.0, threads=4,
        num_instances=5, fragments_per_instance=4,
        update_fraction=0.05,
        failures=[
            # cache-0 down for 20s; cache-1 (hosting some of its
            # secondaries) dies mid-outage and stays down briefly.
            FailureSchedule(at=8.0, duration=20.0, targets=["cache-0"]),
            FailureSchedule(at=12.0, duration=10.0, targets=["cache-1"]),
        ])
    return cluster, experiment.run()


class TestCascade:
    def test_consistency_maintained_through_cascade(self, cascade):
        cluster, result = cascade
        assert result.oracle.stale_reads == 0
        assert result.oracle.reads_checked > 1000

    def test_affected_fragments_discarded(self, cascade):
        cluster, result = cascade
        assert cluster.coordinator.fragments_discarded > 0
        # Everything converges back to normal mode.
        final = cluster.coordinator.current
        assert all(f.mode is FragmentMode.NORMAL for f in final.fragments)

    def test_unaffected_fragments_still_recovered(self, cascade):
        """Fragments whose secondary survived keep their restored floor."""
        cluster, result = cascade
        final = cluster.coordinator.current
        restored = [f for f in final.fragments
                    if cluster.coordinator.home_of(f.fragment_id) == "cache-0"
                    and f.cfg_id == 1]
        assert restored  # at least one fragment reused its old entries

    def test_cluster_survives_and_serves(self, cascade):
        cluster, result = cascade
        rates = dict(result.throughput_series())
        # Still serving at the end of the run.
        assert rates.get(38.0, 0) > 0
