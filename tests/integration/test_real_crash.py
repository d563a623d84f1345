"""Integration: *real* (non-emulated) crashes with heartbeat detection.

Unlike the paper's emulated failures, here the node actually stops
answering: clients see timeouts, the heartbeat monitor detects the crash,
writes suspend during the window, and the lease table (DRAM) is lost
while entries (persistent) survive. Consistency must still hold.
"""

import pytest

from repro.recovery.policies import GEMINI_O
from repro.sim.failures import FailureSchedule
from repro.types import FragmentMode
from tests.conftest import build_loaded_experiment


def build(duration=40.0, **kw):
    kw.setdefault("records", 300)
    kw.setdefault("threads", 4)
    kw.setdefault("update_fraction", 0.05)
    kw.setdefault("heartbeat", True)
    return build_loaded_experiment(
        GEMINI_O, duration=duration,
        failures=[FailureSchedule(at=8.0, duration=8.0,
                                  targets=["cache-0"], emulated=False)],
        **kw)


@pytest.fixture(scope="module")
def crash():
    """One run of the real-crash scenario; the simulation is
    deterministic, so every test reads the same outcome a rebuild of its
    own would give."""
    cluster, __, experiment = build()
    return cluster, experiment.run()


class TestRealCrash:
    def test_consistency_with_real_crash(self, crash):
        cluster, result = crash
        assert result.oracle.stale_reads == 0
        assert result.oracle.reads_checked > 500

    def test_cluster_returns_to_normal(self, crash):
        cluster, result = crash
        final = cluster.coordinator.current
        assert all(f.mode is FragmentMode.NORMAL for f in final.fragments)
        assert cluster.coordinator.is_alive("cache-0")

    def test_sessions_observe_and_survive_the_crash(self, crash):
        cluster, result = crash
        # Sessions saw the dead node: they refreshed their configuration
        # (the first reporter triggers reassignment almost immediately, so
        # explicit suspensions are rare at this scale).
        assert result.recorder.config_refreshes > 0
        # And nobody errored out permanently.
        assert result.recorder.ops() > 500

    def test_persistent_entries_reused_after_real_crash(self, crash):
        cluster, result = crash
        pre = result.hit_ratio_before("cache-0", 8.0)
        restore = result.time_to_restore_hit_ratio(
            "cache-0", max(0.1, pre - 0.1))
        assert restore is not None and restore < 15.0
