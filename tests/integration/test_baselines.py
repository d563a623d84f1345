"""Integration: the baselines behave as the paper describes.

StaleCache serves stale data after recovery (Figure 1); VolatileCache is
consistent but must re-warm from the store; Gemini gets both properties.
"""

import pytest

from repro.recovery.policies import GEMINI_O, STALE_CACHE, VOLATILE_CACHE
from repro.sim.failures import FailureSchedule
from tests.conftest import build_loaded_experiment

FAILURE = FailureSchedule(at=8.0, duration=8.0, targets=["cache-0"])


def run_policy(policy, **kw):
    kw.setdefault("records", 300)
    kw.setdefault("duration", 30.0)
    kw.setdefault("threads", 4)
    kw.setdefault("update_fraction", 0.10)
    kw.setdefault("failures", [FAILURE])
    cluster, workload, experiment = build_loaded_experiment(policy, **kw)
    return experiment.run()


# One default-parameter run per baseline, shared by the tests that read
# it: the simulation is deterministic, so each test sees the same
# outcome a rebuild of its own would give.
@pytest.fixture(scope="module")
def stale_run():
    return run_policy(STALE_CACHE)


@pytest.fixture(scope="module")
def volatile_run():
    return run_policy(VOLATILE_CACHE)


class TestStaleCache:
    def test_produces_stale_reads_after_recovery(self, stale_run):
        result = stale_run
        assert result.oracle.stale_reads > 0
        # All violations happen after the instance came back at t=16.
        assert all(v.finish_time >= 16.0 for v in result.oracle.violations)

    def test_stale_reads_decay_as_writes_delete(self):
        """Figure 1's shape: the count peaks right after recovery and
        decays as write-around deletes repair stale entries."""
        result = run_policy(STALE_CACHE, duration=40.0)
        series = result.oracle.stale_reads_per_second()
        assert series
        peak_time = max(series, key=series.get)
        assert 16.0 <= peak_time <= 22.0
        tail = [count for t, count in series.items() if t >= peak_time + 8]
        if tail:
            assert max(tail) <= series[peak_time]

    def test_restores_hit_ratio_immediately(self, stale_run):
        result = stale_run
        pre = result.hit_ratio_before("cache-0", 8.0)
        restore = result.time_to_restore_hit_ratio(
            "cache-0", max(0.1, pre - 0.1))
        assert restore is not None and restore <= 3.0


class TestVolatileCache:
    def test_no_stale_reads(self, volatile_run):
        result = volatile_run
        assert result.oracle.stale_reads == 0

    def test_recovering_instance_starts_cold(self, volatile_run):
        result = volatile_run
        series = dict(result.instance_hit_series["cache-0"])
        # The first second after the wipe (recovery lands at t=16) is
        # dominated by misses; at this tiny scale the hot set re-warms
        # within about a second, so only this bucket shows the cold start.
        first = series.get(16.0)
        assert first is not None and first < 0.6

    def test_slower_to_restore_than_gemini(self):
        volatile = run_policy(VOLATILE_CACHE, duration=40.0, seed=21)
        gemini = run_policy(GEMINI_O, duration=40.0, seed=21)
        threshold = 0.8
        t_volatile = volatile.time_to_restore_hit_ratio("cache-0", threshold)
        t_gemini = gemini.time_to_restore_hit_ratio("cache-0", threshold)
        assert t_gemini is not None
        # VolatileCache either never restores within the run, or takes
        # longer than Gemini.
        assert t_volatile is None or t_volatile >= t_gemini


class TestGeminiCombinesBoth:
    def test_consistent_and_warm(self):
        result = run_policy(GEMINI_O)
        assert result.oracle.stale_reads == 0
        pre = result.hit_ratio_before("cache-0", 8.0)
        restore = result.time_to_restore_hit_ratio(
            "cache-0", max(0.1, pre - 0.1))
        assert restore is not None and restore <= 6.0
