"""Tests for the batched, pipelined repair path of the recovery worker:
windowed batches, the recovery recorder, mid-pass degradation when the
secondary becomes unreachable, and the stale-config fetch abort."""

from repro.recovery.policies import GEMINI_I, GEMINI_O
from repro.types import FragmentMode
from tests.conftest import build_cluster
from tests.recovery.test_worker import run_session, settle


def make_cluster(policy, **kw):
    kw.setdefault("num_workers", 1)
    cluster = build_cluster(policy, num_instances=3,
                            fragments_per_instance=2, **kw)
    cluster.datastore.populate([f"user{i:010d}" for i in range(120)],
                               size_of=lambda __: 50)
    cluster.start()
    return cluster


def dirty_one_fragment(cluster, count, stop_workers=False):
    """Fail one primary and dirty ``count`` keys of a single fragment.

    Returns (fragment_id, primary, secondary, dirty_keys) with the
    primary recovered and the fragment in recovery mode.
    """
    client = cluster.clients[0]
    by_fragment = {}
    for index in range(120):
        key = f"user{index:010d}"
        by_fragment.setdefault(
            client.config.fragment_for_key(key).fragment_id, []).append(key)
    fragment_id, keys = max(by_fragment.items(), key=lambda kv: len(kv[1]))
    keys = keys[:count]
    assert len(keys) == count, "need more populated keys for this fragment"
    for key in keys:
        run_session(cluster, client.read(key))
    fragment = cluster.coordinator.current.fragment(fragment_id)
    primary = fragment.primary
    cluster.fail_instance(primary)
    settle(cluster)
    for key in keys:
        run_session(cluster, client.write(key, size=50))
    if stop_workers:
        for worker in cluster.workers:
            worker.stop()
    secondary = cluster.coordinator.current.fragment(fragment_id).secondary
    cluster.recover_instance(primary)
    settle(cluster, 0.2)
    return fragment_id, primary, secondary, keys


class TestPipelinedRepair:
    def test_window_and_counters_recorded(self):
        """Small batches over many dirty keys: the recorder must see
        multiple batches and an in-flight depth that actually used the
        window."""
        cluster = make_cluster(GEMINI_O.with_batching(2, 3))
        __, ___, ____, keys = dirty_one_fragment(cluster, 12)
        settle(cluster, 10.0)
        summary = cluster.recovery_recorder.summary()
        assert summary["keys_repaired"] >= len(keys)
        assert summary["batches"] >= len(keys) // 2
        assert 2 <= summary["max_inflight"] <= 3
        assert cluster.oracle.stale_reads == 0

    def test_throughput_series_populated(self):
        cluster = make_cluster(GEMINI_O.with_batching(4, 2))
        fragment_id, *__ = dirty_one_fragment(cluster, 8)
        settle(cluster, 10.0)
        series = cluster.recovery_recorder.throughput_series(fragment_id)
        assert sum(rate for __, rate in series) > 0

    def test_batched_equals_sequential_outcome(self):
        """Batching is a performance knob, not a semantic one: the
        fragment converges to normal mode with no stale reads at any
        batch shape."""
        for batch, window in ((1, 1), (5, 2)):
            cluster = make_cluster(GEMINI_O.with_batching(batch, window))
            fragment_id, *__ = dirty_one_fragment(cluster, 10)
            settle(cluster, 10.0)
            current = cluster.coordinator.current.fragment(fragment_id)
            assert current.mode is FragmentMode.NORMAL
            assert cluster.oracle.stale_reads == 0


class TestMidPassDegradation:
    def test_unreachable_secondary_degrades_to_deletes(self):
        """Gemini-O with the secondary dying mid-pass: the worker must
        fall back to Gemini-I deletes (counted as degraded) instead of
        timing out on every remaining key."""
        cluster = make_cluster(GEMINI_O.with_batching(2, 1))
        fragment_id, primary, secondary, keys = dirty_one_fragment(
            cluster, 10, stop_workers=True)
        worker = cluster.workers[0]
        assert worker.config.fragment(fragment_id).mode is FragmentMode.RECOVERY
        # The secondary dies after the pass has started (it already
        # granted the Redlease and served the dirty list) — directly, so
        # the coordinator has not yet reacted and the fragment is still
        # in recovery mode: the window where degradation matters.
        cluster.instances[secondary].fail()
        cfg = worker.config.config_id
        ok = run_session(cluster, worker._repair_keys(
            fragment_id, list(keys), secondary, cfg))
        assert ok
        assert worker.keys_degraded == len(keys)
        assert worker.keys_overwritten == 0
        summary = cluster.recovery_recorder.summary()
        assert summary["keys_degraded"] == len(keys)
        # The stale copies are gone from the recovering primary.
        assert all(not cluster.instances[primary].contains(k) for k in keys)

    def test_gemini_i_never_counts_degraded(self):
        cluster = make_cluster(GEMINI_I.with_batching(4, 2))
        __, ___, ____, keys = dirty_one_fragment(cluster, 8)
        settle(cluster, 10.0)
        worker = cluster.workers[0]
        assert worker.keys_deleted >= len(keys)
        assert worker.keys_degraded == 0


class TestStaleConfigFetchAbort:
    def test_fetch_dirty_keys_returns_none_on_stale_config(self):
        """Regression: the monolithic fetch signals a stale-config abort
        with None — distinct from an empty dirty list."""
        cluster = make_cluster(GEMINI_O)
        fragment_id, __, secondary, ___ = dirty_one_fragment(
            cluster, 4, stop_workers=True)
        worker = cluster.workers[0]
        cfg = worker.config.config_id
        # The secondary has adopted a newer configuration than the pass.
        cluster.instances[secondary].known_config_id = cfg + 1
        keys = run_session(cluster, worker._fetch_dirty_keys(
            fragment_id, secondary, cfg))
        assert keys is None

    # geminilint: disable=GEM003 -- delete_dirty here simulates eviction; no recovery pass (hence no Redlease) is running
    def test_fetch_falls_back_to_coordinator_copy(self):
        """An evicted dirty list is served from the coordinator's copy,
        which is a plain (possibly empty) key list — not None."""
        cluster = make_cluster(GEMINI_O)
        fragment_id, __, secondary, keys = dirty_one_fragment(
            cluster, 4, stop_workers=True)
        from repro.cache.instance import CacheOp
        cluster.instances[secondary].handle_request(CacheOp(
            op="delete_dirty", fragment_id=fragment_id,
            client_cfg_id=cluster.coordinator.current.config_id))
        worker = cluster.workers[0]
        fetched = run_session(cluster, worker._fetch_dirty_keys(
            fragment_id, secondary, worker.config.config_id))
        assert fetched is not None
        assert set(keys) <= set(fetched)
