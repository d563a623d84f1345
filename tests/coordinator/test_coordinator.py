"""Unit tests for coordinator mode transitions (Figure 4) and the
Rejig discard logic (Section 3.2.4 / Example 3.1)."""


from repro.cache.instance import CacheOp
from repro.recovery.policies import (
    GEMINI_O,
    GEMINI_O_W,
    STALE_CACHE,
    VOLATILE_CACHE,
)
from repro.types import CACHE_MISS, FragmentMode, Value
from tests.conftest import build_cluster


def settle(cluster, for_seconds=1.0):
    cluster.sim.run(until=cluster.sim.now + for_seconds)


def fragments_of(cluster, address, mode=None):
    out = []
    for fragment in cluster.coordinator.current.fragments:
        if cluster.coordinator.home_of(fragment.fragment_id) != address:
            continue
        if mode is None or fragment.mode is mode:
            out.append(fragment)
    return out


class TestFailureTransition:
    def test_fragments_move_to_transient_with_secondaries(self):
        cluster = build_cluster()
        cluster.fail_instance("cache-0")
        settle(cluster)
        transient = fragments_of(cluster, "cache-0", FragmentMode.TRANSIENT)
        assert len(transient) == 4
        assert all(f.secondary not in (None, "cache-0") for f in transient)

    def test_secondaries_spread_round_robin(self):
        cluster = build_cluster(num_instances=4, fragments_per_instance=6)
        cluster.fail_instance("cache-0")
        settle(cluster)
        secondaries = [f.secondary for f in
                       fragments_of(cluster, "cache-0")]
        # 6 fragments over 3 survivors: exactly 2 each.
        assert sorted(secondaries.count(f"cache-{i}") for i in (1, 2, 3)) \
            == [2, 2, 2]

    def test_config_id_increments_once_per_event(self):
        cluster = build_cluster()
        before = cluster.coordinator.current.config_id
        cluster.fail_instance("cache-0")
        settle(cluster)
        assert cluster.coordinator.current.config_id == before + 1

    def test_dirty_lists_created_with_marker(self):
        cluster = build_cluster()
        cluster.fail_instance("cache-0")
        settle(cluster)
        for fragment in fragments_of(cluster, "cache-0"):
            secondary = cluster.instances[fragment.secondary]
            dirty = secondary.handle_request(CacheOp(
                op="get_dirty", fragment_id=fragment.fragment_id,
                client_cfg_id=cluster.coordinator.current.config_id))
            assert dirty is not CACHE_MISS and dirty.complete

    def test_baselines_create_no_dirty_lists(self):
        cluster = build_cluster(STALE_CACHE)
        cluster.fail_instance("cache-0")
        settle(cluster)
        for fragment in fragments_of(cluster, "cache-0"):
            secondary = cluster.instances[fragment.secondary]
            dirty = secondary.handle_request(CacheOp(
                op="get_dirty", fragment_id=fragment.fragment_id,
                client_cfg_id=cluster.coordinator.current.config_id))
            assert dirty is CACHE_MISS

    def test_duplicate_failure_reports_ignored(self):
        cluster = build_cluster()
        cluster.fail_instance("cache-0")
        cluster.fail_instance("cache-0")
        settle(cluster)
        assert cluster.coordinator.current.config_id == 2

    def test_instances_learn_new_id_before_clients(self):
        """Rejig ordering: instance pushes complete before subscribers."""
        cluster = build_cluster()
        seen = []
        cluster.coordinator.subscribe(lambda config: seen.append(
            [inst.known_config_id for inst in cluster.instances.values()
             if inst.address != "cache-0"]))
        cluster.fail_instance("cache-0")
        settle(cluster)
        assert seen and all(i >= 2 for i in seen[-1])


class TestGeminiRecovery:
    def test_fragments_enter_recovery_with_restored_floor(self):
        cluster = build_cluster()
        original = {f.fragment_id: f.cfg_id
                    for f in fragments_of(cluster, "cache-0")}
        cluster.fail_instance("cache-0")
        settle(cluster)
        cluster.recover_instance("cache-0")
        settle(cluster)
        recovery = fragments_of(cluster, "cache-0", FragmentMode.RECOVERY)
        assert len(recovery) == 4
        for fragment in recovery:
            assert fragment.cfg_id == original[fragment.fragment_id]
            assert fragment.primary == "cache-0"
            assert fragment.secondary is not None

    def test_wst_flag_follows_policy(self):
        for policy, expected in ((GEMINI_O_W, True), (GEMINI_O, False)):
            cluster = build_cluster(policy)
            cluster.fail_instance("cache-0")
            settle(cluster)
            cluster.recover_instance("cache-0")
            settle(cluster)
            recovery = fragments_of(cluster, "cache-0",
                                    FragmentMode.RECOVERY)
            assert all(f.wst_active is expected for f in recovery)

    def test_dirty_done_transitions_to_normal(self):
        cluster = build_cluster(GEMINI_O, num_workers=0)
        cluster.fail_instance("cache-0")
        settle(cluster)
        cluster.recover_instance("cache-0")
        settle(cluster)
        for fragment in fragments_of(cluster, "cache-0"):
            cluster.coordinator.on_event("dirty_done", fragment.fragment_id)
        settle(cluster)
        normal = fragments_of(cluster, "cache-0", FragmentMode.NORMAL)
        assert len(normal) == 4
        assert all(f.secondary is None for f in normal)

    def test_missing_dirty_list_discards_fragment(self):
        """Example 3.1: the evicted list forces a floor bump."""
        cluster = build_cluster()
        cluster.fail_instance("cache-0")
        settle(cluster)
        # Evict one fragment's dirty list behind the protocol's back.
        fragment = fragments_of(cluster, "cache-0")[0]
        secondary = cluster.instances[fragment.secondary]
        secondary.handle_request(CacheOp(
            op="delete_dirty", fragment_id=fragment.fragment_id,
            client_cfg_id=cluster.coordinator.current.config_id))
        cluster.recover_instance("cache-0")
        settle(cluster)
        updated = cluster.coordinator.current.fragment(fragment.fragment_id)
        assert updated.mode is FragmentMode.NORMAL
        assert updated.cfg_id == cluster.coordinator.current.config_id
        assert cluster.coordinator.fragments_discarded >= 1

    def test_partial_dirty_list_discards_fragment(self):
        cluster = build_cluster()
        cluster.fail_instance("cache-0")
        settle(cluster)
        fragment = fragments_of(cluster, "cache-0")[0]
        secondary = cluster.instances[fragment.secondary]
        cfg = cluster.coordinator.current.config_id
        secondary.handle_request(CacheOp(op="delete_dirty",
                                         fragment_id=fragment.fragment_id,
                                         client_cfg_id=cfg))
        # A client append recreates it without the marker.
        secondary.handle_request(CacheOp(op="append_dirty",
                                         fragment_id=fragment.fragment_id,
                                         key="k", client_cfg_id=cfg))
        cluster.recover_instance("cache-0")
        settle(cluster)
        updated = cluster.coordinator.current.fragment(fragment.fragment_id)
        assert updated.mode is FragmentMode.NORMAL
        assert updated.cfg_id == cluster.coordinator.current.config_id


class TestBaselineRecovery:
    def test_volatile_recovery_wipes_instance(self):
        cluster = build_cluster(VOLATILE_CACHE)
        instance = cluster.instances["cache-0"]
        instance._store("some-key", Value(1, 10), 1, 10)
        cluster.fail_instance("cache-0")
        settle(cluster)
        cluster.recover_instance("cache-0")
        settle(cluster)
        # Only the re-pushed configuration entry may remain.
        assert not instance.contains("some-key")
        assert all(f.mode is FragmentMode.NORMAL
                   for f in fragments_of(cluster, "cache-0"))

    def test_stale_recovery_restores_floor_without_repair(self):
        cluster = build_cluster(STALE_CACHE)
        original = {f.fragment_id: f.cfg_id
                    for f in fragments_of(cluster, "cache-0")}
        cluster.fail_instance("cache-0")
        settle(cluster)
        cluster.recover_instance("cache-0")
        settle(cluster)
        for fragment in fragments_of(cluster, "cache-0"):
            assert fragment.mode is FragmentMode.NORMAL
            assert fragment.cfg_id == original[fragment.fragment_id]


class TestCascadingFailures:
    def test_secondary_failure_discards_primary_replica(self):
        """Table 3's scenario: the secondary dies while the primary is
        still down — those fragments are unrecoverable."""
        cluster = build_cluster(num_instances=4)
        cluster.fail_instance("cache-0")
        settle(cluster)
        victims = [f.fragment_id for f in fragments_of(cluster, "cache-0")
                   if f.secondary == "cache-1"]
        assert victims  # round-robin guarantees some
        cluster.fail_instance("cache-1")
        settle(cluster)
        cluster.recover_instance("cache-0")
        settle(cluster)
        for fragment_id in victims:
            fragment = cluster.coordinator.current.fragment(fragment_id)
            assert fragment.cfg_id == cluster.coordinator.current.config_id

    def test_replacement_secondary_assigned(self):
        cluster = build_cluster(num_instances=4)
        cluster.fail_instance("cache-0")
        settle(cluster)
        victims = [f.fragment_id for f in fragments_of(cluster, "cache-0")
                   if f.secondary == "cache-1"]
        cluster.fail_instance("cache-1")
        settle(cluster)
        for fragment_id in victims:
            fragment = cluster.coordinator.current.fragment(fragment_id)
            assert fragment.secondary not in ("cache-0", "cache-1", None)

    def test_primary_fails_again_during_recovery(self):
        """Arrow 5 of Figure 4: recovery interrupted by a second outage."""
        cluster = build_cluster(num_workers=0)
        cluster.fail_instance("cache-0")
        settle(cluster)
        cluster.recover_instance("cache-0")
        settle(cluster)
        cluster.fail_instance("cache-0")
        settle(cluster)
        transient = fragments_of(cluster, "cache-0", FragmentMode.TRANSIENT)
        assert len(transient) == 4
        # Floors must stay restored: the dirty lists still cover outage 1.
        assert all(f.cfg_id == 1 for f in transient)

    def test_second_recovery_still_recovers(self):
        cluster = build_cluster(num_workers=0)
        cluster.fail_instance("cache-0")
        settle(cluster)
        cluster.recover_instance("cache-0")
        settle(cluster)
        cluster.fail_instance("cache-0")
        settle(cluster)
        cluster.recover_instance("cache-0")
        settle(cluster)
        recovery = fragments_of(cluster, "cache-0", FragmentMode.RECOVERY)
        assert len(recovery) == 4


class TestDirtyLost:
    def test_dirty_lost_promotes_secondary(self):
        cluster = build_cluster()
        cluster.fail_instance("cache-0")
        settle(cluster)
        fragment = fragments_of(cluster, "cache-0",
                                FragmentMode.TRANSIENT)[0]
        cluster.coordinator.on_event("dirty_lost", fragment.fragment_id)
        settle(cluster)
        updated = cluster.coordinator.current.fragment(fragment.fragment_id)
        assert updated.mode is FragmentMode.NORMAL
        assert updated.primary == fragment.secondary
        assert updated.cfg_id == cluster.coordinator.current.config_id

    def test_dirty_lost_outside_transient_ignored(self):
        cluster = build_cluster()
        before = cluster.coordinator.current.config_id
        cluster.coordinator.on_event("dirty_lost", 0)
        settle(cluster)
        assert cluster.coordinator.current.config_id == before


class TestSnapshot:
    def test_snapshot_restore_roundtrip(self):
        cluster = build_cluster()
        cluster.fail_instance("cache-0")
        settle(cluster)
        state = cluster.coordinator.snapshot_state()
        other = build_cluster().coordinator
        other.restore_state(state)
        assert other.current.config_id == cluster.coordinator.current.config_id
        assert other.alive_instances() == cluster.coordinator.alive_instances()
