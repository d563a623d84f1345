"""WstTracker episode namespacing (Section 3.2.2 m-threshold inputs).

Back-to-back outages of the same primary used to share one counter pot:
the coordinator's termination monitor, differencing cumulative counts,
consumed hits/misses left over from the *previous* outage. Counts are
now keyed by (primary, episode) so each outage starts from zero.
"""

from repro.client.working_set import WstTracker
from repro.recovery.policies import GEMINI_O_W
from repro.types import FragmentMode
from tests.conftest import build_cluster


def settle(cluster, for_seconds=1.0):
    cluster.sim.run(until=cluster.sim.now + for_seconds)


class TestEpisodeNamespacing:
    def test_counts_do_not_leak_across_episodes(self):
        tracker = WstTracker()
        tracker.observe("cache-0", 2, False)
        tracker.observe("cache-0", 2, False)
        tracker.observe("cache-0", 5, True)
        assert tracker.counts("cache-0", 2) == {"hits": 0, "misses": 2}
        assert tracker.counts("cache-0", 5) == {"hits": 1, "misses": 0}
        assert tracker.counts("cache-0", 9) == {"hits": 0, "misses": 0}

    def test_totals_sum_every_episode(self):
        tracker = WstTracker()
        tracker.observe("cache-0", 2, False)
        tracker.observe("cache-0", 5, True)
        tracker.observe("cache-1", 5, True)
        assert tracker.totals("cache-0") == {"hits": 1, "misses": 1}
        assert tracker.episodes("cache-0") == [2, 5]

    def test_merged_is_per_episode(self):
        ours, theirs = WstTracker(), WstTracker()
        ours.observe("cache-0", 2, True)
        theirs.observe("cache-0", 2, False)
        theirs.observe("cache-0", 4, False)
        assert ours.merged([theirs], "cache-0", 2) \
            == {"hits": 1, "misses": 1}


class TestBackToBackOutages:
    def test_second_episode_starts_from_zero(self):
        """Two outages of the same primary: the second episode's
        feedback must not see the first episode's lookups."""
        cluster = build_cluster(GEMINI_O_W, num_workers=0)
        cluster.datastore.populate([f"user{i:010d}" for i in range(50)],
                                   size_of=lambda __: 100)
        cluster.start()
        coordinator = cluster.coordinator

        # Outage 1.
        cluster.fail_instance("cache-0")
        settle(cluster)
        cluster.recover_instance("cache-0")
        settle(cluster)
        recovering = [f for f in coordinator.current.fragments
                      if f.primary == "cache-0"
                      and f.mode is FragmentMode.RECOVERY]
        assert recovering, "expected recovery-mode fragments"
        first_episode = recovering[0].episode
        assert first_episode > 0
        # The first outage left secondary-lookup counts behind.
        client = cluster.clients[0]
        for __ in range(20):
            client.wst.observe("cache-0", first_episode, False)
        assert cluster._wst_feedback("cache-0", first_episode)[
            "misses"] == 20

        # Finish outage 1 completely (dirty lists processed, transfer
        # terminated — without this, the next failure is an arrow-5
        # resumption that correctly *keeps* the episode).
        for fragment in recovering:
            coordinator.on_event("dirty_done", fragment.fragment_id)
        settle(cluster)
        coordinator.on_event("wst_done", "cache-0")
        settle(cluster)
        assert all(f.mode is FragmentMode.NORMAL
                   for f in coordinator.current.fragments
                   if f.primary == "cache-0")
        cluster.fail_instance("cache-0")
        settle(cluster)
        cluster.recover_instance("cache-0")
        settle(cluster)
        recovering = [f for f in coordinator.current.fragments
                      if f.primary == "cache-0"
                      and f.mode is FragmentMode.RECOVERY]
        assert recovering, "expected recovery-mode fragments"
        second_episode = recovering[0].episode
        assert second_episode != first_episode

        # The m-threshold inputs for episode 2 start from zero: none of
        # episode 1's twenty misses are visible.
        assert cluster._wst_feedback("cache-0", second_episode) \
            == {"hits": 0, "misses": 0}
        # And the monitor's differencing baseline was re-armed, not
        # carried over from episode 1's final totals.
        assert coordinator._last_wst_counts["cache-0"] \
            == {"hits": 0, "misses": 0}

    def test_stale_counts_cannot_suppress_termination(self):
        """The monitor must terminate WST on the m threshold during the
        second outage even though the first outage accumulated a large
        hit count under the same primary (pre-fix: the stale baseline
        and shared pot yielded zero/negative deltas, so the decision
        window never saw the misses)."""
        cluster = build_cluster(GEMINI_O_W, num_workers=0)
        cluster.datastore.populate([f"user{i:010d}" for i in range(50)],
                                   size_of=lambda __: 100)
        cluster.start()
        coordinator = cluster.coordinator
        client = cluster.clients[0]

        # Outage 1: lots of secondary *hits* recorded, then terminated.
        cluster.fail_instance("cache-0")
        settle(cluster)
        cluster.recover_instance("cache-0")
        settle(cluster)
        fragments = [f for f in coordinator.current.fragments
                     if f.primary == "cache-0"
                     and f.mode is FragmentMode.RECOVERY]
        episode_1 = fragments[0].episode
        for __ in range(200):
            client.wst.observe("cache-0", episode_1, True)
        for fragment in fragments:
            coordinator.on_event("dirty_done", fragment.fragment_id)
        settle(cluster)
        coordinator.on_event("wst_done", "cache-0")
        settle(cluster)

        # Outage 2: pure misses. m-threshold must fire on its own.
        cluster.fail_instance("cache-0")
        settle(cluster)
        cluster.recover_instance("cache-0")
        settle(cluster)
        fragments = [f for f in coordinator.current.fragments
                     if f.primary == "cache-0"
                     and f.mode is FragmentMode.RECOVERY]
        assert any(f.wst_active for f in fragments)
        episode_2 = fragments[0].episode
        for __ in range(50):
            client.wst.observe("cache-0", episode_2, False)
        settle(cluster, 3 * cluster.coordinator.monitor_interval)
        fragments = [f for f in coordinator.current.fragments
                     if f.primary == "cache-0"]
        assert not any(f.wst_active for f in fragments)
