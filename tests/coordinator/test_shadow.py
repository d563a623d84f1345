"""Unit tests for shadow coordinator failover."""

import pytest

from repro.coordinator.shadow import CoordinatorEnsemble
from repro.errors import CoordinatorError
from repro.types import FragmentMode
from tests.conftest import build_cluster


def make_ensemble(num_shadows=1):
    cluster = build_cluster(num_shadow_coordinators=num_shadows)
    return cluster, cluster.ensemble


class TestPromotion:
    def test_promoted_shadow_has_replicated_state(self):
        cluster, ensemble = make_ensemble()
        cluster.fail_instance("cache-0")
        cluster.sim.run(until=1.0)
        old_id = ensemble.active.current.config_id
        promoted = ensemble.fail_master()
        assert ensemble.active is promoted
        assert promoted.current.config_id == old_id
        assert not promoted.is_alive("cache-0")

    def test_old_master_is_down(self):
        cluster, ensemble = make_ensemble()
        old = ensemble.active
        ensemble.fail_master()
        assert not old.up

    def test_promotion_without_shadow_rejected(self):
        cluster = build_cluster()
        ensemble = CoordinatorEnsemble(
            cluster.sim, cluster.network, cluster.coordinator,
            num_shadows=0)
        with pytest.raises(CoordinatorError):
            ensemble.fail_master()

    def test_subscribers_transferred(self):
        cluster, ensemble = make_ensemble()
        promoted = ensemble.fail_master()
        # Clients subscribed to the old master must hear from the new one.
        client = cluster.clients[0]
        promoted.on_event("fail", "cache-0")
        cluster.sim.run(until=1.0)
        assert client.cache.config_id == promoted.current.config_id

    def test_new_master_continues_protocol(self):
        """A failure handled entirely by the promoted coordinator."""
        cluster, ensemble = make_ensemble()
        promoted = ensemble.fail_master()
        promoted.on_event("fail", "cache-1")
        cluster.sim.run(until=1.0)
        fragments = promoted.current.fragments_with_primary("cache-1")
        assert all(f.mode is FragmentMode.TRANSIENT for f in fragments)

    def test_chain_of_promotions(self):
        cluster, ensemble = make_ensemble(num_shadows=2)
        first = ensemble.fail_master()
        second = ensemble.fail_master()
        assert second is not first
        assert ensemble.promotions == 2
