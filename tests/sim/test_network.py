"""Unit tests for the network / RPC / service-station models."""

import random

import pytest

from repro.errors import (
    HostUnreachable,
    LeaseBackoff,
    RequestTimeout,
    SimulationError,
)
from repro.sim.network import LatencyModel, Network, RemoteNode, ServiceStation


class EchoNode(RemoteNode):
    """Returns its request; raises when the request is an exception."""

    def __init__(self, sim, address="echo", service=1e-3, servers=1):
        super().__init__(sim, address, servers=servers)
        self._service = service

    def service_time(self, request):
        return self._service

    def handle_request(self, request):
        if isinstance(request, Exception):
            raise request
        return request


class SlowHandlerNode(RemoteNode):
    """Handler is a generator consuming extra simulated time."""

    def handle_request(self, request):
        def handler():
            yield 0.5
            return ("slow", request)
        return handler()


def make_net(sim, jitter=0.0, base=1e-4):
    return Network(sim, LatencyModel(random.Random(1), base=base,
                                     jitter=jitter))


class TestLatencyModel:
    def test_zero_jitter_is_constant(self):
        model = LatencyModel(random.Random(0), base=2e-4, jitter=0.0)
        assert all(model.sample() == 2e-4 for __ in range(10))

    def test_jitter_bounded(self):
        model = LatencyModel(random.Random(0), base=1e-4, jitter=5e-5)
        for __ in range(100):
            sample = model.sample()
            assert 1e-4 <= sample <= 1.5e-4

    def test_negative_parameters_rejected(self):
        with pytest.raises(SimulationError):
            LatencyModel(random.Random(0), base=-1)


class TestServiceStation:
    def test_single_server_serializes(self, sim):
        station = ServiceStation(sim, servers=1)
        finish_times = []
        for __ in range(3):
            station.submit(1.0, lambda ok: finish_times.append(sim.now))
        sim.run()
        assert finish_times == [1.0, 2.0, 3.0]

    def test_parallel_servers(self, sim):
        station = ServiceStation(sim, servers=3)
        finish_times = []
        for __ in range(3):
            station.submit(1.0, lambda ok: finish_times.append(sim.now))
        sim.run()
        assert finish_times == [1.0, 1.0, 1.0]

    def test_queue_length_visible(self, sim):
        station = ServiceStation(sim, servers=1)
        for __ in range(5):
            station.submit(1.0, lambda ok: None)
        assert station.queue_length == 4
        assert station.busy_servers == 1

    def test_wait_time_accumulates_under_load(self, sim):
        station = ServiceStation(sim, servers=1)
        for __ in range(4):
            station.submit(1.0, lambda ok: None)
        sim.run()
        assert station.served == 4
        assert station.total_wait == pytest.approx(0 + 1 + 2 + 3)

    def test_drain_fails_queued_requests(self, sim):
        station = ServiceStation(sim, servers=1)
        outcomes = []
        station.submit(1.0, lambda ok, tag: outcomes.append((tag, ok, sim.now)),
                       "in-service")
        station.submit(1.0, lambda ok, tag: outcomes.append((tag, ok, sim.now)),
                       "queued")
        station.drain()
        assert outcomes == []  # a drained request's callback is a step
        sim.run()
        assert outcomes == [("queued", False, 0.0), ("in-service", True, 1.0)]
        assert station.queue_length == 0

    def test_invalid_parameters(self, sim):
        with pytest.raises(SimulationError):
            ServiceStation(sim, servers=0)
        station = ServiceStation(sim)
        with pytest.raises(SimulationError):
            station.submit(-1.0, lambda ok: None)


class TestRpc:
    def test_roundtrip_returns_response(self, sim):
        net = make_net(sim)
        net.register(EchoNode(sim))
        result = sim.run_until(self._call(sim, net, "echo", "hello"))
        assert result == "hello"

    def _call(self, sim, net, address, request, **kw):
        def proc():
            response = yield net.call(address, request, **kw)
            return response
        return sim.process(proc())

    def test_rpc_takes_latency_plus_service(self, sim):
        net = make_net(sim, base=1e-3)
        net.register(EchoNode(sim, service=5e-3))
        process = self._call(sim, net, "echo", "x")
        sim.run_until(process)
        assert sim.now == pytest.approx(1e-3 + 5e-3 + 1e-3)

    def test_unknown_address_unreachable(self, sim):
        net = make_net(sim)
        process = self._call(sim, net, "ghost", "x")
        sim.run()
        assert not process.ok
        with pytest.raises(HostUnreachable):
            __ = process.value

    def test_down_node_unreachable_after_delay(self, sim):
        net = make_net(sim)
        node = EchoNode(sim)
        net.register(node)
        node.fail()
        process = self._call(sim, net, "echo", "x")
        sim.run()
        assert not process.ok
        assert sim.now >= net.unreachable_delay

    def test_default_unreachable_delay_is_shared_constant(self, sim):
        # Regression: sim and live runtimes must agree on RPC deadlines.
        # The fallback comes from repro.config.defaults, not a literal
        # buried in sim/network.py — and its value is pinned because
        # chaos fingerprints are only comparable across runs sharing it.
        from repro.config.defaults import DEFAULT_RPC_UNREACHABLE_DELAY
        net = make_net(sim)
        assert Network.DEFAULT_UNREACHABLE_DELAY is DEFAULT_RPC_UNREACHABLE_DELAY
        assert net.unreachable_delay == DEFAULT_RPC_UNREACHABLE_DELAY == 0.05
        assert make_net(sim).unreachable_delay == net.unreachable_delay

    def test_heartbeat_timeout_default_is_shared_constant(self, sim):
        from repro.config.defaults import (DEFAULT_HEARTBEAT_TIMEOUT,
                                           DEFAULT_RPC_UNREACHABLE_DELAY)
        from repro.coordinator.membership import HeartbeatMonitor

        class _Coord:
            address = "coordinator"

        net = make_net(sim)
        monitor = HeartbeatMonitor(sim, net, _Coord(), instances=[])
        assert monitor.rpc_timeout == DEFAULT_HEARTBEAT_TIMEOUT
        assert DEFAULT_HEARTBEAT_TIMEOUT > DEFAULT_RPC_UNREACHABLE_DELAY

    def test_node_dying_mid_service_fails_call(self, sim):
        net = make_net(sim)
        node = EchoNode(sim, service=5.0)
        net.register(node)
        process = self._call(sim, net, "echo", "x")
        sim.schedule(1.0, node.fail)
        sim.run()
        assert not process.ok

    def test_recovered_node_serves_again(self, sim):
        net = make_net(sim)
        node = EchoNode(sim)
        net.register(node)
        node.fail()
        node.recover()
        process = self._call(sim, net, "echo", "back")
        sim.run()
        assert process.value == "back"

    def test_application_error_propagates(self, sim):
        net = make_net(sim)
        net.register(EchoNode(sim))
        process = self._call(sim, net, "echo", LeaseBackoff("k"))
        sim.run()
        with pytest.raises(LeaseBackoff):
            __ = process.value

    def test_generator_handler_consumes_time(self, sim):
        net = make_net(sim, base=0.0)
        net.register(SlowHandlerNode(sim, "slow"))
        process = self._call(sim, net, "slow", 1)
        sim.run()
        assert process.value == ("slow", 1)
        assert sim.now >= 0.5

    def test_timeout_fires(self, sim):
        net = make_net(sim)
        net.register(EchoNode(sim, service=10.0))
        process = self._call(sim, net, "echo", "x", timeout=0.5)
        sim.run()
        with pytest.raises(RequestTimeout):
            __ = process.value

    def test_timeout_not_hit_when_fast(self, sim):
        net = make_net(sim)
        net.register(EchoNode(sim, service=1e-3))
        process = self._call(sim, net, "echo", "y", timeout=5.0)
        sim.run()
        assert process.value == "y"

    def test_duplicate_registration_rejected(self, sim):
        net = make_net(sim)
        net.register(EchoNode(sim))
        with pytest.raises(SimulationError):
            net.register(EchoNode(sim))

    def test_register_attaches_a_station(self, sim):
        node = EchoNode(sim, servers=3)
        assert node.station is None
        node.fail()  # an unattached node has no queue to drain
        node.recover()
        make_net(sim).register(node)
        assert node.station is not None
        assert node.station.servers == 3

    def test_message_counter(self, sim):
        net = make_net(sim)
        net.register(EchoNode(sim))
        for __ in range(3):
            self._call(sim, net, "echo", "x")
        sim.run()
        assert net.messages_sent == 3

    def test_queueing_under_concurrency(self, sim):
        """With one server, concurrent RPCs serialize: total time grows."""
        net = make_net(sim, base=0.0)
        net.register(EchoNode(sim, service=1.0, servers=1))
        processes = [self._call(sim, net, "echo", i) for i in range(3)]
        sim.run()
        assert all(p.ok for p in processes)
        assert sim.now == pytest.approx(3.0)


class CountingNode(EchoNode):
    """Echo node that counts how many requests actually executed."""

    def __init__(self, sim, address="counted", service=1e-3):
        super().__init__(sim, address, service=service)
        self.handled = 0

    def handle_request(self, request):
        self.handled += 1
        return super().handle_request(request)


class TestLinkFaults:
    """Partitions, asymmetric drops, and delay spikes (chaos engine)."""

    def _call(self, sim, net, address, request, source=None, **kw):
        caller = net.bound(source) if source is not None else net

        def proc():
            return (yield caller.call(address, request, **kw))
        return sim.process(proc())

    def test_partition_cuts_both_directions(self, sim):
        net = make_net(sim)
        node = CountingNode(sim)
        net.register(node)
        net.partition("client-a", "counted")
        process = self._call(sim, net, "counted", "x", source="client-a")
        sim.run()
        assert not process.ok
        with pytest.raises(HostUnreachable):
            __ = process.value
        assert node.handled == 0
        assert net.messages_dropped == 1

    def test_partition_spares_other_sources(self, sim):
        net = make_net(sim)
        net.register(CountingNode(sim))
        net.partition("client-a", "counted")
        process = self._call(sim, net, "counted", "x", source="client-b")
        sim.run()
        assert process.value == "x"

    def test_heal_restores_traffic(self, sim):
        net = make_net(sim)
        net.register(CountingNode(sim))
        net.partition("client-a", "counted")
        net.heal("client-a", "counted")
        process = self._call(sim, net, "counted", "x", source="client-a")
        sim.run()
        assert process.value == "x"

    def test_asymmetric_drop_executes_but_loses_response(self, sim):
        """The defining property of a one-way partition: the request is
        delivered and executed; only the caller never learns."""
        net = make_net(sim)
        node = CountingNode(sim)
        net.register(node)
        net.drop_link("counted", "client-a")  # response direction only
        process = self._call(sim, net, "counted", "x", source="client-a")
        sim.run()
        assert node.handled == 1
        assert not process.ok
        with pytest.raises(HostUnreachable):
            __ = process.value

    def test_request_direction_drop_never_executes(self, sim):
        net = make_net(sim)
        node = CountingNode(sim)
        net.register(node)
        net.drop_link("client-a", "counted")
        process = self._call(sim, net, "counted", "x", source="client-a")
        sim.run()
        assert node.handled == 0
        assert not process.ok

    def test_wildcard_matches_anonymous_callers(self, sim):
        net = make_net(sim)
        net.register(CountingNode(sim))
        net.drop_link("*", "counted")
        anonymous = self._call(sim, net, "counted", "x")
        named = self._call(sim, net, "counted", "x", source="someone")
        sim.run()
        assert not anonymous.ok and not named.ok

    def test_named_rule_skips_anonymous_callers(self, sim):
        net = make_net(sim)
        net.register(CountingNode(sim))
        net.drop_link("client-a", "counted")
        process = self._call(sim, net, "counted", "x")
        sim.run()
        assert process.value == "x"

    def test_delay_spike_adds_latency(self, sim):
        net = make_net(sim, base=1e-3)
        net.register(EchoNode(sim, service=5e-3))
        baseline = self._call(sim, net, "echo", "x", source="client-a")
        sim.run()
        unperturbed = sim.now
        net.delay_link("client-a", "echo", 0.25)
        delayed = self._call(sim, net, "echo", "x", source="client-a")
        sim.run()
        assert baseline.ok and delayed.ok
        assert sim.now == pytest.approx(unperturbed * 2 + 0.25)

    def test_delay_applies_per_direction(self, sim):
        net = make_net(sim, base=1e-3)
        net.register(EchoNode(sim, service=5e-3))
        net.delay_link("client-a", "echo", 0.1)
        net.delay_link("echo", "client-a", 0.2)
        process = self._call(sim, net, "echo", "x", source="client-a")
        sim.run()
        assert process.ok
        assert sim.now == pytest.approx(1e-3 + 5e-3 + 1e-3 + 0.1 + 0.2)

    def test_negative_delay_rejected(self, sim):
        net = make_net(sim)
        with pytest.raises(SimulationError):
            net.delay_link("a", "b", -0.1)

    def test_heal_all_clears_every_rule(self, sim):
        net = make_net(sim)
        net.register(CountingNode(sim))
        net.drop_link("client-a", "counted")
        net.delay_link("client-b", "counted", 0.5)
        net.heal_all()
        process = self._call(sim, net, "counted", "x", source="client-a")
        sim.run()
        assert process.value == "x"
        assert not net.link_dropped("client-a", "counted")
        assert net.link_delay("client-b", "counted") == 0.0

    def test_bound_handle_delegates_everything_else(self, sim):
        net = make_net(sim)
        handle = net.bound("me")
        assert handle.source == "me"
        assert handle.sim is sim
        rebound = handle.bound("other")
        assert rebound.source == "other"
        node = EchoNode(sim)
        handle.register(node)
        assert net.node("echo") is node
