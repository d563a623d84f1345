"""The kernel's fused zero-delay steps change no callback order.

A step may run the next zero-delay callback itself only when nothing
else is queued at that instant (docs/DETERMINISM.md, "Kernel hot
path"). These tests pin the cases around that rule: sliced runs,
late callbacks, a settle or a service completion with other work
queued ahead, and an interrupt racing an RPC reply.
"""

import random

import pytest

from repro.errors import Interrupt
from repro.sim.core import Simulator
from repro.sim.network import LatencyModel, Network, RemoteNode, ServiceStation


class Echo(RemoteNode):
    def __init__(self, sim, address, service):
        super().__init__(sim, address, servers=2)
        self._service = service

    def service_time(self, request):
        return self._service

    def handle_request(self, request):
        return request


def _cluster(sim, base=1e-4, jitter=5e-5, service=3e-4):
    net = Network(sim, LatencyModel(random.Random(3), base=base,
                                    jitter=jitter))
    for index in range(2):
        net.register(Echo(sim, f"n{index}", service))
    return net


def _traffic(sim, net, log):
    """Three clients issuing overlapping RPCs and sleeps for 3 s."""
    def client(name, rng):
        seq = 0
        while sim.now < 3.0:
            seq += 1
            reply = yield net.call(f"n{rng.randrange(2)}", (name, seq))
            log.append((sim.now, name, reply))
            if rng.random() < 0.3:
                yield rng.random() * 1e-3
    for index in range(3):
        sim.process(client(f"c{index}", random.Random(index)))


def _orders(slices):
    sim = Simulator()
    net = _cluster(sim)
    log = []
    _traffic(sim, net, log)
    if slices:
        for second in range(1, 5):
            sim.run(until=float(second))
    else:
        sim.run()
    return log, sim.counters.steps


def test_sliced_run_matches_one_run():
    whole, whole_steps = _orders(slices=False)
    sliced, sliced_steps = _orders(slices=True)
    assert len(whole) > 1_000
    assert sliced == whole
    assert sliced_steps == whole_steps


def test_add_callback_after_dispatch_runs_on_next_step():
    sim = Simulator()
    event = sim.event()
    log = []
    event.succeed("v")
    sim.run()
    steps = sim.counters.steps
    sim.schedule(0.0, lambda: log.append("queued-first"))
    event.add_callback(lambda e: log.append(("late", e.value)))
    assert log == []  # not run inline by add_callback
    sim.run()
    assert log == ["queued-first", ("late", "v")]
    assert sim.counters.steps == steps + 2


def test_settle_with_nothing_queued_dispatches_inline():
    sim = Simulator()
    net = _cluster(sim, jitter=0.0)
    log = []
    done = net.call("n0", "ping")
    done.add_callback(lambda e: log.append((sim.now, e.value)))
    sim.run()
    assert log == [(pytest.approx(2e-4 + 3e-4), "ping")]
    # arrive, finish (+ fused serve), settle (+ fused dispatch): five
    # steps as before, three of them real; one Event for the RPC.
    assert sim.counters.steps == 5
    assert sim.counters.events_created == 1


def test_settle_never_jumps_a_queued_entry():
    sim = Simulator()
    net = _cluster(sim)
    log = []
    done = sim.event()
    done.add_callback(lambda e: log.append("dispatch"))
    # Both at the current instant: the settle first, then another entry.
    sim.schedule(0.0, net._settle, done, "v", None)
    sim.schedule(0.0, lambda: log.append("other"))
    sim.run()
    assert log == ["other", "dispatch"]
    assert sim.counters.steps == 3


@pytest.mark.parametrize("queued_ahead", [False, True])
def test_run_next_orders_like_a_queued_step(queued_ahead):
    # The callback follows the current step whether it runs inline or
    # from the queue: what ``first`` puts in the now-queue comes after
    # it, and what ``first`` puts on the heap comes before its own.
    sim = Simulator()
    log = []

    def first():
        sim.schedule(1.0, log.append, "first-later")
        sim.schedule(0.0, log.append, "first-now")

    def callback():
        log.append("callback")
        sim.schedule(1.0, log.append, "callback-later")

    sim.schedule(0.0, lambda: sim.run_next(callback, (), first))
    if queued_ahead:
        sim.schedule(0.0, log.append, "other")
    sim.run()
    assert log == (["other"] if queued_ahead else []) + [
        "callback", "first-now", "first-later", "callback-later"]
    assert sim.counters.steps == 5 + queued_ahead


def test_station_completion_never_jumps_a_queued_entry():
    sim = Simulator()
    station = ServiceStation(sim, servers=1)
    log = []
    station.submit(0.0, lambda ok: log.append(("a", ok)))
    sim.schedule(0.0, lambda: log.append("other"))
    sim.run()
    assert log == ["other", ("a", True)]
    assert sim.counters.steps == 3


def test_station_completion_runs_before_next_zero_time_finish():
    sim = Simulator()
    station = ServiceStation(sim, servers=1)
    log = []
    for name in ("a", "b"):
        station.submit(0.0, lambda ok, n=name: log.append((n, sim.now)))
    sim.run()
    assert log == [("a", 0.0), ("b", 0.0)]
    assert station.served == 2
    # Each request: its _finish plus its callback, fused or not.
    assert sim.counters.steps == 4


def test_interrupt_while_waiting_on_rpc_wins():
    sim = Simulator()
    net = _cluster(sim, jitter=0.0, service=1e-3)
    log = []

    def caller():
        try:
            reply = yield net.call("n0", "slow")
            log.append(("reply", reply))
        except Interrupt as interrupt:
            log.append(("interrupted", interrupt.cause, sim.now))
        yield 0.01
        log.append(("after", sim.now))

    proc = sim.process(caller())

    def interrupter():
        yield 5e-4  # the reply settles at 1.2e-3
        proc.interrupt("stop")

    sim.process(interrupter())
    sim.run()
    assert log == [("interrupted", "stop", 5e-4),
                   ("after", pytest.approx(5e-4 + 0.01))]
    assert proc.ok
