"""``LiveCoordinator.op_wst_report``: the live path for client
working-set-transfer counters.

Live clients run in other processes, so each pushes its running
(hits, misses) per (primary, episode) to the coordinator, and the
coordinator's WST feedback sums the latest report of every reporter.
The RPCs here travel the deterministic sim network, so no node process
is started.
"""

from __future__ import annotations

import random

import pytest

from repro.coordinator.coordinator import CoordinatorOp
from repro.live.node import LiveCoordinator
from repro.recovery.policies import GEMINI_O_W
from repro.sim.core import Simulator
from repro.sim.network import LatencyModel, Network


@pytest.fixture
def live():
    sim = Simulator()
    network = Network(sim, LatencyModel(random.Random(0), jitter=0.0))
    coordinator = LiveCoordinator(sim, network, ["cache-0", "cache-1"], 4,
                                  GEMINI_O_W)
    network.register(coordinator)
    return sim, network, coordinator


def report(live, reporter, episode, hits, misses, primary="cache-0"):
    sim, network, __ = live

    def send():
        yield network.call("coordinator", CoordinatorOp(
            op="wst_report", address=primary,
            payload={"reporter": reporter, "episode": episode,
                     "hits": hits, "misses": misses}))

    sim.run_until(sim.process(send()))


class TestWstReportAggregation:
    def test_a_later_report_replaces_the_earlier_one(self, live):
        report(live, "client-0", 7, hits=3, misses=1)
        report(live, "client-0", 7, hits=5, misses=4)
        assert live[2]._wst_feedback("cache-0", 7) == {"hits": 5,
                                                       "misses": 4}

    def test_reporters_are_summed(self, live):
        report(live, "client-0", 7, hits=3, misses=1)
        report(live, "client-1", 7, hits=10, misses=2)
        assert live[2]._wst_feedback("cache-0", 7) == {"hits": 13,
                                                       "misses": 3}

    def test_other_episodes_and_primaries_never_leak_in(self, live):
        report(live, "client-0", 7, hits=3, misses=1)
        report(live, "client-0", 9, hits=100, misses=100)
        report(live, "client-0", 7, hits=50, misses=50, primary="cache-1")
        assert live[2]._wst_feedback("cache-0", 7) == {"hits": 3,
                                                       "misses": 1}
        assert live[2]._wst_feedback("cache-0", 9) == {"hits": 100,
                                                       "misses": 100}
        assert live[2]._wst_feedback("cache-0", 8) == {"hits": 0,
                                                       "misses": 0}
