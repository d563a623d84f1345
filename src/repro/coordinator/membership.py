"""Heartbeat-based failure detection.

The paper's evaluation *emulates* failures through the coordinator, but
the protocol itself must also survive real crashes. The monitor pings
every instance on a fixed period; ``misses_to_fail`` consecutive missed
heartbeats declare the instance failed (the coordinator is notified and
runs the transient-mode transition); the first successful ping of a
declared-failed instance declares recovery.
"""

from __future__ import annotations

from typing import Dict, List

from repro.cache.instance import CacheOp
from repro.config.defaults import DEFAULT_HEARTBEAT_TIMEOUT
from repro.errors import NetworkError, ReproError
from repro.runtime import Kernel, Transport
from repro.sim.core import SimGenerator

__all__ = ["HeartbeatMonitor"]


class HeartbeatMonitor:
    """Pings instances and reports liveness flips to the coordinator."""

    def __init__(self, sim: Kernel, network: Transport, coordinator,
                 instances: List[str], interval: float = 0.5,
                 misses_to_fail: int = 2,
                 rpc_timeout: float = DEFAULT_HEARTBEAT_TIMEOUT) -> None:
        self.sim = sim
        # The monitor is coordinator-colocated: a coordinator<->instance
        # partition makes it (correctly) perceive the instance as failed.
        self.network = network.bound(coordinator.address)
        self.coordinator = coordinator
        self.instances = list(instances)
        self.interval = interval
        self.misses_to_fail = misses_to_fail
        self.rpc_timeout = rpc_timeout
        self._misses: Dict[str, int] = {a: 0 for a in instances}
        self._declared_down: Dict[str, bool] = {a: False for a in instances}
        self._running = False

    def start(self) -> None:
        if self._running:
            return
        self._running = True
        for address in self.instances:
            self.sim.process(self._watch(address), name=f"heartbeat:{address}")

    def _watch(self, address: str) -> SimGenerator:
        while True:
            yield self.interval
            alive = yield from self._ping(address)
            if alive:
                self._misses[address] = 0
                if self._declared_down[address]:
                    self._declared_down[address] = False
                    self.coordinator.on_event("recover", address)
            else:
                self._misses[address] += 1
                if (self._misses[address] >= self.misses_to_fail
                        and not self._declared_down[address]):
                    self._declared_down[address] = True
                    self.coordinator.on_event("fail", address)

    def _ping(self, address: str) -> SimGenerator:
        try:
            response = yield self.network.call(
                address, CacheOp(op="ping"), timeout=self.rpc_timeout)
        except (NetworkError, ReproError):
            return False
        return response == "pong"
