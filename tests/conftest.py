"""Shared fixtures.

Most tests build tiny clusters; the helpers here keep them fast (small
key spaces, short simulated durations) while exercising the full stack.
"""

from __future__ import annotations

import random

import pytest

from repro.harness.cluster import ClusterSpec, GeminiCluster
from repro.harness.experiment import Experiment
from repro.recovery.policies import GEMINI_O_W, RecoveryPolicy
from repro.sim.core import Simulator
from repro.workload.ycsb import WORKLOAD_B, ClosedLoopThread, YcsbWorkload


def pytest_addoption(parser):
    parser.addoption(
        "--sanitize", action="store_true", default=False,
        help="run every sim-fixture test under the interleaving "
             "sanitizer (instrumentation smoke: hooks must not change "
             "kernel behaviour; findings are not asserted)")


@pytest.fixture
def sim(request):
    simulator = Simulator()
    if not request.config.getoption("--sanitize"):
        yield simulator
        return
    from repro.sim.sanitizer import SimSanitizer, active
    if active() is not None:
        # a test manages its own sanitizer; don't fight over the hook
        yield simulator
        return
    sanitizer = SimSanitizer(simulator)
    sanitizer.install()
    try:
        yield simulator
        sanitizer.finish()
    finally:
        sanitizer.uninstall()


@pytest.fixture
def rng() -> random.Random:
    return random.Random(7)


def build_cluster(policy: RecoveryPolicy = GEMINI_O_W, *,
                  num_instances: int = 3,
                  fragments_per_instance: int = 4,
                  num_clients: int = 1,
                  num_workers: int = 1,
                  seed: int = 11,
                  **overrides) -> GeminiCluster:
    """A small, fast, fully wired cluster."""
    spec = ClusterSpec(
        num_instances=num_instances,
        fragments_per_instance=fragments_per_instance,
        num_clients=num_clients,
        num_workers=num_workers,
        policy=policy,
        seed=seed,
        **overrides,
    )
    return GeminiCluster(spec)


def build_loaded_experiment(policy: RecoveryPolicy = GEMINI_O_W, *,
                            records: int = 400,
                            duration: float = 30.0,
                            threads: int = 4,
                            failures=(),
                            update_fraction: float = 0.05,
                            seed: int = 11,
                            **cluster_overrides):
    """Cluster + populated store + warm cache + closed-loop load."""
    cluster = build_cluster(policy, seed=seed, **cluster_overrides)
    spec = WORKLOAD_B.with_records(records).with_update_fraction(
        update_fraction)
    workload = YcsbWorkload(spec, cluster.rng.stream("load"))
    workload.populate(cluster.datastore)
    cluster.warm_cache(workload.keyspace.active_keys())
    experiment = Experiment(cluster, duration=duration, failures=list(failures))
    for index in range(threads):
        client = cluster.clients[index % len(cluster.clients)]
        experiment.add_load(ClosedLoopThread(
            cluster.sim, client, workload, name=f"thread-{index}"))
    return cluster, workload, experiment


@pytest.fixture
def small_cluster() -> GeminiCluster:
    return build_cluster()


class StubTransport:
    """Answers every RPC with the canned reply for its op, raising it at
    the caller when the reply is an exception; records ``(address, op)``
    per call."""

    def __init__(self, sim):
        self.sim = sim
        self.replies = {}
        self.calls = []

    def bound(self, name):
        return self

    def call(self, address, request, timeout=None):
        self.calls.append((address, request.op))
        reply = self.replies[request.op]
        if isinstance(reply, BaseException):
            return self.sim.event().fail(reply)
        return self.sim.timeout(0.0, reply)

    def addresses(self, op):
        """Where each call of ``op`` went, in order."""
        return [address for address, name in self.calls if name == op]
