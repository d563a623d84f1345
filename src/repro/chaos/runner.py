"""Trial runner: one :class:`TrialSpec` -> one checked simulated run.

A trial assembles a cluster whose every knob comes from the spec, drives
paced closed-loop YCSB load, arms the nemesis schedule (crashes via the
:class:`~repro.sim.failures.FailureInjector`, link faults via the
:class:`~repro.sim.network.Network`, failover via the coordinator
ensemble), and runs the whole protocol-invariant registry over the
structured event stream. Everything is a pure function of the spec:
running the same spec twice yields the same :meth:`TrialResult.fingerprint`
byte-for-byte, which is what makes replay files and shrinking work.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from typing import Any, Generator, List, Optional

from repro.chaos.nemesis import LINK_KINDS, NemesisAction, TrialSpec
from repro.client.client import GeminiClient
from repro.harness.cluster import ClusterSpec, GeminiCluster
from repro.harness.experiment import Experiment
from repro.recovery.policies import policy_by_name
from repro.sim.core import Process, Simulator
from repro.sim.failures import FailureSchedule
from repro.verify.invariants import Violation
from repro.workload.ycsb import WORKLOAD_B, YcsbWorkload

__all__ = ["TrialResult", "PacedThread", "build_trial", "run_trial"]

#: Nemesis kinds executed through the failure injector.
CRASH_KINDS = ("crash", "flap")


@dataclass
class TrialResult:
    """Outcome of one chaos trial."""

    spec: TrialSpec
    violations: List[Violation]
    ops_issued: int
    op_errors: int
    events_emitted: int
    messages_dropped: int
    final_config_id: int
    stale_reads: int
    reads_checked: int

    @property
    def ok(self) -> bool:
        return not self.violations

    def fingerprint(self) -> str:
        """Digest of everything observable; equal runs hash equal."""
        blob = "|".join([
            self.spec.to_json(),
            str(self.ops_issued), str(self.op_errors),
            str(self.events_emitted), str(self.messages_dropped),
            str(self.final_config_id), str(self.stale_reads),
            str(self.reads_checked),
            ";".join(str(v) for v in self.violations),
        ])
        return hashlib.sha256(blob.encode()).hexdigest()[:16]

    def summary(self) -> str:
        status = ("OK" if self.ok
                  else f"VIOLATED ({len(self.violations)})")
        return (f"seed={self.spec.seed} {status} policy={self.spec.policy} "
                f"actions={len(self.spec.actions)} ops={self.ops_issued} "
                f"errors={self.op_errors} events={self.events_emitted} "
                f"dropped={self.messages_dropped} "
                f"cfg={self.final_config_id} "
                f"fingerprint={self.fingerprint()}")


class PacedThread:
    """Closed-loop load with think time between sessions.

    The stock :class:`~repro.workload.ycsb.ClosedLoopThread` saturates the
    simulated cluster (its point is throughput measurement); a chaos sweep
    wants hundreds of trials, so each thread here sleeps a few simulated
    milliseconds between sessions, trading op volume for wall-clock speed
    while still spanning every outage window with live traffic.
    """

    def __init__(self, sim: Simulator, client: GeminiClient,
                 workload: YcsbWorkload, record_size: int,
                 rng: random.Random, think: float = 0.004,
                 name: str = "chaos-load") -> None:
        self.sim = sim
        self.client = client
        self.workload = workload
        self.record_size = record_size
        self.rng = rng
        self.think = think
        self.name = name
        self.ops_issued = 0
        self.errors = 0
        self._process: Optional[Process] = None

    def start(self) -> Process:
        self._process = self.sim.process(self._run(), name=self.name)
        return self._process

    def _run(self) -> Generator[Any, Any, None]:
        while True:
            op, key = self.workload.next_op()
            try:
                if op == "read":
                    yield from self.client.read(key)
                else:
                    yield from self.client.write(key, size=self.record_size)
            except Exception:  # noqa: BLE001 - sessions may die under chaos
                self.errors += 1
            self.ops_issued += 1
            yield self.think * (0.5 + self.rng.random())


# ----------------------------------------------------------------------
def _arm_link_fault(cluster: GeminiCluster, action: NemesisAction) -> None:
    """Schedule a partition / asymmetric drop / delay spike and its heal."""
    sim, network = cluster.sim, cluster.network
    if action.kind == "partition":
        sim.schedule_at(action.at, network.partition,
                        action.target, action.target2)
        sim.schedule_at(action.ends_at, network.heal,
                        action.target, action.target2)
    elif action.kind == "drop":
        sim.schedule_at(action.at, network.drop_link,
                        action.target, action.target2)
        sim.schedule_at(action.ends_at, network.heal_link,
                        action.target, action.target2)
    elif action.kind == "delay":
        sim.schedule_at(action.at, network.delay_link,
                        action.target, action.target2, action.extra)
        sim.schedule_at(action.ends_at, network.heal_link,
                        action.target, action.target2)


def _promote_master(cluster: GeminiCluster) -> None:
    """Coordinator failover: kill the master, promote the first shadow.

    Mirrors what the ZooKeeper lookup does in a real deployment: clients
    and workers re-resolve the active coordinator, the injector's
    notifications re-subscribe, and the promoted master starts its own
    monitor.
    """
    if cluster.ensemble is None or not cluster.ensemble.shadows:
        return
    promoted = cluster.ensemble.fail_master()
    for client in cluster.clients:
        client.coordinator_address = promoted.address
    for worker in cluster.workers:
        worker.coordinator_address = promoted.address
    cluster.injector.subscribe(promoted.on_event)
    promoted.start_monitor()


def _arm_actions(cluster: GeminiCluster, spec: TrialSpec,
                 experiment: Experiment) -> None:
    for action in spec.actions:
        if action.kind in CRASH_KINDS:
            experiment.failures.append(FailureSchedule(
                at=action.at, duration=action.duration,
                targets=(action.target,), emulated=action.emulated))
        elif action.kind in LINK_KINDS:
            _arm_link_fault(cluster, action)
        elif action.kind == "failover":
            cluster.sim.schedule_at(action.at, _promote_master, cluster)
        else:
            raise ValueError(f"unknown nemesis action kind {action.kind!r}")


def build_trial(spec: TrialSpec):
    """Assemble (cluster, experiment, registry, load threads) for a spec."""
    cluster_spec = ClusterSpec(
        num_instances=spec.num_instances,
        fragments_per_instance=spec.fragments_per_instance,
        num_clients=spec.num_clients,
        num_workers=spec.num_workers,
        policy=policy_by_name(spec.policy),
        seed=spec.seed,
        cache_db_ratio=spec.cache_db_ratio,
        num_shadow_coordinators=spec.num_shadows,
    )
    cluster = GeminiCluster(cluster_spec)
    registry = cluster.install_invariants()

    workload_spec = (WORKLOAD_B
                     .with_records(spec.records, spec.record_size)
                     .with_update_fraction(spec.update_fraction))
    workload = YcsbWorkload(workload_spec, cluster.rng.stream("chaos-load"))
    workload.populate(cluster.datastore)
    cluster.size_memory_for(spec.records * (spec.record_size + 100))
    cluster.warm_cache(workload.keyspace.active_keys())

    experiment = Experiment(cluster, duration=spec.duration)
    threads = []
    for index in range(spec.threads):
        client = cluster.clients[index % len(cluster.clients)]
        thread = PacedThread(
            cluster.sim, client, workload, spec.record_size,
            rng=cluster.rng.stream(f"chaos-think-{index}"),
            name=f"chaos-load-{index}")
        experiment.add_load(thread)
        threads.append(thread)
    _arm_actions(cluster, spec, experiment)
    return cluster, experiment, registry, threads


def run_trial(spec: TrialSpec,
              mutant: Optional[str] = None,
              sanitize: bool = False,
              trace: bool = False) -> TrialResult:
    """Run one trial; optionally under a re-broken protocol variant.

    With ``sanitize`` the interleaving sanitizer rides along: its
    findings are emitted into the verify event stream (so replay tooling
    sees the offending interleavings next to the protocol events) and
    appended to ``violations``, which folds them into the exit status
    and the fingerprint. The sanitizer is passive, so a clean sanitized
    run fingerprints identically to an unsanitized one.

    With ``trace`` a GeminiTrace tracer rides along the same way: trace
    well-formedness (every span closed, parented, sim-time-monotone,
    config-id-consistent — see :mod:`repro.obs.wellformed`) becomes a
    protocol invariant, reported as ``trace:*`` violations. The tracer
    is passive too, so tracing must never change the fingerprint of a
    clean run — that equality is itself asserted in CI.
    """
    from repro.chaos.mutants import apply_mutant
    from repro.obs.trace import Tracer
    from repro.obs.wellformed import check_trace
    from repro.sim.sanitizer import SimSanitizer

    with apply_mutant(mutant):
        cluster, experiment, registry, threads = build_trial(spec)
        sanitizer = None
        if sanitize:
            sanitizer = SimSanitizer(cluster.sim)
            sanitizer.install()
        tracer = None
        if trace:
            tracer = Tracer(cluster.sim)
            tracer.install()
        try:
            experiment.run()
            violations = list(registry.finish())
            if sanitizer is not None:
                for finding in sanitizer.finish():
                    cluster.events.emit(
                        "sanitizer_finding", finding=finding.kind,
                        actor=finding.actor, at=finding.time,
                        message=finding.message)
                    violations.append(Violation(
                        invariant=f"sanitizer:{finding.kind}",
                        time=finding.time,
                        message=f"{finding.actor}: {finding.message}"))
            if tracer is not None:
                spans = tracer.finish()
                for problem in check_trace(spans, dropped=tracer.dropped):
                    violations.append(Violation(
                        invariant=f"trace:{problem.kind}",
                        time=cluster.sim.now,
                        message=problem.describe()))
        finally:
            if tracer is not None:
                tracer.uninstall()
            if sanitizer is not None:
                sanitizer.uninstall()
    oracle = cluster.oracle
    return TrialResult(
        spec=spec,
        violations=list(violations),
        ops_issued=sum(t.ops_issued for t in threads),
        op_errors=sum(t.errors for t in threads),
        events_emitted=cluster.events.emitted,
        messages_dropped=cluster.network.messages_dropped,
        final_config_id=(cluster.ensemble.active if cluster.ensemble
                         else cluster.coordinator).current.config_id,
        stale_reads=oracle.stale_reads,
        reads_checked=oracle.reads_checked,
    )
