"""The sim workload: Figure 7's single-failure timeline, Gemini-O+W.

5 instances x 20 fragments, 6,000 records of 1 KiB with the cache sized
to 60 % of the database (so eviction runs), 2 closed-loop
threads, 1 % updates, zipf 0.8, ``cache-0`` failing at t=10 s for an
emulated 10 s outage and 30 s of tail: 50 simulated seconds on the
deterministic kernel, in this process, with no sockets and no codec.

Latencies and phase times are simulated seconds and, like every count,
repeat exactly for a given seed; throughput, CPU and set-up time are
host measurements, the first two scaled to the reference speed of
``hostspeed``.
"""

from __future__ import annotations

import gc
import statistics
import time
from pathlib import Path
from typing import Any, Dict, List, NamedTuple

from repro.harness.scenarios import YcsbScenario, build_ycsb_experiment
from repro.recovery.policies import GEMINI_O_W
from repro.types import FragmentMode

import artifacts
from catalog import latency_metrics
from hostspeed import SpeedProbe
from optimer import OpTimer
from procstat import parse_vmhwm_kb
from stats import per_k, per_op
from tracing import Tracing
from tracing import install as tracing_install

#: Set-ups timed per run; ``setup_s`` is their median.
SETUPS = 15
VICTIM = "cache-0"
FAIL_AT = 10.0
#: The traced run runs [0, TRACE_FROM) untraced and [TRACE_FROM,
#: TRACE_COMPARE) traced, both before the failure, to price tracing.
TRACE_FROM = 5.0
TRACE_COMPARE = 10.0
CACHE_OPS = ("iqget", "iqset", "qareg", "dar")
#: Simulated seconds between two samples of the host's speed.
SPEED_EVERY = 1.0
#: Figure 7 sizes the cache to half the database; there the secondaries
#: evicted all of the victim's dirty lists during the outage on 2 of 5
#: seeds, so no fragment went through recovery at all. At 0.75 the 3,000
#: keys the workload touches all fit and nothing is evicted; at 0.6 a
#: run evicts 373-515 entries and still repairs 70-137 keys (20 seeds).
CACHE_DB_RATIO = 0.6


class Stage(NamedTuple):
    wall: float
    cpu: float
    ops: int
    steps: int


def scenario(seed: int) -> YcsbScenario:
    return YcsbScenario(policy=GEMINI_O_W, update_fraction=0.01, threads=2,
                        records=6_000, zipf_theta=0.8, fail_at=FAIL_AT,
                        outage=10.0, tail=30.0, seed=seed)


def build(seed: int) -> Any:
    """The warmed cluster and its experiment, cache resized."""
    setup = scenario(seed)
    cluster, workload, experiment = build_ycsb_experiment(setup)
    cluster.spec.cache_db_ratio = CACHE_DB_RATIO
    cluster.size_memory_for(setup.records * (setup.record_size + 100))
    cluster.warm_cache(workload.keyspace.active_keys())
    return cluster, experiment


def _install_tracing(cluster: Any) -> Tracing:
    tracing = tracing_install(cluster.sim, cluster.clients, cluster.network,
                              cluster.events, cluster.oracle,
                              cluster.recorder)
    for instance in cluster.instances.values():
        tracing.cache_handler_of(instance)
    return tracing


def _evictions(cluster: Any) -> int:
    return sum(i.stats.evictions for i in cluster.instances.values())


def run(seed: int, trace: bool, trace_path: Path) -> Dict[str, Any]:
    setup_times: List[float] = []
    setup_speed = SpeedProbe()
    for _index in range(SETUPS):
        gc.collect()  # not the previous set-up's garbage
        setup_speed.sample()
        started = time.perf_counter()
        cluster, experiment = build(seed)
        setup_times.append(time.perf_counter() - started)
        setup_speed.sample()
    sim = cluster.sim
    timer = OpTimer(lambda: sim.now)
    for client in cluster.clients:
        timer.attach(client)
    initial = cluster.coordinator.current
    # Warming evicts too; count only what the workload evicts.
    setup_evictions = _evictions(cluster)
    # (wall, CPU, operations, kernel steps) at the start, at each
    # stage of a traced run, and at the end.
    stages: List[Stage] = []
    tracing = None
    speed = SpeedProbe()
    kernel_run = sim.run

    def sampled_run(until: Any = None) -> float:
        # Slicing the run changes no event's order: Simulator.run
        # stops after the last event due by ``until``.
        if until is None:
            return kernel_run()
        while sim.now + SPEED_EVERY < until:
            kernel_run(until=sim.now + SPEED_EVERY)
            speed.sample()
        return kernel_run(until=until)
    sim.run = sampled_run

    def stage() -> None:
        stages.append(Stage(time.perf_counter(), time.process_time(),
                            timer.completed, sim.counters.steps))

    if trace:
        whole_run = sampled_run

        def staged_run(until: float) -> float:
            nonlocal tracing
            whole_run(until=TRACE_FROM)
            stage()
            tracing = _install_tracing(cluster)
            whole_run(until=TRACE_COMPARE)
            stage()
            return whole_run(until=until)
        sim.run = staged_run
    stage()
    try:
        result = experiment.run()
    finally:
        if tracing is not None:
            tracing.close()
        del sim.run
    stage()
    wall = stages[-1].wall - stages[0].wall
    cpu = stages[-1].cpu - stages[0].cpu

    ops = timer.completed
    phases = artifacts.recovery_phases(initial, cluster.events.events,
                                       VICTIM, FAIL_AT)
    recovered_at = result.recovered_at.get(VICTIM)
    recovery = cluster.recovery_recorder.summary()
    recorder = cluster.recorder
    cache_requests = sum(count for (__, dst), count
                         in cluster.network.link_messages.items()
                         if dst.startswith("cache-"))
    evictions = _evictions(cluster) - setup_evictions
    exact = {
        "ops": ops, "kernel_steps": sim.counters.steps,
        "events": sim.counters.events_created,
        "messages": cluster.network.messages_sent,
        "cache_requests": cache_requests,
        "evictions": evictions,
        "config_commits": phases.commits,
        "keys_repaired": recovery["keys_repaired"],
    }

    problems: List[str] = []
    latencies, counts, latency_problems = latency_metrics(timer)
    problems += latency_problems
    stale = cluster.oracle.stale_reads
    if stale:
        problems.append(f"{stale} stale reads")
    cut = timer.started - timer.completed - timer.failed
    if not 0 <= cut <= scenario(seed).threads:
        problems.append(
            f"sessions started {timer.started} != completed "
            f"{timer.completed} + failed {timer.failed} + at most one "
            f"per thread cut at the horizon")
    if not all(f.mode is FragmentMode.NORMAL and not f.wst_active
               for f in cluster.coordinator.current.fragments):
        problems.append("a fragment is not NORMAL at the end")
    if phases.normal_at is None or recovered_at is None:
        problems.append("cache-0 never recovered to NORMAL")

    attempted = timer.completed + timer.failed
    with open("/proc/self/status", encoding="ascii") as status:
        peak_rss_mb = parse_vmhwm_kb(status.read()) / 1024.0
    host = {"ops_per_s": ops / wall, "cpu_ms_per_kop": per_k(cpu * 1e3, ops),
            "pass_ms": speed.pass_s * 1e3,
            "speed_samples": len(speed.samples),
            "setup_pass_ms": setup_speed.pass_s * 1e3}
    metrics = {
        "setup_s": statistics.median(setup_times) / setup_speed.slowdown,
        "ops_per_s_ref": host["ops_per_s"] * speed.slowdown,
        # Simulated time: no host speed to scale away.
        "read_p50_ms_ref": latencies.get("read_p50_ms", 0.0),
        "write_p50_ms_ref": latencies.get("write_p50_ms", 0.0),
        "cpu_ms_per_kop_ref": host["cpu_ms_per_kop"] / speed.slowdown,
        "peak_rss_mb": peak_rss_mb,
        "hit_ratio": recorder.cache_hits / recorder.reads,
        "ok_ops_ratio": timer.completed / attempted if attempted else 0.0,
        "recovery_s": artifacts.since(recovered_at, phases.normal_at),
    }
    layer = {
        "client.retries_per_kop": per_k(
            recorder.lease_backoffs + recorder.config_refreshes, ops),
        "coordinator.detect_s": artifacts.since(FAIL_AT, phases.detected_at),
        "coordinator.config_commits": phases.commits,
        "recovery.repair_s": artifacts.since(phases.recovery_at,
                                             phases.repaired_at),
        "recovery.wst_s": artifacts.since(phases.recovery_at,
                                          phases.wst_off_at),
        "recovery.keys_repaired": recovery["keys_repaired"],
        "recovery.keys_degraded": recovery["keys_degraded"],
        "recovery.batches": recovery["batches"],
        "datastore.reads_per_kop": per_k(cluster.datastore.reads, ops),
        "datastore.writes_per_kop": per_k(cluster.datastore.writes, ops),
        "cache.requests_per_op": per_op(cache_requests, ops),
        "cache.evictions_per_kop": per_k(evictions, ops),
        "sim.steps_per_op": per_op(sim.counters.steps, ops),
        "sim.events_per_op": per_op(sim.counters.events_created, ops),
        "sim.network.messages_per_op": per_op(
            cluster.network.messages_sent, ops),
        "verify.emits_per_op": per_op(cluster.events.emitted, ops),
    }
    if tracing is not None:
        layer.update(_traced_metrics(tracing, stages, ops))
        tracing.write(trace_path)
    return {
        "metrics": metrics, "layer": layer, "problems": problems,
        "attempted": attempted, "failed": timer.failed,
        "detail": {"latency_samples": counts, "setup_s": setup_times,
                   "wall_s": wall, "exact": exact, "host": host},
    }


def _traced_metrics(tracing: Tracing, stages: List[Stage],
                    ops: int) -> Dict[str, float]:
    start, untraced, traced = stages[:3]
    untraced_rate = (untraced.ops - start.ops) / (untraced.wall - start.wall)
    traced_rate = (traced.ops - untraced.ops) / (traced.wall - untraced.wall)
    leaves = tracing.leaves
    layer = {
        **tracing.common_metrics(ops - untraced.ops),
        "cpu.harness_ms_per_kop": per_k((untraced.cpu - start.cpu) * 1e3,
                                        untraced.ops - start.ops),
        "sim.step_us": (untraced.wall - start.wall) * 1e6
        / (untraced.steps - start.steps),
        "cache.handle_us": leaves.mean("cache.handle.") * 1e6,
        "trace.ops_per_s": traced_rate,
        "trace.overhead_pct": 100.0 * (1.0 - traced_rate / untraced_rate),
    }
    for op in CACHE_OPS:
        layer[f"cache.handle_{op}_us"] = leaves.mean(
            f"cache.handle.{op}") * 1e6
    return layer
