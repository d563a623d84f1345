"""The live workload: a real localhost cluster of node processes.

Cluster: 3 cache instances x 4 fragments, a coordinator with its
heartbeat monitor, a data store, all as OS processes; one client with a
closed loop of two sessions and one recovery worker in this (the
harness) process on one asyncio loop. 2,000 records of 1 KiB, all
preloaded into the cache during set-up by four sessions.

``live_read_mostly`` (YCSB-B) measures its steady window first, then,
with the load still running, SIGKILLs ``cache-0``, restarts it after a
fixed outage and waits until every fragment is NORMAL. The window sees
the hit path, with the harness and every node pinned to one CPU (see
``_measure``); the crash gives ``recovery_s`` and the journal, replay,
detection and repair figures under a read-mostly load.
"""

from __future__ import annotations

import asyncio
import os
import random
import shutil
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional

import repro.live.transport
from repro.errors import ReproError
from repro.harness.cluster import ClusterSpec
from repro.live.harness import LiveCluster
from repro.recovery.policies import GEMINI_O
from repro.types import FragmentMode
from repro.workload.keyspace import KeySpace
from repro.workload.ycsb import ClosedLoopThread, WorkloadSpec, YcsbWorkload

import artifacts
from catalog import latency_metrics
from hostspeed import SpeedProbe
from optimer import OpTimer
from procstat import ProcessLedger
from stats import per_k, per_op, percentile
from tracing import Tracing
from tracing import install as tracing_install

RECORDS = 2_000
RECORD_SIZE = 1024
#: In-flight sessions of the measured load. Spread over the host's
#: two cores, four sessions tracked whatever share other tenants left
#: (835-1858 ops/s over ten runs of the same code). On the one CPU the
#: window is pinned to, two keep it busy: while one session's request
#: is served, the harness runs the other.
SESSIONS = 2
PRELOAD_SESSIONS = 4
SETUPS = 3
BOOT_ATTEMPTS = 2
VICTIM = "cache-0"
READ_FRACTION = 0.95
OUTAGE = 1.0
#: Samples of the host's speed just before and just after a set-up.
SETUP_SPEED_SAMPLES = 3
#: Untimed load before the window, after pinning.
WARMUP = 2.0
#: Seconds between two samples of the host's speed in the window.
SPEED_EVERY = 0.5
#: Untraced, then traced, seconds compared for the tracing overhead.
CALIBRATION = 4.0
LOOP_PROBE = 0.005
RECOVERY_TIMEOUT = 60.0


def _spec() -> ClusterSpec:
    # Gemini-O: working-set transfer off, so recovery ends when the
    # dirty lists are repaired, not when a hit-ratio timer fires.
    return ClusterSpec(num_instances=3, fragments_per_instance=4,
                       num_clients=1, num_workers=1, policy=GEMINI_O,
                       monitor_interval=0.2)


async def _sleep_until(cluster: LiveCluster, when: float) -> None:
    await asyncio.sleep(max(0.0, when - cluster.kernel.now))


async def _preload(cluster: LiveCluster) -> None:
    """Read every record once through the client (miss, then fill)."""
    client, kernel = cluster.clients[0], cluster.kernel
    keys = KeySpace(RECORDS).all_keys()

    def session(chunk: List[str]) -> Any:
        for key in chunk:
            yield from client.read(key)

    await asyncio.gather(*[
        kernel.run_process(session(keys[i::PRELOAD_SESSIONS]),
                           name=f"preload-{i}")
        for i in range(PRELOAD_SESSIONS)])


def _stderr_logs(workdir: Path) -> str:
    return "".join(
        f"--- {path.name}\n{path.read_text(errors='replace')[-2000:]}"
        for path in sorted(workdir.glob("*.stderr.log"))
        if path.stat().st_size)


async def _start(workdir: Path) -> LiveCluster:
    """A started cluster. A node failed to boot once in about a hundred
    runs; the nodes' stderr logs are printed and one failed boot is
    retried in a fresh directory, with fresh ports."""
    attempt = 0
    while True:
        attempt_dir = workdir / f"boot-{attempt}"
        cluster = LiveCluster(_spec(), str(attempt_dir),
                              record_count=RECORDS, record_size=RECORD_SIZE,
                              heartbeat_interval=0.05)
        try:
            await cluster.start()
            return cluster
        except ReproError as error:
            await cluster.stop()
            print(f"perfbench: {error}\n{_stderr_logs(attempt_dir)}",
                  file=sys.stderr)
            attempt += 1
            if attempt == BOOT_ATTEMPTS:
                raise


async def _boot(workdir: Path,
                speed: SpeedProbe) -> "tuple[LiveCluster, float]":
    """A started, preloaded cluster and the seconds that took; the
    host's speed is sampled, untimed, just before and just after."""
    for __ in range(SETUP_SPEED_SAMPLES):
        speed.sample()
    started = time.perf_counter()
    cluster = await _start(workdir)
    try:
        await _preload(cluster)
    except BaseException:
        await cluster.stop()
        raise
    took = time.perf_counter() - started
    for __ in range(SETUP_SPEED_SAMPLES):
        speed.sample()
    return cluster, took


class _Load:
    """SESSIONS closed-loop YCSB sessions on the one client."""

    def __init__(self, cluster: LiveCluster, read_fraction: float,
                 seed: int) -> None:
        spec = WorkloadSpec(name="perfbench", read_fraction=read_fraction,
                            record_count=RECORDS, record_size=RECORD_SIZE)
        keyspace = KeySpace(RECORDS)
        self.stopped = False
        self.threads = [
            ClosedLoopThread(
                cluster.kernel, cluster.clients[0],
                YcsbWorkload(spec, random.Random(f"{seed}/{index}"),
                             keyspace=keyspace),
                name=f"session-{index}", stop=lambda: self.stopped)
            for index in range(SESSIONS)]
        self._done = asyncio.gather(*[
            cluster.kernel.wait(thread.start()) for thread in self.threads])

    async def stop(self) -> None:
        self.stopped = True
        await self._done


async def _sample_speed(speed: SpeedProbe) -> None:
    """Sample the host's speed every SPEED_EVERY seconds, on the CPU the
    window runs on. The load waits while it samples (~1 % of the
    window), so the cache nodes are idle and the sample is clean."""
    while True:
        speed.sample()
        await asyncio.sleep(SPEED_EVERY)


async def _probe_loop_lag(lags: List[float]) -> None:
    """Lateness of a periodic timer: how long ready work waits for the
    harness loop."""
    loop = asyncio.get_running_loop()
    while True:
        due = loop.time() + LOOP_PROBE
        await asyncio.sleep(LOOP_PROBE)
        lags.append(loop.time() - due)


class _Window:
    """Counters read at the start of the measured window."""

    def __init__(self, cluster: LiveCluster, workdir: Path) -> None:
        self.cluster = cluster
        self.workdir = workdir
        self.started = cluster.kernel.now
        self.steps = cluster.kernel.counters.steps
        recorder = cluster.recorder
        self.reads = recorder.reads
        self.hits = recorder.cache_hits
        self.retries = recorder.lease_backoffs + recorder.config_refreshes
        self.emitted = cluster.events.emitted
        self.journals = artifacts.file_sizes(workdir, artifacts.JOURNALS)
        self.event_logs = artifacts.file_sizes(workdir, artifacts.EVENT_LOGS)

    def close(self, timer: OpTimer, ledger: ProcessLedger) -> Dict[str, Any]:
        """Freeze the window: what it measured, as raw figures."""
        cluster, workdir = self.cluster, self.workdir
        recorder = cluster.recorder
        timer.recording = False
        ledger.sample()
        ops = timer.window_ops
        reads = recorder.reads - self.reads
        journals = artifacts.file_sizes(workdir, artifacts.JOURNALS)
        return {
            "ops": ops,
            "seconds": cluster.kernel.now - self.started,
            "hit_ratio": (recorder.cache_hits - self.hits) / reads
            if reads else 0.0,
            "retries": recorder.lease_backoffs + recorder.config_refreshes
            - self.retries,
            "steps": cluster.kernel.counters.steps - self.steps,
            "emitted": cluster.events.emitted - self.emitted,
            "cpu": ledger.cpu_by_role(),
            "journal_bytes": artifacts.grown_bytes(self.journals, journals),
            "journals": (self.journals, journals),
            "eventlog_bytes": artifacts.grown_bytes(
                self.event_logs,
                artifacts.file_sizes(workdir, artifacts.EVENT_LOGS)),
        }


def _cpu_metrics(cpu: Dict[str, float], ops: int) -> Dict[str, float]:
    return {f"cpu.{role}_ms_per_kop": per_k(cpu.get(role, 0.0) * 1e3, ops)
            for role in ("harness", "cache", "datastore", "coordinator")}


async def _throwaway_setup(workdir: Path, speed: SpeedProbe) -> float:
    cluster, took = await _boot(workdir, speed)
    await cluster.stop()
    shutil.rmtree(workdir, ignore_errors=True)
    return took


async def _boot_and_measure(seed: int, seconds: float, trace: bool,
                            setup_times: List[float],
                            setup_speed: SpeedProbe, workdir: Path,
                            trace_path: Path) -> Dict[str, Any]:
    cluster, took = await _boot(workdir, setup_speed)
    setup_times.append(took)
    try:
        return await _measure(cluster, seed, seconds, trace,
                              setup_times, setup_speed, trace_path)
    finally:
        await cluster.stop()


def run(seed: int, seconds: float, trace: bool, workdir: Path,
        trace_path: Path) -> Dict[str, Any]:
    """One run of the live workload; returns the raw result for run.py.

    Each extra set-up gets its own event loop: ``LiveCluster.stop``
    leaves the cluster's config poller and recovery workers scheduled,
    and closing their loop is what ends them.
    """
    setup_speed = SpeedProbe()
    setup_times = [
        asyncio.run(_throwaway_setup(workdir / f"setup-{index}",
                                     setup_speed))
        for index in range(0 if trace else SETUPS - 1)]
    return asyncio.run(_boot_and_measure(
        seed, seconds, trace, setup_times, setup_speed,
        workdir / "measured", trace_path))


def _install_tracing(cluster: LiveCluster) -> Tracing:
    tracing = tracing_install(cluster.kernel, cluster.clients,
                              cluster.transport, cluster.events,
                              cluster.oracle, cluster.recorder)
    tracing.codec_of(repro.live.transport)
    return tracing


@dataclass
class _Crash:
    """One SIGKILL of the victim and its restart, in wall seconds."""

    initial: Any
    killed: float
    restarted: float
    ready: float


async def _crash(cluster: LiveCluster, ledger: ProcessLedger) -> _Crash:
    """Kill the victim, restart it after OUTAGE, wait for recovery."""
    initial = await cluster.get_config()
    ledger.sample()  # the victim's counters die with it
    killed = time.time()
    cluster.kill_instance(VICTIM)
    await asyncio.sleep(OUTAGE)
    restarted = time.time()
    await cluster.restart_instance(VICTIM)
    ready = time.time()
    ledger.sample()
    await cluster.wait_all_normal(timeout=RECOVERY_TIMEOUT)
    return _Crash(initial, killed, restarted, ready)


async def _measure(cluster: LiveCluster, seed: int, seconds: float,
                   trace: bool, setup_times: List[float],
                   setup_speed: SpeedProbe,
                   trace_path: Path) -> Dict[str, Any]:
    kernel = cluster.kernel
    workdir = cluster.workdir
    timer = OpTimer(lambda: kernel.now)
    timer.attach(cluster.clients[0])
    ledger = ProcessLedger()
    layer: Dict[str, float] = {}
    tracing: Optional[Tracing] = None
    lags: List[float] = []
    probe: Optional["asyncio.Task[None]"] = None
    # The window runs on one CPU. Spread over two, every operation waits
    # for the other vCPU to wake, and on a shared host that wait is what
    # varies most: in five alternating pairs of 30 s runs, one session
    # unpinned read 1,395-2,691 ops/s, two sessions pinned 1,803-2,295.
    # The crash runs unpinned: pinned, recovery queued behind the load
    # and its time split into ~1 s and ~3 s runs.
    home = os.sched_getaffinity(0)
    ledger.pin({min(home)})
    speed = SpeedProbe()
    sampler: Optional["asyncio.Task[None]"] = None
    load = _Load(cluster, READ_FRACTION, seed)
    try:
        await asyncio.sleep(WARMUP)
        timer.restart()
        # Before the calibration too, so that both sides of the tracing
        # overhead pay for the sampling.
        sampler = asyncio.ensure_future(_sample_speed(speed))
        if trace:
            # Untraced calibration: the per-process CPU split, and the
            # rate the start of the traced window is compared with.
            ledger.start()
            calibration = _Window(cluster, workdir)
            await asyncio.sleep(CALIBRATION)
            untraced = calibration.close(timer, ledger)
            layer.update(_cpu_metrics(untraced["cpu"], untraced["ops"]))
            timer.restart()
            tracing = _install_tracing(cluster)
            probe = asyncio.ensure_future(_probe_loop_lag(lags))
        ledger.start()
        window = _Window(cluster, workdir)
        if trace:
            await asyncio.sleep(CALIBRATION)
            traced_rate = timer.window_ops / (kernel.now - window.started)
            layer["trace.ops_per_s"] = traced_rate
            layer["trace.overhead_pct"] = 100.0 * (
                1.0 - traced_rate * untraced["seconds"] / untraced["ops"])
        await _sleep_until(cluster, window.started + seconds)
        if tracing is not None:
            tracing.close()
            probe.cancel()
        sampler.cancel()
        measured = window.close(timer, ledger)
        ledger.pin(home)
        crash = await _crash(cluster, ledger)
        await load.stop()
        final = await cluster.get_config()
    finally:
        ledger.pin(home)
        if sampler is not None:
            sampler.cancel()
            await asyncio.gather(sampler, return_exceptions=True)
        if probe is not None:
            probe.cancel()
            await asyncio.gather(probe, return_exceptions=True)
        if tracing is not None:
            tracing.close()
        if not load.stopped:
            await load.stop()

    coordinator_events = artifacts.read_events(
        workdir / "coordinator.events.jsonl", since=crash.killed)
    phases = artifacts.recovery_phases(crash.initial, coordinator_events,
                                       VICTIM, crash.killed)
    replayed = artifacts.replayed_entries(artifacts.read_events(
        workdir / f"{VICTIM}.events.jsonl", since=crash.restarted))
    recovery = cluster.recovery_recorder.summary()
    stale = cluster.oracle.summary()["stale_reads"]

    problems: List[str] = []
    latencies, counts, latency_problems = latency_metrics(timer)
    problems += latency_problems
    attempted = sum(t.ops_issued for t in load.threads)
    errors = sum(t.errors for t in load.threads)
    if stale:
        problems.append(f"{stale} stale reads")
    if not (attempted == timer.started == timer.completed + timer.failed
            and errors == timer.failed):
        problems.append(
            f"attempted {attempted} (sessions saw {timer.started}) != "
            f"completed {timer.completed} + failed {timer.failed}")
    if not all(f.mode is FragmentMode.NORMAL and not f.wst_active
               for f in final.fragments):
        problems.append("a fragment is not NORMAL at the end")
    if phases.normal_at is None:
        problems.append("no commit brought every fragment back to NORMAL")
    if not (recovery["keys_repaired"] > 0 and replayed > 0):
        problems.append(
            f"the crash left nothing to recover: keys_repaired="
            f"{recovery['keys_repaired']} replay_entries={replayed}")

    ops = measured["ops"]
    ledger.sample()
    host = {
        "ops_per_s": ops / measured["seconds"],
        "cpu_ms_per_kop": per_k(sum(measured["cpu"].values()) * 1e3, ops),
        **latencies,
        "pass_ms": speed.pass_s * 1e3,
        "speed_samples": len(speed.samples),
        "setup_pass_ms": setup_speed.pass_s * 1e3,
    }
    slowdown = speed.slowdown
    metrics = {
        "setup_s": statistics.median(setup_times) / setup_speed.slowdown,
        "ops_per_s_ref": host["ops_per_s"] * slowdown,
        "read_p50_ms_ref": host.get("read_p50_ms", 0.0) / slowdown,
        "write_p50_ms_ref": host.get("write_p50_ms", 0.0) / slowdown,
        "cpu_ms_per_kop_ref": host["cpu_ms_per_kop"] / slowdown,
        "peak_rss_mb": ledger.peak_rss_mb(),
        "hit_ratio": measured["hit_ratio"],
        "ok_ops_ratio": timer.completed / attempted if attempted else 0.0,
        "recovery_s": artifacts.since(crash.restarted, phases.normal_at),
    }
    layer.update({
        "live.kernel.steps_per_op": per_op(measured["steps"], ops),
        "client.retries_per_kop": per_k(measured["retries"], ops),
        "live.node.journal_bytes_per_kop": per_k(
            measured["journal_bytes"], ops),
        "live.node.journal_records_per_kop": per_k(
            artifacts.journal_records(workdir, *measured["journals"]), ops),
        "live.node.eventlog_bytes_per_kop": per_k(
            measured["eventlog_bytes"], ops),
        "live.node.restart_ready_s": crash.ready - crash.restarted,
        "live.node.replay_entries": replayed,
        "coordinator.detect_s": artifacts.since(crash.killed,
                                                phases.detected_at),
        "coordinator.config_commits": sum(
            1 for e in coordinator_events if e.kind == "config_commit"),
        "recovery.repair_s": artifacts.since(phases.recovery_at,
                                             phases.repaired_at),
        "recovery.wst_s": artifacts.since(phases.recovery_at,
                                          phases.wst_off_at),
        "recovery.keys_repaired": recovery["keys_repaired"],
        "recovery.keys_degraded": recovery["keys_degraded"],
        "recovery.batches": recovery["batches"],
        "verify.emits_per_op": per_op(measured["emitted"], ops),
    })
    if tracing is not None:
        layer.update(_traced_metrics(tracing, ops, lags))
        tracing.write(trace_path)
    return {
        "metrics": metrics, "layer": layer, "problems": problems,
        "attempted": attempted, "failed": timer.failed,
        "detail": {"latency_samples": counts, "setup_s": setup_times,
                   "window_ops": ops, "window_s": measured["seconds"],
                   "cpu_s": measured["cpu"], "host": host},
    }


def _traced_metrics(tracing: Tracing, ops: int,
                    lags: List[float]) -> Dict[str, float]:
    spans, leaves = tracing.spans, tracing.leaves
    rpc_ops = tracing.rpc_ops

    def p50_us(name: str) -> float:
        samples = spans.durations[name]
        return percentile(samples, 50).value * 1e6 if samples else 0.0

    return {
        **tracing.common_metrics(ops),
        "live.transport.calls_per_op": per_op(spans.count("rpc."), ops),
        "live.transport.rtt_cache_p50_us": p50_us("rpc.cache"),
        "live.transport.rtt_datastore_p50_us": p50_us("rpc.datastore"),
        "live.transport.rtt_coordinator_p50_us": p50_us("rpc.coordinator"),
        "live.transport.failed_per_kop": per_k(spans.failures("rpc."), ops),
        "live.wire.encode_us": leaves.mean("wire.encode") * 1e6,
        "live.wire.decode_us": leaves.mean("wire.decode") * 1e6,
        "live.wire.bytes_per_op": per_op(tracing.wire_bytes, ops),
        "live.harness.loop_lag_p99_ms":
            percentile(lags, 99).value * 1e3 if lags else 0.0,
        "datastore.reads_per_kop": per_k(rpc_ops[("datastore", "read")], ops),
        "datastore.writes_per_kop": per_k(
            rpc_ops[("datastore", "write")], ops),
        "cache.requests_per_op": per_op(spans.count("rpc.cache"), ops),
    }
