"""LiveCluster: boots and drives a real multi-process localhost cluster.

The counterpart of :class:`repro.harness.cluster.GeminiCluster` for the
wall-clock runtime. Cache instances, the coordinator (with its real
heartbeat monitor), and the data store each run as their own OS process
(``python -m repro.live node``); clients, recovery workers, the
consistency oracle, and the metrics recorders run in the harness process
on a :class:`~repro.live.kernel.LiveKernel` and talk to the nodes over
TCP.

Failure injection is *real*: :meth:`kill_instance` delivers SIGKILL, the
journal-backed instance loses its DRAM lease tables but keeps its
entries, the coordinator notices via missed heartbeats (or a client's
failure report, whichever lands first), and :meth:`restart_instance`
brings the process back for Gemini recovery to repair.

Configuration flow: sim clusters push configurations to clients through
local subscriptions; here a poller process pulls ``get_config`` on a
short period and feeds every client and worker (on top of the pull-based
StaleConfiguration refresh clients already do), and pushes each client's
working-set-transfer counters up to the coordinator.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from repro.client.client import GeminiClient
from repro.coordinator.coordinator import CoordinatorOp
from repro.errors import Interrupt, NetworkError, ReproError
from repro.harness.cluster import ClusterSpec
from repro.live.kernel import LiveKernel
from repro.live.transport import LiveTransport
from repro.metrics.recorder import OpRecorder
from repro.metrics.recovery import RecoveryRecorder
from repro.recovery.worker import RecoveryWorker
from repro.sim.core import Process, SimGenerator
from repro.sim.rng import RngRegistry
from repro.types import FragmentMode
from repro.verify.events import EventLog
from repro.verify.oracle import ConsistencyOracle
from repro.workload.keyspace import KeySpace
from repro.workload.ycsb import ClosedLoopThread, WorkloadSpec, YcsbWorkload

__all__ = ["LiveCluster", "LiveLoadResult"]

#: How long to wait for a node's READY line before declaring boot failed.
_BOOT_TIMEOUT = 30.0


class LiveLoadResult:
    """What one load phase produced (threads are throwaway objects)."""

    __slots__ = ("ops", "errors", "duration")

    def __init__(self, ops: int, errors: int, duration: float) -> None:
        self.ops = ops
        self.errors = errors
        self.duration = duration

    @property
    def throughput(self) -> float:
        return self.ops / self.duration if self.duration > 0 else 0.0


class LiveCluster:
    """A real localhost deployment driven from one harness process."""

    #: Seconds between two polls of the coordinator's configuration,
    #: which the harness then pushes to its clients.
    POLL_INTERVAL = 0.05

    def __init__(self, spec: ClusterSpec, workdir: str,
                 record_count: int = 5_000, record_size: int = 1024,
                 host: str = "127.0.0.1",
                 heartbeat_interval: float = 0.25,
                 wst_max_duration: float = 10.0) -> None:
        spec.validate()
        self.spec = spec
        self.workdir = Path(workdir)
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.record_count = record_count
        self.record_size = record_size
        self.host = host
        self.heartbeat_interval = heartbeat_interval
        self.wst_max_duration = wst_max_duration

        self.instance_addresses = [
            f"cache-{i}" for i in range(spec.num_instances)]
        self.registry: Dict[str, Tuple[str, int]] = {}
        self.registry_path = self.workdir / "registry.json"
        self._procs: Dict[str, asyncio.subprocess.Process] = {}
        self._stderr_files: Dict[str, Any] = {}

        self.kernel: Optional[LiveKernel] = None
        self.transport: Optional[LiveTransport] = None
        self.oracle = ConsistencyOracle()
        self.rng = RngRegistry(spec.seed)
        self.recorder = OpRecorder(rng_registry=self.rng)
        self.recovery_recorder = RecoveryRecorder()
        self.events = EventLog(clock=lambda: self._now(), keep=True)
        self.clients: List[GeminiClient] = []
        self.workers: List[RecoveryWorker] = []
        self._poller: Optional[Process] = None
        self._last_config_id = 0

    def _now(self) -> float:
        return self.kernel.now if self.kernel is not None else 0.0

    # -- boot --------------------------------------------------------------
    async def start(self) -> None:
        """Boot every node process, then the harness's clients/workers.

        Each node binds a port of its own choosing and announces it on
        its READY line; the coordinator, the one node that dials others
        at boot, starts once the registry file lists them all.
        """
        await self._spawn("datastore", "datastore", {
            "record_count": self.record_count,
            "record_size": self.record_size,
        })
        for address in self.instance_addresses:
            await self._spawn("cache", address, self._cache_spec())
        self._write_registry()
        await self._spawn("coordinator", "coordinator", {
            "instances": self.instance_addresses,
            "num_fragments": self.spec.num_fragments,
            "policy": self.spec.policy.name,
            "monitor_interval": self.spec.monitor_interval,
            "wst_max_duration": self.wst_max_duration,
            "heartbeat_interval": self.heartbeat_interval,
        })
        self._write_registry()

        self.kernel = LiveKernel()
        self.transport = LiveTransport(self.kernel, self.registry)
        policy = self.spec.policy
        for index in range(self.spec.num_clients):
            client = GeminiClient(
                self.kernel, self.transport, policy,
                name=f"client-{index}", oracle=self.oracle,
                recorder=self.recorder,
                rng=self.rng.stream(f"client-{index}"),
                event_log=self.events)
            await self.kernel.run_process(client.bootstrap(),
                                          name=f"bootstrap:{client.name}")
            self.clients.append(client)
        config = await self.get_config()
        self._last_config_id = config.config_id
        for index in range(self.spec.num_workers):
            worker = RecoveryWorker(
                self.kernel, self.transport, policy,
                name=f"worker-{index}",
                rng=self.rng.stream(f"worker-{index}"),
                recovery_recorder=self.recovery_recorder,
                event_log=self.events)
            worker.on_config(config)
            worker.start()
            self.workers.append(worker)
        self._poller = self.kernel.process(self._config_poller(),
                                           name="config-poller")

    def _write_registry(self) -> None:
        self.registry_path.write_text(json.dumps(
            {a: list(e) for a, e in self.registry.items()}, indent=2))

    def _cache_spec(self) -> Dict[str, Any]:
        memory = (self.spec.memory_bytes if self.spec.memory_bytes is not None
                  else 1 << 30)
        return {
            "memory_bytes": memory,
            "iq_lifetime": self.spec.iq_lifetime,
            "red_lifetime": self.spec.red_lifetime,
        }

    async def _spawn(self, role: str, address: str,
                     spec: Dict[str, Any]) -> None:
        # geminilint: disable=GEM013 -- harness boot path: one open per node, dwarfed by the subprocess spawn just below
        stderr = open(self.workdir / f"{address}.stderr.log", "ab")
        self._stderr_files[address] = stderr
        src_root = Path(__file__).resolve().parents[2]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(src_root)] + ([env["PYTHONPATH"]]
                               if env.get("PYTHONPATH") else []))
        proc = await asyncio.create_subprocess_exec(
            sys.executable, "-m", "repro.live", "node",
            "--role", role, "--address", address,
            # A restarted node reclaims the port it announced first.
            "--port", str(self.registry.get(address, (self.host, 0))[1]),
            "--registry", str(self.registry_path),
            "--workdir", str(self.workdir),
            "--spec", json.dumps(spec),
            stdout=asyncio.subprocess.PIPE, stderr=stderr, env=env)
        self._procs[address] = proc
        assert proc.stdout is not None
        line = await asyncio.wait_for(proc.stdout.readline(), _BOOT_TIMEOUT)
        if not line.startswith(b"READY"):
            raise ReproError(
                f"node {address} failed to boot (got {line!r}); see "
                f"{self.workdir / (address + '.stderr.log')}")
        self.registry[address] = (self.host, int(line.split()[2]))

    # -- config / wst plumbing --------------------------------------------
    async def get_config(self) -> Any:
        assert self.kernel is not None and self.transport is not None
        return await self.kernel.wait(self.transport.call(
            "coordinator", CoordinatorOp(op="get_config"), timeout=2.0))

    def _config_poller(self) -> SimGenerator:
        """Pull-push glue replacing the sim cluster's local subscriptions."""
        while True:
            yield self.POLL_INTERVAL
            try:
                config = yield self.transport.call(
                    "coordinator", CoordinatorOp(op="get_config"),
                    timeout=1.0)
            except Interrupt:
                raise  # stop() ends the poller
            except (NetworkError, ReproError):
                continue
            if config.config_id != self._last_config_id:
                self._last_config_id = config.config_id
                for client in self.clients:
                    client.on_config(config)
                for worker in self.workers:
                    worker.on_config(config)
            yield from self._push_wst_counts(config)

    def _push_wst_counts(self, config: Any) -> SimGenerator:
        active = {(f.primary, f.episode) for f in config.fragments
                  if f.wst_active}
        for primary, episode in active:
            for client in self.clients:
                counts = client.wst.counts(primary, episode)
                if not counts["hits"] and not counts["misses"]:
                    continue
                try:
                    yield self.transport.call(
                        "coordinator",
                        CoordinatorOp(op="wst_report", address=primary,
                                      payload={"reporter": client.name,
                                               "episode": episode,
                                               **counts}),
                        timeout=1.0)
                except Interrupt:
                    raise  # stop() ends the poller
                except (NetworkError, ReproError):
                    return

    # -- load --------------------------------------------------------------
    async def run_load(self, duration: float,
                       workload: Optional[WorkloadSpec] = None,
                       threads_per_client: int = 1) -> LiveLoadResult:
        """Drive closed-loop YCSB load from every client for ``duration``."""
        assert self.kernel is not None
        spec = workload if workload is not None else WorkloadSpec(
            name="live-mixed", read_fraction=0.8,
            record_count=self.record_count, record_size=self.record_size)
        keyspace = KeySpace(self.record_count)
        deadline = self.kernel.now + duration
        threads: List[ClosedLoopThread] = []
        waits = []
        for index, client in enumerate(self.clients):
            for t in range(threads_per_client):
                generator = YcsbWorkload(
                    spec, client.rng, keyspace=keyspace)
                thread = ClosedLoopThread(
                    self.kernel, client, generator,
                    name=f"load-{index}-{t}",
                    stop=lambda: self.kernel.now >= deadline)
                threads.append(thread)
                waits.append(self.kernel.wait(thread.start()))
        await asyncio.gather(*waits)
        started = deadline - duration
        return LiveLoadResult(
            ops=sum(t.ops_issued for t in threads),
            errors=sum(t.errors for t in threads),
            duration=self.kernel.now - started)

    # -- failure injection -------------------------------------------------
    def kill_instance(self, address: str) -> None:
        """Real crash: SIGKILL the instance's OS process."""
        proc = self._procs.get(address)
        if proc is None or proc.returncode is not None:
            raise ReproError(f"no live process for {address!r}")
        proc.send_signal(signal.SIGKILL)

    async def restart_instance(self, address: str) -> None:
        """Re-exec a killed instance; its journal replays on boot."""
        proc = self._procs.get(address)
        if proc is not None and proc.returncode is None:
            raise ReproError(f"{address!r} is still running")
        if proc is not None:
            await proc.wait()
        await self._spawn("cache", address, self._cache_spec())

    async def wait_all_normal(self, timeout: float = 30.0) -> Any:
        """Wait until every fragment is back in NORMAL mode (recovery
        complete end-to-end); returns the final configuration."""
        assert self.kernel is not None
        deadline = self.kernel.now + timeout
        while True:
            config = await self.get_config()
            if all(f.mode is FragmentMode.NORMAL and not f.wst_active
                   for f in config.fragments):
                return config
            if self.kernel.now > deadline:
                modes: Dict[str, int] = {}
                for fragment in config.fragments:
                    modes[fragment.mode.value] = (
                        modes.get(fragment.mode.value, 0) + 1)
                raise ReproError(
                    f"recovery incomplete after {timeout}s: {modes}")
            await asyncio.sleep(0.1)

    # -- teardown / reporting ----------------------------------------------
    async def stop(self) -> None:
        """End the config poller and the recovery workers, close the
        transport and SIGTERM every node."""
        if self._poller is not None:
            self._poller.interrupt("stopped")
            self._poller = None
        for worker in self.workers:
            worker.stop()
        if self.transport is not None:
            await self.transport.close()
        for proc in self._procs.values():
            if proc.returncode is None:
                proc.terminate()
        for proc in self._procs.values():
            try:
                await asyncio.wait_for(proc.wait(), 5.0)
            except asyncio.TimeoutError:
                proc.kill()
                await proc.wait()
        for handle in self._stderr_files.values():
            handle.close()
        self._stderr_files.clear()

    def summary(self) -> Dict[str, Any]:
        return {
            "oracle": self.oracle.summary(),
            "client_ops": self.recorder.summary(),
            "recovery": self.recovery_recorder.summary(),
        }
