"""Cluster assembly.

Builds the full simulated deployment of Figure 2 — data store, cache
instances, coordinator (optionally with shadows), clients, recovery
workers, failure injector — and wires the cross-cutting concerns
(consistency oracle, metrics recorder, WST feedback, configuration
subscriptions).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.cache.instance import CacheInstance
from repro.client.client import GeminiClient
from repro.config.hashing import fragment_for_key
from repro.coordinator.coordinator import Coordinator
from repro.coordinator.membership import HeartbeatMonitor
from repro.coordinator.shadow import CoordinatorEnsemble
from repro.datastore.store import DataStore
from repro.errors import SimulationError
from repro.metrics.recorder import OpRecorder
from repro.metrics.recovery import RecoveryRecorder
from repro.recovery.policies import GEMINI_O_W, RecoveryPolicy
from repro.recovery.worker import RecoveryWorker
from repro.sim.core import Simulator
from repro.sim.failures import FailureInjector
from repro.sim.network import LatencyModel, Network
from repro.sim.rng import RngRegistry
from repro.types import Value
from repro.verify.events import EventLog
from repro.verify.invariants import InvariantRegistry, default_invariants
from repro.verify.oracle import ConsistencyOracle

__all__ = ["ClusterSpec", "GeminiCluster"]


@dataclass
class ClusterSpec:
    """Knobs of a simulated deployment (paper defaults, scaled)."""

    num_instances: int = 5
    fragments_per_instance: int = 50
    #: Per-instance memory budget. None = sized to `cache_db_ratio` of the
    #: database once `size_memory_for` is called.
    memory_bytes: Optional[int] = None
    cache_db_ratio: float = 0.5
    num_clients: int = 5
    num_workers: int = 2
    policy: RecoveryPolicy = GEMINI_O_W
    seed: int = 42
    iq_lifetime: float = 0.010
    red_lifetime: float = 2.0
    datastore_read_time: float = 1e-3
    datastore_write_time: float = 1.2e-3
    datastore_servers: int = 32
    monitor_interval: float = 1.0
    num_shadow_coordinators: int = 0
    heartbeat: bool = False

    @property
    def num_fragments(self) -> int:
        return self.num_instances * self.fragments_per_instance

    def validate(self) -> None:
        """Reject nonsensical knobs up front, before assembly.

        Raises :class:`~repro.errors.SimulationError` naming the bad
        field; both :class:`GeminiCluster` and the live harness call
        this so misconfiguration fails at the spec, not deep inside
        cluster wiring.
        """
        if self.num_instances <= 0:
            raise SimulationError(
                f"num_instances must be positive, got {self.num_instances}")
        if self.fragments_per_instance <= 0:
            raise SimulationError(
                "fragments_per_instance must be positive, got "
                f"{self.fragments_per_instance}")
        if not (0.0 < self.cache_db_ratio <= 1.0):
            raise SimulationError(
                f"cache_db_ratio must be in (0, 1], got {self.cache_db_ratio}")
        if self.memory_bytes is not None and self.memory_bytes <= 0:
            raise SimulationError(
                f"memory_bytes must be positive, got {self.memory_bytes}")
        # Zero is a supported degenerate form for both: tests drive
        # sessions and recovery passes by hand without any wired
        # clients/workers. Only negatives are nonsense.
        if self.num_clients < 0:
            raise SimulationError(
                f"num_clients must be >= 0, got {self.num_clients}")
        if self.num_workers < 0:
            raise SimulationError(
                f"num_workers must be >= 0, got {self.num_workers}")
        for field in ("datastore_read_time", "datastore_write_time"):
            value = getattr(self, field)
            if value < 0:
                raise SimulationError(
                    f"{field} must be non-negative, got {value}")
        for field in ("iq_lifetime", "red_lifetime", "monitor_interval"):
            value = getattr(self, field)
            if value <= 0:
                raise SimulationError(
                    f"{field} must be positive, got {value}")
        if self.datastore_servers < 1:
            raise SimulationError("datastore_servers must be >= 1")
        if self.num_shadow_coordinators < 0:
            raise SimulationError(
                "num_shadow_coordinators must be >= 0, got "
                f"{self.num_shadow_coordinators}")


class GeminiCluster:
    """A fully wired simulated deployment."""

    def __init__(self, spec: ClusterSpec):
        spec.validate()
        self.spec = spec
        self.sim = Simulator()
        self.rng = RngRegistry(spec.seed)
        self.network = Network(
            self.sim, LatencyModel(self.rng.stream("latency")))
        self.oracle = ConsistencyOracle()
        #: The structured protocol-event stream (verify.events) that the
        #: invariant checkers and the chaos engine read.
        self.events = EventLog(clock=lambda: self.sim.now)
        self.recorder = OpRecorder(rng_registry=self.rng)
        self.recovery_recorder = RecoveryRecorder()
        self.datastore = DataStore(
            self.sim, "datastore",
            read_service_time=spec.datastore_read_time,
            write_service_time=spec.datastore_write_time,
            servers=spec.datastore_servers)
        # Note: the oracle learns about writes from *clients* at session
        # completion (that is when read-after-write is owed), not from the
        # data store's internal commit hook.
        self.network.register(self.datastore)

        self.instance_addresses = [f"cache-{i}" for i in range(spec.num_instances)]
        self.instances: Dict[str, CacheInstance] = {}
        memory = spec.memory_bytes if spec.memory_bytes is not None else 1 << 30
        for address in self.instance_addresses:
            instance = CacheInstance(
                self.sim, address, memory_bytes=memory,
                iq_lifetime=spec.iq_lifetime,
                red_lifetime=spec.red_lifetime,
                event_log=self.events)
            self.instances[address] = instance
            self.network.register(instance)

        self.coordinator = Coordinator(
            self.sim, self.network, self.instance_addresses,
            spec.num_fragments, spec.policy,
            monitor_interval=spec.monitor_interval,
            event_log=self.events)
        self.network.register(self.coordinator)
        self.ensemble: Optional[CoordinatorEnsemble] = None
        if spec.num_shadow_coordinators > 0:
            self.ensemble = CoordinatorEnsemble(
                self.sim, self.network, self.coordinator,
                num_shadows=spec.num_shadow_coordinators)

        self.injector = FailureInjector(self.sim, nodes=self.instances)
        self.injector.subscribe(self.coordinator.on_event)

        self.clients: List[GeminiClient] = []
        for index in range(spec.num_clients):
            client = GeminiClient(
                self.sim, self.network, spec.policy,
                name=f"client-{index}",
                oracle=self.oracle, recorder=self.recorder,
                rng=self.rng.stream(f"client-{index}"),
                event_log=self.events)
            client.config = self.coordinator.current
            self.coordinator.subscribe(client.on_config)
            self.clients.append(client)

        self.workers: List[RecoveryWorker] = []
        for index in range(spec.num_workers):
            worker = RecoveryWorker(
                self.sim, self.network, spec.policy,
                name=f"worker-{index}",
                rng=self.rng.stream(f"worker-{index}"),
                recovery_recorder=self.recovery_recorder,
                event_log=self.events)
            worker.on_config(self.coordinator.current)
            self.coordinator.subscribe(worker.on_config)
            self.workers.append(worker)

        self.coordinator.register_wst_feedback(self._wst_feedback)
        self.heartbeat: Optional[HeartbeatMonitor] = None
        if spec.heartbeat:
            self.heartbeat = HeartbeatMonitor(
                self.sim, self.network, self.coordinator,
                self.instance_addresses)

    # ------------------------------------------------------------------
    def _wst_feedback(self, address: str, episode: int) -> Dict[str, int]:
        """Secondary-lookup counts for one (primary, outage-episode)
        pair; counts from earlier outages of `address` live under other
        episode keys and never reach the monitor."""
        total = {"hits": 0, "misses": 0}
        for client in self.clients:
            counts = client.wst.counts(address, episode)
            total["hits"] += counts["hits"]
            total["misses"] += counts["misses"]
        return total

    def install_invariants(self, invariants=None) -> InvariantRegistry:
        """Attach protocol-invariant checkers to the event stream.

        Registers :func:`repro.verify.invariants.default_invariants`
        (including the read-after-write oracle adapter) unless an
        explicit checker list is given.
        """
        registry = InvariantRegistry(self.events)
        registry.register_all(
            default_invariants(self.oracle) if invariants is None
            else invariants)
        return registry

    def start(self) -> None:
        """Start background services (monitors, workers, heartbeats)."""
        self.coordinator.start_monitor()
        for worker in self.workers:
            worker.start()
        if self.heartbeat is not None:
            self.heartbeat.start()

    # ------------------------------------------------------------------
    # Setup helpers (no simulated time consumed)
    # ------------------------------------------------------------------
    def size_memory_for(self, total_db_bytes: int) -> int:
        """Apply the paper's cache:database sizing (default 50 %)."""
        per_instance = int(total_db_bytes * self.spec.cache_db_ratio
                           / self.spec.num_instances)
        for instance in self.instances.values():
            instance.memory_bytes = max(per_instance, 4096)
        return per_instance

    def warm_cache(self, keys, value_size=None) -> int:
        """Pre-fill primaries with current data-store versions.

        Experiments warm the cluster before measuring; doing it through
        simulated sessions would dominate runtime, so this loads entries
        directly (tagged with the current configuration id), exactly what
        a long warm-up phase would converge to.
        """
        config = self.coordinator.current
        loaded = 0
        for key in keys:
            fragment = config.fragment_for_key(key)
            instance = self.instances[fragment.primary]
            version = self.datastore.version(key)
            if version == 0:
                continue
            size = (value_size(key) if callable(value_size)
                    else value_size if value_size is not None
                    else self.datastore.record_size(key))
            value = Value(version=version, size=size)
            instance._store(key, value, config.config_id, size)
            loaded += 1
        return loaded

    # ------------------------------------------------------------------
    # Failure helpers (emulated, Section 5.2)
    # ------------------------------------------------------------------
    def fail_instance(self, address: str, emulated: bool = True) -> None:
        if address not in self.instances:
            raise SimulationError(f"unknown instance {address!r}")
        self.injector.fail_now(address, emulated=emulated)

    def recover_instance(self, address: str, emulated: bool = True) -> None:
        if address not in self.instances:
            raise SimulationError(f"unknown instance {address!r}")
        self.injector.recover_now(address, emulated=emulated)

    # ------------------------------------------------------------------
    # Inspection helpers
    # ------------------------------------------------------------------
    def count_valid_entries(self, address: str) -> int:
        """Entries on `address` that are valid under the current config."""
        config = self.coordinator.current
        instance = self.instances[address]
        valid = 0
        for key, entry in instance._entries.items():
            if key.startswith("__gemini"):
                continue
            fragment = config.fragments[
                fragment_for_key(key, config.num_fragments)]
            if entry.is_valid_for(fragment.cfg_id):
                valid += 1
        return valid

    def count_invalid_entries(self, address: str) -> int:
        """Entries on `address` doomed by a fragment floor bump — the
        'discarded keys' of Table 3."""
        config = self.coordinator.current
        instance = self.instances[address]
        invalid = 0
        for key, entry in instance._entries.items():
            if key.startswith("__gemini"):
                continue
            fragment = config.fragments[
                fragment_for_key(key, config.num_fragments)]
            if not entry.is_valid_for(fragment.cfg_id):
                invalid += 1
        return invalid

    def total_entries(self) -> int:
        return sum(i.entry_count for i in self.instances.values())
