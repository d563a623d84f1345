"""The Gemini client (Algorithms 1 and 2 plus the failure handling of
Sections 2.2 and 3.3).

The client holds the newest configuration it has seen and routes every
key to its fragment cell with the deterministic hash (Figure 3). The
configuration arrives from three sources: coordinator pushes
(subscription), refreshes after a :class:`~repro.errors.StaleConfiguration`
bounce, and the bootstrap fetch.

Every public operation is a *session*: an atomic unit that reads or
writes one cache entry and issues at most one data-store transaction.
Sessions are generators driven by the simulation kernel; they retry on
lease back-off, refresh their configuration on StaleConfiguration
bounces, and fall back to the data store (reads) or suspend (writes)
while a fragment has no reachable serving replica.
"""

from __future__ import annotations

import random
from typing import Any, Dict, List, Optional, Set

from repro.cache.instance import CacheOp
from repro.client.working_set import WstTracker
from repro.coordinator.coordinator import CoordinatorOp
from repro.datastore.store import DataStoreOp
from repro.errors import (
    FragmentUnavailable,
    InstanceDown,
    LeaseBackoff,
    NetworkError,
    ReproError,
    StaleConfiguration,
)
from repro.config.configuration import Configuration, FragmentInfo
from repro.metrics.recorder import OpRecorder
from repro.recovery.policies import RecoveryPolicy
from repro.runtime import Kernel, Transport
from repro.sim.core import SimGenerator
from repro.types import CACHE_MISS, FragmentMode, Value
from repro.verify.events import EventLog
from repro.verify.oracle import ConsistencyOracle

__all__ = ["GeminiClient"]

#: Errors meaning "the node I talked to is not answering".
_UNREACHABLE = (NetworkError, InstanceDown)


class GeminiClient:
    """One application-side Gemini client library instance."""

    MAX_ATTEMPTS = 200
    #: Lease back-off: a jittered exponential delay from BACKOFF_BASE,
    #: capped at BACKOFF_CAP (seconds).
    BACKOFF_BASE = 0.001
    BACKOFF_CAP = 0.016
    #: How long a write waits before retrying while its fragment has no
    #: reachable serving replica (seconds).
    SUSPENSION_DELAY = 0.02

    def __init__(self, sim: Kernel, network: Transport,
                 policy: RecoveryPolicy,
                 coordinator_address: str = "coordinator",
                 datastore_address: str = "datastore",
                 name: str = "client",
                 oracle: Optional[ConsistencyOracle] = None,
                 recorder: Optional[OpRecorder] = None,
                 *,
                 rng: random.Random,
                 event_log: Optional[EventLog] = None) -> None:
        self.sim = sim
        #: Optional structured protocol-event stream (verify.events).
        self.event_log = event_log
        # Bound handle: this client's RPCs are attributable for link-fault
        # rules (partitions between one client and one instance, etc.).
        self.network = network.bound(name)
        self.policy = policy
        self.coordinator_address = coordinator_address
        self.datastore_address = datastore_address
        self.name = name
        self.oracle = oracle
        self.recorder = recorder
        self.rng = rng
        #: The newest configuration seen; None until the first arrives.
        self.config: Optional[Configuration] = None
        self.wst = WstTracker()
        #: Local dirty-list copies per fragment in recovery mode.
        self._dirty: Dict[int, Set[str]] = {}
        self.reads_completed = 0
        self.writes_completed = 0

    # ------------------------------------------------------------------
    # Configuration plumbing
    # ------------------------------------------------------------------
    def _adopt(self, config: Optional[Configuration]) -> bool:
        """Adopt a configuration if strictly newer; emit the observation.

        Every adoption path (push, refresh, bootstrap) comes through
        here, so here the dirty-list copies it makes stale are dropped:
        those of fragments that left recovery mode, and every copy when
        configurations were skipped — a fragment may have left recovery
        and re-entered it in between, with keys dirtied that the copy
        never saw.
        """
        previous = self.config
        if config is None or (previous is not None
                              and config.config_id <= previous.config_id):
            return False
        self.config = config
        skipped = (previous is not None
                   and config.config_id > previous.config_id + 1)
        for fragment in config.fragments:
            if fragment.fragment_id in self._dirty and (
                    skipped or fragment.mode is not FragmentMode.RECOVERY):
                del self._dirty[fragment.fragment_id]
        if self.event_log is not None:
            self.event_log.emit("config_observed", actor=self.name,
                                config_id=config.config_id)
        return True

    def on_config(self, config: Configuration) -> None:
        """Coordinator push (subscribe this method on the coordinator)."""
        self._adopt(config)

    def bootstrap(self) -> SimGenerator:
        """Fetch the initial configuration (a process to yield from)."""
        config = yield self.network.call(
            self.coordinator_address, CoordinatorOp(op="get_config"))
        self._adopt(config)
        return config

    def _refresh_config(self) -> SimGenerator:
        if self.recorder is not None:
            self.recorder.record_config_refresh()
        try:
            config = yield self.network.call(
                self.coordinator_address, CoordinatorOp(op="get_config"))
        except _UNREACHABLE:
            return
        self._adopt(config)

    # ------------------------------------------------------------------
    # RPC helpers
    # ------------------------------------------------------------------
    def _op(self, op: str, cfg_id: int, **fields: Any) -> CacheOp:
        """Build a cache op stamped with the *session's* configuration id.

        The id is captured when the session routes (Rejig, Section 4): a
        session that straddles a configuration change keeps stamping the
        id its routing decision was based on, so the first op that
        reaches an instance which already adopted a newer configuration
        bounces with StaleConfiguration and the session retries under
        the new routing. Stamping the client's *current* id instead
        would let a session that started in transient mode complete
        against the secondary after the fragment moved to recovery mode
        — its quarantine then never reaches the primary's lease table,
        and a concurrent recovery-mode reader can resurrect the
        pre-write value into the primary (a read-after-write violation).
        """
        return CacheOp(op=op, client_cfg_id=cfg_id, **fields)

    @staticmethod
    def _suspect(fragment: FragmentInfo) -> Optional[str]:
        """Which replica to report after an unreachable error."""
        try:
            return fragment.serving_replica()
        except FragmentUnavailable:
            return None

    def _backoff_delay(self, attempt: int) -> float:
        cap = min(self.BACKOFF_CAP, self.BACKOFF_BASE * (2 ** min(attempt, 6)))
        return cap * (0.5 + 0.5 * self.rng.random())

    def _report_failure(self, address: str) -> SimGenerator:
        try:
            yield self.network.call(
                self.coordinator_address,
                CoordinatorOp(op="report_failure", address=address))
        except _UNREACHABLE:
            pass

    def _notify_dirty_lost(self, fragment_id: int) -> None:
        self.sim.process(
            self._notify_dirty_lost_proc(fragment_id),
            name=f"{self.name}:dirty-lost")

    def _notify_dirty_lost_proc(self, fragment_id: int) -> SimGenerator:
        try:
            yield self.network.call(
                self.coordinator_address,
                CoordinatorOp(op="dirty_lost", fragment_id=fragment_id))
        except _UNREACHABLE:
            pass

    @staticmethod
    def _end_attempt(tracer: Any, span: Any, status: str, started: float,
                     attempt: int, fragment: Any, cfg: int) -> None:
        """Close a bounced attempt's span, materializing it if lazy.

        First attempts are not traced eagerly — the clean single-attempt
        session (the overwhelming majority of traffic) would pay span
        churn for nothing the session span doesn't already carry. A
        first attempt that bounces is recorded retroactively over its
        ``[started, now]`` interval instead, so every retry is still
        classified.
        """
        if span is not None:
            tracer.end(span, status=status)
        else:
            tracer.closed("attempt", kind="attempt", start=started,
                          status=status, seq=attempt,
                          fragment_id=fragment.fragment_id,
                          mode=fragment.mode.name, config_id=cfg)

    # ------------------------------------------------------------------
    # Public sessions
    # ------------------------------------------------------------------
    def read(self, key: str) -> SimGenerator:
        """Read session. Returns the :class:`Value` observed."""
        return self._session(key, False, None)

    def write(self, key: str, size: Optional[int] = None) -> SimGenerator:
        """Write-around write session. Returns the committed Value."""
        return self._session(key, True, size)

    def _session(self, key: str, writing: bool,
                 size: Optional[int]) -> SimGenerator:
        """The retry loop of a read or a write session.

        Each attempt routes afresh and stamps its ops with the id it
        routed under (see :meth:`_op`). Reads and writes differ only in
        the attempt they run, in how they ride out an unreachable
        replica — a read refreshes first and reads the data store after
        two strikes, a write waits first — and in what they report.
        """
        start = self.sim.now
        value: Optional[Value] = None
        hit = False
        instance: Optional[str] = None
        store_direct = False
        # A write's data-store result survives a bounced attempt: a
        # StaleConfiguration after the transaction must not make the
        # retry issue a second one (sessions owe the store at most one).
        stored: List[Optional[Value]] = [None]
        suspended = 0.0
        unreachable_strikes = 0
        attempts = 0
        tracer = self.sim.tracer
        span = (tracer.begin("write" if writing else "read", kind="session",
                             client=self.name, key=key)
                if tracer is not None else None)
        attempt_span = None
        try:
            if self.config is None:
                raise FragmentUnavailable(-1, "client has no configuration yet")
            for attempt in range(1, self.MAX_ATTEMPTS + 1):
                attempts = attempt
                fragment = self.config.fragment_for_key(key)
                cfg = self.config.config_id
                if tracer is not None:
                    # First attempts are traced lazily (see _end_attempt):
                    # the clean single-attempt session — the overwhelming
                    # majority — pays no span churn.
                    attempt_started = self.sim.now
                    if attempt > 1:
                        attempt_span = tracer.begin(
                            "attempt", kind="attempt", seq=attempt,
                            fragment_id=fragment.fragment_id,
                            mode=fragment.mode.name, config_id=cfg)
                try:
                    if writing:
                        value = yield from self._write_attempt(
                            fragment, key, cfg, size, stored)
                    elif fragment.mode is FragmentMode.RECOVERY:
                        value, hit, instance = yield from (
                            self._read_recovery(fragment, key, cfg))
                    else:
                        value, hit, instance = yield from self._read_via(
                            fragment.serving_replica(), fragment, key, cfg)
                    if attempt_span is not None:
                        tracer.end(attempt_span)
                    break
                except LeaseBackoff:
                    if tracer is not None:
                        self._end_attempt(tracer, attempt_span,
                                          "lease-backoff", attempt_started,
                                          attempt, fragment, cfg)
                        attempt_span = None
                    if self.recorder is not None:
                        self.recorder.record_backoff()
                    yield self._backoff_delay(attempt)
                except StaleConfiguration:
                    if tracer is not None:
                        self._end_attempt(tracer, attempt_span,
                                          "stale-config", attempt_started,
                                          attempt, fragment, cfg)
                        attempt_span = None
                    yield from self._refresh_config()
                except FragmentUnavailable:
                    # Section 2.2: no serving replica until a secondary
                    # is published; wait, then look again.
                    if tracer is not None:
                        self._end_attempt(tracer, attempt_span,
                                          "unavailable", attempt_started,
                                          attempt, fragment, cfg)
                        attempt_span = None
                    suspended += self.SUSPENSION_DELAY
                    yield self.SUSPENSION_DELAY
                    yield from self._refresh_config()
                except _UNREACHABLE:
                    if tracer is not None:
                        self._end_attempt(tracer, attempt_span,
                                          "unreachable", attempt_started,
                                          attempt, fragment, cfg)
                        attempt_span = None
                    suspect = self._suspect(fragment)
                    if suspect is not None:
                        yield from self._report_failure(suspect)
                    if writing:
                        suspended += self.SUSPENSION_DELAY
                        yield self.SUSPENSION_DELAY
                        yield from self._refresh_config()
                        continue
                    yield from self._refresh_config()
                    unreachable_strikes += 1
                    if unreachable_strikes >= 2:
                        # Section 2.2: while the fragment has no serving
                        # replica, reads are processed using the data store.
                        value = yield self.network.call(
                            self.datastore_address,
                            DataStoreOp(op="read", key=key))
                        store_direct = True
                        break
                    yield self.SUSPENSION_DELAY
        finally:
            if tracer is not None:
                # Idempotent closes: an unexpected exception mid-attempt
                # must not leave the session parented on this process's
                # context stack (later sessions would mis-parent there).
                if attempt_span is not None:
                    tracer.end(attempt_span, status="error")
                status = "ok" if value is not None else "error"
                if writing:
                    tracer.end(span, status=status, attempts=attempts,
                               suspended_for=suspended)
                else:
                    tracer.end(span, status=status, attempts=attempts,
                               hit=hit, store_direct=store_direct)
        if value is None:
            raise ReproError(f"{'write' if writing else 'read'} of {key!r} "
                             f"exhausted retries")
        end = self.sim.now
        if writing:
            self.writes_completed += 1
            if self.recorder is not None:
                self.recorder.record_write(start, end, suspended_for=suspended)
            if self.oracle is not None:
                # The write is confirmed *now*: read-after-write
                # consistency is owed to every read that starts after
                # this point.
                self.oracle.record_commit(key, value.version, end)
        else:
            self.reads_completed += 1
            if self.recorder is not None:
                self.recorder.record_read(start, end, hit, instance,
                                          store_direct=store_direct)
            if self.oracle is not None:
                self.oracle.record_read(key, value.version, start, end)
        return value

    # ------------------------------------------------------------------
    # Read paths
    # ------------------------------------------------------------------
    def _read_via(self, target: str, fragment: FragmentInfo, key: str, cfg: int) -> SimGenerator:
        """Normal/transient read: iqget, fill on miss (IQ protocol)."""
        outcome = yield self.network.call(
            target, self._op("iqget", cfg, key=key,
                             fragment_cfg_id=fragment.cfg_id))
        if outcome[0] == "hit":
            return outcome[1], True, target
        token = outcome[1]
        value = yield self.network.call(
            self.datastore_address, DataStoreOp(op="read", key=key))
        yield from self._fill(target, fragment, key, cfg, value, token)
        return value, False, target

    def _fill(self, target: str, fragment, key: str, cfg: int, value: Value,
              token: int):
        """Best-effort iqset: the value is already in hand, so a failed or
        bounced fill only costs a future cache miss."""
        try:
            yield self.network.call(
                target, self._op("iqset", cfg, key=key, value=value,
                                 token=token,
                                 fragment_cfg_id=fragment.cfg_id))
        except (StaleConfiguration, *_UNREACHABLE):
            pass

    def _read_recovery(self, fragment, key: str, cfg: int):
        """Algorithm 1: reads against a fragment in recovery mode."""
        dirty = yield from self._ensure_dirty(fragment, cfg)
        primary = fragment.primary
        if key in dirty:
            # Claim-and-delete the dirty key. On LeaseBackoff the key
            # deliberately STAYS in our dirty view: the lease holder may
            # be a writer's qareg, and a Q lease deletes the stale
            # primary copy only at dar time -- or never, if that write
            # bounces on a configuration change and the lease merely
            # expires. Dropping the key here lets the retry read the
            # pre-outage copy through the iqget path below. Worst case
            # of keeping it: one redundant delete-and-refill after a
            # peer already repaired the key.
            token = yield self.network.call(
                primary, self._op("iset", cfg, key=key,
                                  fragment_cfg_id=fragment.cfg_id))
            dirty.discard(key)
        else:
            outcome = yield self.network.call(
                primary, self._op("iqget", cfg, key=key,
                                  fragment_cfg_id=fragment.cfg_id))
            if outcome[0] == "hit":
                return outcome[1], True, primary
            token = outcome[1]
        # Cache miss in the primary while holding an I lease.
        if fragment.wst_active and fragment.secondary is not None:
            try:
                found = yield self.network.call(
                    fragment.secondary,
                    self._op("get", cfg, key=key,
                             fragment_cfg_id=fragment.cfg_id))
            except (StaleConfiguration, *_UNREACHABLE):
                found = CACHE_MISS
            self.wst.observe(primary, fragment.episode,
                             found is not CACHE_MISS)
            if found is not CACHE_MISS:
                yield from self._fill(primary, fragment, key, cfg, found,
                                      token)
                return found, True, primary
        value = yield self.network.call(
            self.datastore_address, DataStoreOp(op="read", key=key))
        yield from self._fill(primary, fragment, key, cfg, value, token)
        return value, False, primary

    def _ensure_dirty(self, fragment, cfg: int) -> Any:
        """Fetch (once) the dirty list for a recovery-mode fragment.

        Falls back to the coordinator's copy when the secondary lost it
        (eviction or crash, Section 3.3)."""
        cached = self._dirty.get(fragment.fragment_id)
        if cached is not None:
            return cached
        dirty_value = CACHE_MISS
        if fragment.secondary is not None:
            try:
                dirty_value = yield self.network.call(
                    fragment.secondary,
                    self._op("get_dirty", cfg,
                             fragment_id=fragment.fragment_id))
            except (StaleConfiguration, *_UNREACHABLE):
                dirty_value = CACHE_MISS
        if dirty_value is not CACHE_MISS and dirty_value.complete:
            keys = set(dirty_value.keys())
        else:
            try:
                copy = yield self.network.call(
                    self.coordinator_address,
                    CoordinatorOp(op="get_dirty_copy",
                                  fragment_id=fragment.fragment_id))
            except _UNREACHABLE:
                copy = []
            keys = set(copy)
        self._dirty[fragment.fragment_id] = keys
        return keys

    # ------------------------------------------------------------------
    # Write path
    # ------------------------------------------------------------------
    def _write_attempt(self, fragment: FragmentInfo, key: str, cfg: int,
                       size: Optional[int],
                       stored: List[Optional[Value]]) -> SimGenerator:
        """One write-around attempt against the serving replica: qareg,
        the session's data-store transaction, dar (Algorithm 2).

        Transient mode (Section 3.1) also logs the key in the fragment's
        dirty list on the secondary before touching the store. Recovery
        mode (Section 3.2.1) also deletes the key in the secondary, and
        drops it from this client's dirty view once the write repaired
        it. ``stored`` holds the store's answer across attempts, so the
        session issues its transaction once.
        """
        target = fragment.serving_replica()
        mode = fragment.mode
        token = yield self.network.call(
            target, self._op("qareg", cfg, key=key,
                             fragment_cfg_id=fragment.cfg_id))
        if mode is FragmentMode.TRANSIENT:
            if self.policy.maintain_dirty:
                complete = yield self.network.call(
                    target, self._op("append_dirty", cfg,
                                     fragment_id=fragment.fragment_id,
                                     key=key))
                if self.event_log is not None:
                    self.event_log.emit(
                        "transient_write", actor=self.name, address=target,
                        fragment_id=fragment.fragment_id,
                        episode=fragment.cfg_id, key=key, complete=complete)
                if not complete:
                    # The marker is gone: the list was evicted and recreated.
                    self._notify_dirty_lost(fragment.fragment_id)
        elif mode is FragmentMode.RECOVERY and fragment.secondary is not None:
            try:
                yield self.network.call(
                    fragment.secondary,
                    self._op("delete", cfg, key=key,
                             fragment_cfg_id=fragment.cfg_id))
            except _UNREACHABLE:
                pass  # a dead secondary no longer serves reads
            # A StaleConfiguration bounce must propagate: the secondary is
            # still a repair source, and leaving a stale copy there lets a
            # recovery worker resurrect it into the primary. The session
            # retries the whole invalidation under the fresh configuration.
        if stored[0] is None:
            stored[0] = yield self.network.call(
                self.datastore_address,
                DataStoreOp(op="write", key=key, size=size))
        yield self.network.call(
            target, self._op("dar", cfg, key=key, token=token,
                             fragment_cfg_id=fragment.cfg_id))
        if mode is FragmentMode.RECOVERY:
            local = self._dirty.get(fragment.fragment_id)
            if local is not None:
                local.discard(key)
        return stored[0]
