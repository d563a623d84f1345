"""The Gemini coordinator.

Owns the authoritative fragment table and drives the fragment lifecycle
of Figure 4:

* **instance fails** — every fragment whose primary lived there gets a
  secondary replica on a surviving instance (round-robin, Section 4), a
  freshly-created dirty list (with the eviction marker), and transient
  mode. Fragments whose *secondary* lived there lose their dirty list:
  the primary replica is declared unrecoverable and, if the primary is
  still down, a replacement serving replica is assigned.
* **instance recovers** — each of its fragments is checked: if the dirty
  list is present and complete, the fragment enters recovery mode with
  its validity floor (``cfg_id``) *restored* to the pre-failure value so
  its surviving entries are valid again; otherwise the floor is bumped to
  the new configuration id, lazily discarding everything (Example 3.1).
* **dirty list processed / working-set transfer finished** — back to
  normal mode.

Every transition produces a new immutable :class:`Configuration` with an
incremented id, pushed to the alive instances *first* (so stale-client
requests bounce with :class:`StaleConfiguration`) and then to subscribed
clients and workers. Transitions are serialized by a mutex because they
interleave with the RPCs they issue.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Set

from repro.cache.instance import CacheOp
from repro.config.configuration import Configuration, FragmentInfo
from repro.errors import CoordinatorError, NetworkError, StaleConfiguration
from repro.recovery.policies import RecoveryPolicy
from repro.runtime import Kernel, Transport
from repro.sim.core import SimGenerator
from repro.sim.network import RemoteNode
from repro.sim.sanitizer import active as _sanitizer_active
from repro.sim.sync import Mutex
from repro.types import CACHE_MISS, FragmentMode

__all__ = ["Coordinator", "CoordinatorOp"]


@dataclass
class CoordinatorOp:
    """One RPC to the coordinator."""

    op: str
    address: Optional[str] = None
    fragment_id: Optional[int] = None
    payload: Any = None


class Coordinator(RemoteNode):
    """Master coordinator (one per cluster; see shadow.py for failover)."""

    def __init__(self, sim: Kernel, network: Transport,
                 instances: List[str], num_fragments: int,
                 policy: RecoveryPolicy,
                 address: str = "coordinator",
                 initial_config_id: int = 1,
                 monitor_interval: float = 1.0,
                 wst_max_duration: float = 300.0,
                 event_log=None) -> None:
        super().__init__(sim, address, servers=16)
        #: Optional structured protocol-event stream (verify.events).
        self.event_log = event_log
        # Outgoing RPCs carry this coordinator's identity so that link
        # faults (e.g. a coordinator<->instance partition) affect them.
        self.network = network.bound(address)
        self.policy = policy
        self.monitor_interval = monitor_interval
        self.wst_max_duration = wst_max_duration
        self._instances = list(instances)
        self._alive: Set[str] = set(instances)
        self.current = Configuration.initial(instances, num_fragments,
                                             initial_config_id)
        #: Last configuration whose instance fan-out completed. Clients
        #: may only ever see this one: handing out `current` mid-publish
        #: would let a client fetch a recovery-mode dirty list before the
        #: secondary learned the new id, racing one final transient-mode
        #: append past the client's copy.
        self.published = self.current
        self._fragments: Dict[int, FragmentInfo] = {
            f.fragment_id: f for f in self.current.fragments}
        self._config_id = initial_config_id
        #: Original owner of each fragment; recovery hands fragments back.
        self._home: Dict[int, str] = {
            f.fragment_id: f.primary for f in self.current.fragments}
        self._pre_failure_cfg: Dict[int, int] = {}
        self._recoverable: Dict[int, bool] = {}
        self._dirty_done: Set[int] = set()
        #: Coordinator-held dirty list copies, the fallback used when a
        #: secondary dies during recovery (Section 3.3).
        self._dirty_copy: Dict[int, List[str]] = {}
        self._lock = Mutex(sim, name=f"transition-lock:{address}")
        self._subscribers: List[Callable[[Configuration], None]] = []
        #: Pre-failure windowed hit ratio per instance (the h threshold).
        self._pre_failure_hit: Dict[str, float] = {}
        self._last_stats: Dict[str, Dict[str, int]] = {}
        self._window_hit: Dict[str, float] = {}
        self._wst_feedback: Optional[
            Callable[[str, int], Dict[str, int]]] = None
        self._last_wst_counts: Dict[str, Dict[str, int]] = {}
        # Counters
        self.publishes = 0
        self.fragments_discarded = 0
        self.transitions: List[tuple] = []

    # The committed configuration id is the one shared cell whose
    # check-then-act windows (read under the transition lock, commit
    # after a fan-out of RPC yields) are NOT protected by the IQ lease
    # protocol — the transition Mutex alone guards them. Routing every
    # access through this property gives the interleaving sanitizer a
    # paired read/write footprint for exactly that cell.
    @property
    def _config_id(self) -> int:
        sanitizer = _sanitizer_active()
        if sanitizer is not None:
            sanitizer.record_read("config_id", self.address)
        return self._config_id_value

    @_config_id.setter
    def _config_id(self, value: int) -> None:
        sanitizer = _sanitizer_active()
        if sanitizer is not None:
            sanitizer.record_write("config_id", self.address)
        self._config_id_value = value

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def subscribe(self, callback: Callable[[Configuration], None]) -> None:
        """Receive every published configuration (clients & workers)."""
        self._subscribers.append(callback)

    def _emit(self, kind: str, **data) -> None:
        if self.event_log is not None:
            self.event_log.emit(kind, actor=self.address, **data)

    def register_wst_feedback(
            self, fn: Callable[[str, int], Dict[str, int]]) -> None:
        """Aggregated client-side WST lookup counters per recovering
        instance *and outage episode* (stands in for the
        client->coordinator feedback RPCs). Episode-keying keeps counts
        from a previous outage of the same primary out of the
        m-threshold termination decision."""
        self._wst_feedback = fn

    def alive_instances(self) -> List[str]:
        return [a for a in self._instances if a in self._alive]

    def is_alive(self, address: str) -> bool:
        return address in self._alive

    # ------------------------------------------------------------------
    # RPC surface
    # ------------------------------------------------------------------
    def service_time(self, request: CoordinatorOp) -> float:
        return 20e-6

    def handle_request(self, request: CoordinatorOp) -> Any:
        handler = getattr(self, f"op_{request.op}", None)
        if handler is None:
            raise CoordinatorError(f"unknown coordinator op {request.op!r}")
        return handler(request)

    def op_get_config(self, request: CoordinatorOp) -> Configuration:
        return self.published

    def op_report_failure(self, request: CoordinatorOp) -> bool:
        self.on_event("fail", request.address)
        return True

    def op_dirty_done(self, request: CoordinatorOp) -> bool:
        self.on_event("dirty_done", request.fragment_id)
        return True

    def op_dirty_lost(self, request: CoordinatorOp) -> bool:
        self.on_event("dirty_lost", request.fragment_id)
        return True

    def op_get_dirty_copy(self, request: CoordinatorOp) -> Any:
        return list(self._dirty_copy.get(request.fragment_id, []))

    def op_stats(self, request: CoordinatorOp) -> Dict[str, Any]:
        return {
            "config_id": self._config_id,
            "publishes": self.publishes,
            "fragments_discarded": self.fragments_discarded,
            "alive": len(self._alive),
        }

    # ------------------------------------------------------------------
    # Transitions (processes; serialized by the mutex)
    # ------------------------------------------------------------------
    def on_event(self, kind: str, target: Any) -> None:
        """Start the Figure-4 transition for one lifecycle event — the
        entry point for RPCs, monitors and the failure injector alike.

        ``kind`` is a key of :attr:`_TRANSITIONS`; ``target`` is an
        instance address or a fragment id. A dead coordinator ignores
        every event (GEM005): after a failover the promoted shadow owns
        them, and an old master committing from its diverged state
        routed writes where the new master's recovery never looked.
        """
        if not self.up:
            return
        if kind == "fail" and target not in self._alive \
                or kind == "recover" and target in self._alive:
            return
        process, span, attr, body = self._TRANSITIONS[kind]
        self.sim.process(self._transition(span, attr, target, body),
                         name=f"{process}:{target}")

    def _transition(self, span_name: str, attr: str, target: Any,
                    body: Callable[..., SimGenerator]) -> SimGenerator:
        """The one transition driver: ``body(self, target)`` under the
        transition lock, inside a ``transition`` span.

        The span opens *before* the lock acquire so the serialized wait
        shows up as span time and as its ``lock_wait`` attribute.
        """
        tracer = self.sim.tracer
        span = (None if tracer is None else
                tracer.begin(span_name, kind="transition", **{attr: target}))
        queued = self.sim.now
        yield self._lock.acquire()
        if span is not None:
            span.attrs["lock_wait"] = self.sim.now - queued
        try:
            yield from body(self, target)
        finally:
            self._lock.release()
            tracer = self.sim.tracer  # may be swapped mid-transition
            if tracer is not None:
                tracer.end(span)

    def _handle_failure(self, address: str) -> SimGenerator:
        if address not in self._alive:
            return
        self._alive.discard(address)
        self._pre_failure_hit[address] = self._window_hit.get(address, 0.0)
        if not any(a in self._alive for a in self._instances):
            # Total outage: every instance is down, so there is no
            # survivor to host dirty lists or absorb the failed
            # primary's fragments. Leave the configuration untouched
            # and wait for recoveries — committing here would route
            # fragments to dead hosts. The interleaving sanitizer
            # found this path dying inside the assigner with an
            # unobserved CoordinatorError, mid-transition.
            self.transitions.append((self.sim.now, "outage", address, 0))
            self._emit("total_outage", address=address)
            return
        new_id = self._config_id + 1
        updates: Dict[int, FragmentInfo] = {}
        dirty_creates: List[tuple] = []
        # Section 4: the failed instance's fragments spread round-robin
        # over the survivors (at least one: see the total outage above).
        assign = itertools.cycle(self.alive_instances())
        for fragment in list(self._fragments.values()):
            fid = fragment.fragment_id
            if fragment.primary == address and fragment.mode is FragmentMode.NORMAL:
                secondary = next(assign)
                self._pre_failure_cfg[fid] = fragment.cfg_id
                self._recoverable[fid] = self.policy.maintain_dirty
                self._dirty_done.discard(fid)
                updates[fid] = fragment.replace(
                    secondary=secondary, mode=FragmentMode.TRANSIENT,
                    cfg_id=new_id, wst_active=False, episode=new_id)
                self._emit("transient_begin", fragment_id=fid,
                           episode=new_id, secondary=secondary,
                           resumed=False)
                if self.policy.maintain_dirty:
                    dirty_creates.append((secondary, fid, True))
            elif (fragment.primary == address
                  and fragment.mode is FragmentMode.RECOVERY
                  and fragment.secondary is not None):
                # Arrow 5 in Figure 4: failed again before recovery
                # completed. Keep the restored floor; the dirty list in
                # the secondary keeps covering the outage, so its
                # (re-)creation must *not* mint a fresh marker.
                self._dirty_done.discard(fid)
                updates[fid] = fragment.replace(
                    mode=FragmentMode.TRANSIENT, wst_active=False)
                self._emit("transient_begin", fragment_id=fid,
                           episode=fragment.cfg_id,
                           secondary=fragment.secondary, resumed=True)
                if self.policy.maintain_dirty:
                    dirty_creates.append((fragment.secondary, fid, False))
            elif (fragment.primary == address
                  and fragment.mode is FragmentMode.RECOVERY
                  or fragment.secondary == address
                  and fragment.mode is FragmentMode.TRANSIENT):
                # The dirty list is gone — its secondary failed, now or
                # earlier in this recovery (Section 3.3): discard the
                # primary replica and move the fragment to a fresh
                # serving instance.
                self._recoverable[fid] = False
                replacement = next(assign)
                self.fragments_discarded += 1
                updates[fid] = fragment.replace(
                    secondary=replacement, mode=FragmentMode.TRANSIENT,
                    cfg_id=new_id, wst_active=False, episode=new_id)
                self._emit("fragment_unrecoverable", fragment_id=fid)
                self._emit("transient_begin", fragment_id=fid,
                           episode=new_id, secondary=replacement,
                           resumed=False)
                if self.policy.maintain_dirty:
                    dirty_creates.append((replacement, fid, True))
            elif fragment.secondary == address and fragment.mode is FragmentMode.RECOVERY:
                # Section 3.3: terminate the transfer; remaining dirty
                # keys are repaired from the coordinator's copy.
                updates[fid] = fragment.replace(
                    secondary=None, wst_active=False)
            # A transient primary failing "again" changes nothing: the
            # secondary keeps serving.
        self.transitions.append((self.sim.now, "failure", address,
                                 len(updates)))
        yield from self._commit(new_id, updates)
        yield from self._create_dirty_lists(dirty_creates)

    def _recovering_fragments(self, address: str) -> List[FragmentInfo]:
        """Fragments `address` takes back: those homed there but served
        elsewhere, and those it was the transient primary of (a
        secondary that dirty-lost promoted keeps its fragment's home)."""
        return [fragment for fragment in self._fragments.values()
                if self._home[fragment.fragment_id] == address
                and not (fragment.mode is FragmentMode.NORMAL
                         and fragment.primary == address)
                or fragment.primary == address
                and fragment.mode is FragmentMode.TRANSIENT]

    def _handle_recovery(self, address: str) -> SimGenerator:
        """Hand `address`'s fragments back; the policy kind picks how.

        * ``volatile`` — the instance lost its content: wipe it, bump
          every floor to the new id, normal mode.
        * ``stale`` — reuse the content as-is: floors restored to their
          pre-failure value, normal mode, no repair.
        * ``gemini`` — recovery mode at the restored floor for every
          fragment whose dirty list is present and complete; a floor
          bump (discard, Example 3.1) for the rest.
        """
        if address in self._alive:
            return
        self._alive.add(address)
        kind = self.policy.kind
        if kind == "volatile":
            try:
                yield self.network.call(address, CacheOp(op="wipe"))
            except (NetworkError, StaleConfiguration):
                pass
        new_id = self._config_id + 1
        updates: Dict[int, FragmentInfo] = {}
        recovery_fragments: List[FragmentInfo] = []
        #: Transient-mode episode (pre-replace cfg_id) per recovering
        #: fragment, for the recovery_dirty events emitted below.
        episodes: Dict[int, int] = {}
        for fragment in self._recovering_fragments(address):
            fid = fragment.fragment_id
            floor = self._pre_failure_cfg.get(fid, fragment.cfg_id)
            if kind == "stale":
                updates[fid] = fragment.replace(
                    primary=address, secondary=None, mode=FragmentMode.NORMAL,
                    cfg_id=floor, wst_active=False, episode=0)
                continue
            if kind == "gemini":
                episodes[fid] = fragment.cfg_id
                if (yield from self._dirty_list_complete(fragment)):
                    info = fragment.replace(
                        primary=address, mode=FragmentMode.RECOVERY,
                        cfg_id=floor,
                        wst_active=self.policy.working_set_transfer)
                    updates[fid] = info
                    recovery_fragments.append(info)
                    continue
                self.fragments_discarded += 1
                self._emit("fragment_discarded", fragment_id=fid)
                if fragment.secondary is not None:
                    # Best-effort removal of any leftover (partial) list so
                    # it cannot be mistaken for live state later.
                    try:
                        yield self.network.call(
                            fragment.secondary,
                            CacheOp(op="delete_dirty", fragment_id=fid,
                                    client_cfg_id=self._config_id))
                    except (NetworkError, StaleConfiguration):
                        pass
            updates[fid] = fragment.replace(
                primary=address, secondary=None, mode=FragmentMode.NORMAL,
                cfg_id=new_id, wst_active=False, episode=0)
        self.transitions.append((self.sim.now, f"recover-{kind}", address,
                                 len(updates)))
        yield from self._commit(new_id, updates)
        # Refresh the fallback dirty copies *after* instances learned the
        # new id: no append can race past this point (stale writers bounce).
        for info in recovery_fragments:
            if info.secondary is None:
                continue
            try:
                dirty = yield self.network.call(
                    info.secondary,
                    CacheOp(op="get_dirty", fragment_id=info.fragment_id,
                            client_cfg_id=self._config_id))
            except (NetworkError, StaleConfiguration):
                continue
            if dirty is not CACHE_MISS:
                self._dirty_copy[info.fragment_id] = dirty.keys()
                self._emit("recovery_dirty", fragment_id=info.fragment_id,
                           episode=episodes.get(info.fragment_id),
                           secondary=info.secondary,
                           keys=tuple(dirty.keys()),
                           complete=dirty.complete)
        if self.policy.working_set_transfer and recovery_fragments:
            self.sim.process(self._wst_monitor(address),
                             name=f"wst-monitor:{address}")

    def _dirty_list_complete(self, fragment: FragmentInfo) -> SimGenerator:
        """Can recovery trust the fragment's dirty list: still
        recoverable, and its secondary holds it complete?"""
        if not self._recoverable.get(fragment.fragment_id, False) \
                or fragment.secondary is None:
            return False
        try:
            dirty = yield self.network.call(
                fragment.secondary,
                CacheOp(op="get_dirty", fragment_id=fragment.fragment_id,
                        client_cfg_id=self._config_id))
        except (NetworkError, StaleConfiguration):
            return False
        return dirty is not CACHE_MISS and dirty.complete

    def _handle_dirty_done(self, fragment_id: int) -> SimGenerator:
        fragment = self._fragments.get(fragment_id)
        if fragment is None or fragment.mode is not FragmentMode.RECOVERY:
            return
        self._dirty_done.add(fragment_id)
        self._dirty_copy.pop(fragment_id, None)
        self._emit("dirty_done", fragment_id=fragment_id)
        if fragment.wst_active:
            return  # stays in recovery until the transfer terminates
        new_id = self._config_id + 1
        updates = {fragment_id: fragment.replace(
            secondary=None, mode=FragmentMode.NORMAL, episode=0)}
        self.transitions.append((self.sim.now, "dirty-done", fragment_id, 1))
        yield from self._commit(new_id, updates)

    def _handle_dirty_lost(self, fragment_id: int) -> SimGenerator:
        """The dirty list was evicted (or found partial): terminate
        transient mode and discard the primary replica (Section 3.1)."""
        fragment = self._fragments.get(fragment_id)
        if fragment is None or fragment.mode is not FragmentMode.TRANSIENT:
            return
        self._recoverable[fragment_id] = False
        self._emit("dirty_lost", fragment_id=fragment_id)
        new_id = self._config_id + 1
        # Promote the secondary to primary (Section 3.1); the old
        # primary replica is dead content that the floor bump discards
        # when its instance returns and the fragment is handed back.
        updates = {fragment_id: fragment.replace(
            primary=fragment.secondary, secondary=None,
            mode=FragmentMode.NORMAL, cfg_id=new_id, episode=0)}
        self.fragments_discarded += 1
        self.transitions.append((self.sim.now, "dirty-lost", fragment_id, 1))
        yield from self._commit(new_id, updates)

    def _handle_wst_done(self, address: str) -> SimGenerator:
        new_id = self._config_id + 1
        updates = {}
        for fid, fragment in self._fragments.items():
            if fragment.primary == address and fragment.wst_active:
                updates[fid] = (fragment.replace(
                    secondary=None, mode=FragmentMode.NORMAL,
                    wst_active=False, episode=0)
                    if fid in self._dirty_done
                    else fragment.replace(wst_active=False))
        if not updates:
            return
        self.transitions.append((self.sim.now, "wst-done", address,
                                 len(updates)))
        yield from self._commit(new_id, updates)

    #: Event kind -> (process name prefix, span name, span attribute
    #: naming the target, transition body). The injector delivers
    #: ``fail``/``recover``; RPCs and the coordinator's own monitors
    #: deliver the rest.
    _TRANSITIONS = {
        "fail": ("coord-fail", "failure", "address", _handle_failure),
        "recover": ("coord-recover", "recovery", "address",
                    _handle_recovery),
        "dirty_done": ("coord-dirty-done", "dirty-done", "fragment_id",
                       _handle_dirty_done),
        "dirty_lost": ("coord-dirty-lost", "dirty-lost", "fragment_id",
                       _handle_dirty_lost),
        "wst_done": ("coord-wst-done", "wst-done", "address",
                     _handle_wst_done),
    }

    # ------------------------------------------------------------------
    # Publication
    # ------------------------------------------------------------------
    def _commit(self, new_id: int,
                updates: Dict[int, FragmentInfo]) -> SimGenerator:
        """Mutate the authoritative table, then publish the configuration:
        instances first (stale clients must bounce), then subscribers.

        The instant commit span shares the ``config_commit`` event's
        simulated instant: the timeline reconstructor cross-checks the
        two streams (id, time) pair by pair.
        """
        self._config_id = new_id
        for fid, info in updates.items():
            self._fragments[fid] = info
            if info.mode is not FragmentMode.RECOVERY:
                # A fallback dirty copy serves one recovery episode; a
                # fragment leaving recovery mode (by any transition)
                # must not hand it to a later episode.
                self._dirty_copy.pop(fid, None)
        config = self.current = self.current.evolve(new_id, updates)
        self._emit("config_commit", config=config)
        tracer = self.sim.tracer
        if tracer is not None:
            tracer.instant("config-commit", kind="commit",
                           config_id=new_id, updates=len(updates))
        self.publishes += 1
        calls = [self.network.call(instance,
                                   CacheOp(op="set_config", value=config))
                 for instance in self.alive_instances()]
        for call in calls:
            try:
                yield call
            except (NetworkError, StaleConfiguration):
                continue
        self.published = config
        for callback in self._subscribers:
            callback(config)

    def _create_dirty_lists(self, creates: List[tuple]) -> SimGenerator:
        """Initialize marker-bearing dirty lists on the new secondaries.

        ``creates`` entries are ``(secondary, fragment_id, fresh)``;
        ``fresh=False`` marks a resumed episode (Figure 4 arrow 5) whose
        list must survive from before — if the instance cannot certify
        that (missing or partial list) the fragment is unrecoverable.
        """
        for secondary, fragment_id, fresh in creates:
            try:
                complete = yield self.network.call(
                    secondary,
                    CacheOp(op="create_dirty", fragment_id=fragment_id,
                            client_cfg_id=self._config_id,
                            payload={"fresh": fresh}))
            except (NetworkError, StaleConfiguration):
                self.on_event("dirty_lost", fragment_id)
                continue
            if not complete:
                # The resumed episode's log lost its prefix while the
                # fragment was in recovery mode (eviction): give up on it
                # now rather than letting recovery trust a reset list.
                self.on_event("dirty_lost", fragment_id)

    # ------------------------------------------------------------------
    # Monitoring (instance hit ratios; WST termination, Section 3.2.2)
    # ------------------------------------------------------------------
    def start_monitor(self) -> None:
        """Sample alive instances' hit ratios every monitor_interval.

        Keeps the windowed hit ratio used as the h threshold snapshot at
        failure time.
        """
        self.sim.process(self._monitor_loop(), name="coord-monitor")

    def _monitor_loop(self) -> SimGenerator:
        while True:
            yield self.monitor_interval
            for address in self.alive_instances():
                try:
                    stats = yield self.network.call(
                        address, CacheOp(op="stats"))
                except (NetworkError, StaleConfiguration):
                    continue
                last = self._last_stats.get(address)
                if last is not None:
                    hits = stats["hits"] - last["hits"]
                    misses = stats["misses"] - last["misses"]
                    total = hits + misses
                    if total > 0:
                        self._window_hit[address] = hits / total
                self._last_stats[address] = stats

    def _wst_monitor(self, address: str):
        """Terminate the working-set transfer for `address`'s fragments
        once primary hit ratio > h or secondary WST miss ratio > m."""
        h = self.policy.wst_hit_threshold
        if h is None:
            captured = self._pre_failure_hit.get(address, 0.0)
            h = max(0.0, captured - self.policy.wst_epsilon)
        m = min(1.0, 1.0 - h + self.policy.wst_epsilon)
        started = self.sim.now
        # Fresh baseline per monitor: a previous outage of this primary
        # left its final totals here, and differencing against those
        # would poison this episode's miss-ratio window (negative or
        # zero deltas that suppress the m-threshold decision).
        self._last_wst_counts[address] = {"hits": 0, "misses": 0}
        while True:
            yield self.monitor_interval
            if self.sim.now - started > self.wst_max_duration:
                self.on_event("wst_done", address)
                return
            if address not in self._alive or not any(
                    f.primary == address and f.wst_active
                    for f in self._fragments.values()):
                return
            primary_hit = self._window_hit.get(address)
            if primary_hit is not None and h > 0 and primary_hit >= h:
                self.on_event("wst_done", address)
                return
            if self._wst_feedback is not None:
                episodes = sorted({
                    f.episode for f in self._fragments.values()
                    if f.primary == address and f.wst_active})
                counts = {"hits": 0, "misses": 0}
                for episode in episodes:
                    got = self._wst_feedback(address, episode)
                    counts["hits"] += got["hits"]
                    counts["misses"] += got["misses"]
                last = self._last_wst_counts[address]
                hits = counts["hits"] - last["hits"]
                misses = counts["misses"] - last["misses"]
                self._last_wst_counts[address] = dict(counts)
                total = hits + misses
                if total > 10 and misses / total >= m:
                    self.on_event("wst_done", address)
                    return

    # ------------------------------------------------------------------
    def fragment(self, fragment_id: int) -> FragmentInfo:
        return self._fragments[fragment_id]

    def home_of(self, fragment_id: int) -> str:
        return self._home[fragment_id]

    # ------------------------------------------------------------------
    # State replication (shadow coordinators, Section 2.1)
    # ------------------------------------------------------------------
    def snapshot_state(self) -> Dict[str, Any]:
        """Everything a shadow needs to take over."""
        return {
            "config": self.current,
            "config_id": self._config_id,
            "alive": set(self._alive),
            "home": dict(self._home),
            "pre_failure_cfg": dict(self._pre_failure_cfg),
            "recoverable": dict(self._recoverable),
            "dirty_done": set(self._dirty_done),
            "dirty_copy": {k: list(v) for k, v in self._dirty_copy.items()},
            "pre_failure_hit": dict(self._pre_failure_hit),
        }

    def restore_state(self, state: Dict[str, Any]) -> None:
        """Adopt a replicated snapshot (shadow promotion)."""
        self.current = state["config"]
        self.published = state["config"]
        self._config_id = state["config_id"]
        self._fragments = {f.fragment_id: f for f in self.current.fragments}
        self._alive = set(state["alive"])
        self._home = dict(state["home"])
        self._pre_failure_cfg = dict(state["pre_failure_cfg"])
        self._recoverable = dict(state["recoverable"])
        self._dirty_done = set(state["dirty_done"])
        self._dirty_copy = {k: list(v) for k, v in state["dirty_copy"].items()}
        self._pre_failure_hit = dict(state["pre_failure_hit"])
