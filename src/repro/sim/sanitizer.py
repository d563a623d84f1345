"""GeminiSan runtime side: an opt-in interleaving sanitizer for the kernel.

Every protocol bug this repo has shipped had the same shape: a process
reads shared protocol state, yields to the cooperative kernel, and then
acts on the now-stale read — a TOCTOU across a yield point. The static
rules (GEM007-GEM009, :mod:`repro.analysis.interleave`, reading the
per-function scan and may-yield/lock fixpoint of
:class:`repro.analysis.flow.FlowProject`) catch the lexical shape;
:class:`SimSanitizer` catches the *dynamic* one by
tagging each inter-yield segment of every :class:`~repro.sim.core.Process`
as an atomic section and recording shared-object access footprints
through lightweight hooks in the kernel (`sim/core.py`, `sim/sync.py`)
and the data layer (`cache/instance.py`, `cache/dirtylist.py`,
`config/configuration.py`).

It reports (see ``docs/SANITIZER.md`` for the full catalogue):

* ``stale-read`` — another actor's write interleaved between a
  segment's read of a shared cell and its dependent write of the same
  cell (checked only for *paired* domains, by default ``config_id``;
  dirty-list and cache-entry footprints are recorded but check-
  suppressed because the IQ lease protocol makes those check-then-act
  windows safe by design).
* ``lock-order`` — runtime lock-acquisition-order cycles over
  ``Mutex``/``Semaphore``/Redlease, plus non-reentrant re-acquisition.
* ``lock-underflow`` — ``Semaphore.release()`` without a matching
  acquire (the kernel also raises ``SimulationError``).
* ``red-exclusion`` — a Redlease granted while a different actor holds
  an unexpired lease on the same resource (mutual exclusion broken).
* ``config-epoch`` — a committed configuration id that does not advance
  the global maximum (duplicate or regressing transition: split-brain).
* ``crashed-process`` — a process died on an exception nobody observed
  (fire-and-forget crash swallowed by the kernel).
* ``leaked-event`` / ``leaked-process`` / ``stranded-waiters`` — at a
  *drained* teardown, never-triggered events with registered callbacks,
  never-finished processes, and semaphore wait queues that can no
  longer make progress.

The sanitizer is passive: it never schedules kernel work, so a clean
run's event order — and therefore the chaos fingerprint — is identical
with and without ``--sanitize``.
"""

from __future__ import annotations

import weakref
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import (TYPE_CHECKING, Dict, Iterator, List, Optional, Set,
                    Tuple)

from repro.errors import Interrupt

if TYPE_CHECKING:  # no runtime import: the kernel imports us for hooks
    from repro.sim.core import Event, Process, Simulator
    from repro.sim.sync import Semaphore

__all__ = ["SanitizerFinding", "SimSanitizer", "active"]

#: Actor label used for code running outside any tracked process
#: (kernel callbacks, test harness code, cluster construction).
KERNEL_ACTOR = "<kernel>"

#: Hard cap on retained findings; a broken mutant can fire thousands of
#: identical violations per trial and we only need enough to diagnose.
MAX_FINDINGS = 200

_ACTIVE: Optional["SimSanitizer"] = None


def active() -> Optional["SimSanitizer"]:
    """The installed sanitizer, or ``None`` (the hot-path hook check)."""
    return _ACTIVE


@dataclass(frozen=True)
class SanitizerFinding:
    """One runtime interleaving violation."""

    kind: str
    time: float
    actor: str
    message: str

    def __str__(self) -> str:
        return (f"[sanitizer:{self.kind}] t={self.time:.6f} "
                f"actor={self.actor}: {self.message}")


@dataclass
class _Cell:
    """Version clock for one shared cell ``(domain, key)``."""

    version: int = 0
    last_writer: str = KERNEL_ACTOR
    last_write_time: float = 0.0


@dataclass(frozen=True)
class _ReadRecord:
    version: int
    time: float
    segment: int


@dataclass
class _CrashRecord:
    process: "Process"
    label: str
    time: float
    exception: BaseException


@dataclass
class _Stats:
    """Instrumentation counters (cheap observability for SANITIZER.md)."""

    reads: int = 0
    writes: int = 0
    segments: int = 0
    lock_acquires: int = 0
    dropped_findings: int = 0
    domains: Set[str] = field(default_factory=set)


class SimSanitizer:
    """Opt-in dynamic race detector for one :class:`Simulator`.

    Usage::

        sanitizer = SimSanitizer(sim)
        sanitizer.install()
        try:
            ...  # run the workload
            findings = sanitizer.finish()
        finally:
            sanitizer.uninstall()

    ``paired_domains`` selects which footprint domains get the full
    read/write pairing check; the rest are recorded as footprints only.
    Only one sanitizer can be installed at a time (module-global hook).
    """

    def __init__(self, sim: "Simulator",
                 paired_domains: Optional[Set[str]] = None) -> None:
        self.sim = sim
        self.paired_domains: Set[str] = (
            {"config_id"} if paired_domains is None else set(paired_domains))
        self.findings: List[SanitizerFinding] = []
        self.stats = _Stats()
        self._finished = False
        # -- actor attribution ------------------------------------------
        self._actor_stack: List[str] = []
        #: Every label handed out, by sequence number. The process keeps
        #: its own label (``Process._san_label``) rather than a map keyed
        #: by id(): a new process can reuse a freed one's address, and
        #: must not inherit its label, held locks or read records.
        self._proc_labels: Dict[int, str] = {}
        self._proc_seq = 0
        # per-actor atomic-section counter: bumped every time the actor
        # regains control, so a read and a write in different segments
        # are known to straddle at least one yield point.
        self._segments: Dict[str, int] = {}
        # -- shared-state footprints ------------------------------------
        self._cells: Dict[Tuple[str, str], _Cell] = {}
        self._reads: Dict[Tuple[str, str, str], _ReadRecord] = {}
        # -- locks -------------------------------------------------------
        self._lock_labels: Dict[int, str] = {}
        self._locks: List["Semaphore"] = []
        self._lock_seq = 0
        self._held: Dict[str, List[str]] = {}
        self._pending_waiters: Dict[int, str] = {}
        self._lock_edges: Dict[str, Set[str]] = {}
        self._cycles_reported: Set[frozenset[str]] = set()
        # -- red leases --------------------------------------------------
        self._red_holders: Dict[Tuple[str, str], Tuple[int, str]] = {}
        # -- configuration epochs ---------------------------------------
        self._max_config_id: Optional[int] = None
        # -- event / process registries (weak: a collected event cannot
        #    be leaked — nobody could ever trigger or observe it) -------
        self._events: List["weakref.ref[Event]"] = []
        self._procs: List["weakref.ref[Process]"] = []
        self._crashes: List[_CrashRecord] = []

    # -- lifecycle -------------------------------------------------------

    def install(self) -> None:
        global _ACTIVE
        if _ACTIVE is not None and _ACTIVE is not self:
            raise RuntimeError("another SimSanitizer is already installed")
        _ACTIVE = self
        self.sim.sanitizer = self

    def uninstall(self) -> None:
        global _ACTIVE
        if _ACTIVE is self:
            _ACTIVE = None
        if self.sim.sanitizer is self:
            self.sim.sanitizer = None

    @property
    def ok(self) -> bool:
        return not self.findings

    def _finding(self, kind: str, message: str,
                 actor: Optional[str] = None) -> None:
        if len(self.findings) >= MAX_FINDINGS:
            self.stats.dropped_findings += 1
            return
        self.findings.append(SanitizerFinding(
            kind=kind, time=self.sim.now,
            actor=self.current_actor if actor is None else actor,
            message=message))

    # -- actor attribution ----------------------------------------------

    @property
    def current_actor(self) -> str:
        return self._actor_stack[-1] if self._actor_stack else KERNEL_ACTOR

    def _label_for(self, process: "Process") -> str:
        label = process._san_label
        if label is None:
            # deterministic sequential numbering: never id()-derived, so
            # findings are byte-stable across runs and machines.
            self._proc_seq += 1
            name = getattr(process, "name", "") or "process"
            label = f"{name}#{self._proc_seq}"
            self._proc_labels[self._proc_seq] = label
            process._san_label = label
        return label

    def enter_process(self, process: "Process") -> None:
        label = self._label_for(process)
        self._actor_stack.append(label)
        self._segments[label] = self._segments.get(label, 0) + 1
        self.stats.segments += 1

    def exit_process(self, process: "Process") -> None:
        if self._actor_stack:
            self._actor_stack.pop()

    @contextmanager
    def acting_as(self, actor: Optional[str]) -> Iterator[None]:
        """Attribute synchronous handler work to the RPC's source actor.

        Request handlers run in kernel-callback context inside
        ``Network._serve``; without this, every footprint they record
        would be blamed on ``<kernel>`` instead of the calling session.
        """
        label = actor if actor else KERNEL_ACTOR
        self._actor_stack.append(label)
        self._segments[label] = self._segments.get(label, 0) + 1
        self.stats.segments += 1
        try:
            yield
        finally:
            self._actor_stack.pop()

    # -- shared-state footprints ----------------------------------------

    def record_read(self, domain: str, key: str) -> None:
        self.stats.reads += 1
        self.stats.domains.add(domain)
        if domain not in self.paired_domains:
            return
        cell = self._cells.get((domain, key))
        actor = self.current_actor
        self._reads[(actor, domain, key)] = _ReadRecord(
            version=0 if cell is None else cell.version,
            time=self.sim.now,
            segment=self._segments.get(actor, 0))

    def record_write(self, domain: str, key: str) -> None:
        self.stats.writes += 1
        self.stats.domains.add(domain)
        actor = self.current_actor
        cell = self._cells.setdefault((domain, key), _Cell())
        if domain in self.paired_domains:
            read = self._reads.pop((actor, domain, key), None)
            if (read is not None and cell.version != read.version
                    and cell.last_writer != actor):
                crossed = self._segments.get(actor, 0) - read.segment
                self._finding(
                    "stale-read",
                    f"{domain}[{key}]: dependent write based on a read from "
                    f"t={read.time:.6f} ({crossed} yield point(s) ago), but "
                    f"{cell.last_writer} wrote the cell at "
                    f"t={cell.last_write_time:.6f} in between")
        cell.version += 1
        cell.last_writer = actor
        cell.last_write_time = self.sim.now

    # -- locks ----------------------------------------------------------

    def _lock_label(self, lock: "Semaphore") -> str:
        label = self._lock_labels.get(id(lock))
        if label is None:
            self._lock_seq += 1
            name = getattr(lock, "name", "") or ""
            label = name or f"{type(lock).__name__.lower()}-{self._lock_seq}"
            self._lock_labels[id(lock)] = label
            self._locks.append(lock)
        return label

    def _add_lock_edge(self, held: str, wanted: str) -> None:
        edges = self._lock_edges.setdefault(held, set())
        if wanted in edges:
            return
        edges.add(wanted)
        cycle = self._find_cycle(wanted, held)
        if cycle is not None:
            key = frozenset(cycle)
            if key not in self._cycles_reported:
                self._cycles_reported.add(key)
                self._finding(
                    "lock-order",
                    "acquisition-order cycle: "
                    + " -> ".join(cycle + [cycle[0]]))

    def _find_cycle(self, start: str, goal: str) -> Optional[List[str]]:
        """DFS ``start -> ... -> goal`` (the new edge closes the cycle)."""
        stack: List[Tuple[str, List[str]]] = [(start, [start])]
        seen: Set[str] = set()
        while stack:
            node, path = stack.pop()
            if node == goal:
                return path
            if node in seen:
                continue
            seen.add(node)
            for nxt in sorted(self._lock_edges.get(node, ())):
                stack.append((nxt, path + [nxt]))
        return None

    def on_lock_acquire(self, lock: "Semaphore", event: "Event",
                        immediate: bool) -> None:
        self.stats.lock_acquires += 1
        label = self._lock_label(lock)
        actor = self.current_actor
        held = self._held.setdefault(actor, [])
        for held_label in held:
            if held_label == label:
                self._finding(
                    "lock-order",
                    f"{label} re-acquired while already held "
                    f"(non-reentrant: guaranteed self-deadlock under "
                    f"contention)")
            else:
                self._add_lock_edge(held_label, label)
        if immediate:
            held.append(label)
        else:
            self._pending_waiters[id(event)] = actor

    def on_lock_grant(self, lock: "Semaphore", event: "Event") -> None:
        """A queued waiter inherits the releasing holder's slot."""
        label = self._lock_label(lock)
        waiter = self._pending_waiters.pop(id(event), None)
        self._drop_held(self.current_actor, label)
        if waiter is not None:
            self._held.setdefault(waiter, []).append(label)

    def on_lock_release(self, lock: "Semaphore") -> None:
        self._drop_held(self.current_actor, self._lock_label(lock))

    def on_lock_underflow(self, lock: "Semaphore") -> None:
        self._finding(
            "lock-underflow",
            f"{self._lock_label(lock)} released without a matching acquire")

    def _drop_held(self, actor: str, label: str) -> None:
        held = self._held.get(actor)
        if held is not None and label in held:
            held.remove(label)
            return
        # released by a different frame than the acquirer (e.g. a
        # supervisor cleaning up): scan and drop the first occurrence.
        for other in self._held.values():
            if label in other:
                other.remove(label)
                return

    # -- red leases ------------------------------------------------------

    def on_red_acquire(self, address: str, resource: str, token: int,
                       holder_alive: bool) -> None:
        actor = self.current_actor
        key = (address, resource)
        if holder_alive:
            prev = self._red_holders.get(key)
            holder = prev[1] if prev is not None else "<unknown>"
            if prev is None or holder != actor:
                self._finding(
                    "red-exclusion",
                    f"Redlease on {resource!r} at {address} granted to "
                    f"{actor} while {holder} holds an unexpired lease")
        self._red_holders[key] = (token, actor)
        label = f"red:{address}:{resource}"
        held = self._held.setdefault(actor, [])
        for held_label in held:
            if held_label != label:
                self._add_lock_edge(held_label, label)
        held.append(label)

    def on_red_release(self, address: str, resource: str) -> None:
        self._red_holders.pop((address, resource), None)
        self._drop_held(self.current_actor, f"red:{address}:{resource}")

    # -- configuration epochs -------------------------------------------

    def on_config_evolve(self, old_id: int, new_id: int) -> None:
        if self._max_config_id is not None and new_id <= self._max_config_id:
            self._finding(
                "config-epoch",
                f"configuration id {new_id} (evolved from {old_id}) does "
                f"not advance the committed maximum {self._max_config_id} "
                f"— duplicate or regressing transition")
        if self._max_config_id is None or new_id > self._max_config_id:
            self._max_config_id = new_id

    # -- event / process lifecycle --------------------------------------

    def on_event_created(self, event: "Event") -> None:
        self._events.append(weakref.ref(event))

    def on_process_created(self, process: "Process") -> None:
        self._label_for(process)
        self._procs.append(weakref.ref(process))

    def on_process_crash(self, process: "Process",
                         exception: BaseException) -> None:
        self._crashes.append(_CrashRecord(
            process=process, label=self._label_for(process),
            time=self.sim.now, exception=exception))

    # -- teardown --------------------------------------------------------

    def finish(self) -> List[SanitizerFinding]:
        """Run the teardown checks and return all findings.

        Crash reporting always runs. The leak checks (never-triggered
        events with observers, never-finished processes, stranded lock
        waiters) only run when the simulator *drained* — a run stopped
        at a time horizon legitimately strands in-flight work.
        """
        if self._finished:
            return self.findings
        self._finished = True
        from repro.sim.core import Process, Timeout

        for crash in self._crashes:
            if isinstance(crash.exception, Interrupt):
                continue  # deliberate cancellation (e.g. worker.stop())
            if getattr(crash.process, "_san_observed", False):
                continue  # somebody awaited it; the error propagated
            self._finding(
                "crashed-process",
                f"died unobserved at t={crash.time:.6f}: "
                f"{type(crash.exception).__name__}: {crash.exception}",
                actor=crash.label)

        drained = not self.sim._now_queue and not self.sim._heap
        if drained:
            for proc_ref in self._procs:
                process = proc_ref()
                if process is not None and not process.triggered:
                    self._finding(
                        "leaked-process",
                        f"{self._label_for(process)} never finished and "
                        f"nothing remains scheduled to resume it",
                        actor=self._label_for(process))
            for event_ref in self._events:
                event = event_ref()
                if (event is None or event.triggered
                        or isinstance(event, (Process, Timeout))
                        or not event._callbacks
                        or id(event) in self._pending_waiters):
                    continue  # lock waiters get the stranded-waiters report
                self._finding(
                    "leaked-event",
                    f"event with {len(event._callbacks)} registered "
                    f"callback(s) can never trigger (created by "
                    f"{self._event_origin(event)})",
                    actor=KERNEL_ACTOR)
            for lock in self._locks:
                waiting = len(getattr(lock, "_waiters", ()))
                if waiting:
                    self._finding(
                        "stranded-waiters",
                        f"{self._lock_label(lock)} still has {waiting} "
                        f"queued waiter(s) with the simulator drained",
                        actor=KERNEL_ACTOR)
        return self.findings

    @staticmethod
    def _event_origin(event: "Event") -> str:
        return type(event).__name__
