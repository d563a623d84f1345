"""A small deterministic discrete-event simulation kernel.

The kernel is intentionally SimPy-flavoured: simulation actors are Python
generators that ``yield`` the things they wait for. Supported yields:

* a ``float``/``int`` — sleep for that many simulated seconds;
* a :class:`Timeout` — same, constructed explicitly;
* an :class:`Event` — wait until it is triggered (succeed or fail);
* a :class:`Process` — wait for another process to finish (its return
  value becomes the value of the ``yield`` expression);
* an :class:`AllOf` / :class:`AnyOf` — composite waits.

Determinism: events scheduled for the same simulated time fire in FIFO
order of scheduling (a monotonically increasing sequence number breaks
ties in the heap), so a fixed seed yields a bit-identical run.
"""

from __future__ import annotations

import weakref
from collections import deque
from heapq import heappop, heappush
from typing import (TYPE_CHECKING, Any, Callable, Deque, Dict, Generator,
                    Iterable, List, Optional, Tuple)

# geminilint: disable=GEM001 -- host busy-time counter only (see _perf below)
import time

from repro.errors import Interrupt, SimulationError

if TYPE_CHECKING:  # runtime import would be a cycle; hooks are optional
    from repro.obs.trace import Tracer
    from repro.sim.sanitizer import SimSanitizer

__all__ = ["Simulator", "Event", "Timeout", "Process", "AllOf", "AnyOf",
           "KernelCounters"]

_PENDING = object()

#: Host-CPU clock for the always-on per-process busy counter. This is the
#: only wall-clock read in the kernel; it feeds `Simulator.busy_profile`
#: (the repro.obs profiling report) and never influences simulated
#: behaviour — simulated time comes exclusively from the event heap.
# geminilint: disable=GEM001 -- host busy profile only; never in sim state
_perf = time.perf_counter

#: Simulation actors are plain generators; what they yield/receive is
#: heterogeneous by design (floats, Events, Processes), hence Any.
SimGenerator = Generator[Any, Any, Any]

#: A scheduled kernel callback with its pre-bound arguments.
_Callback = Callable[..., None]


class KernelCounters:
    """Always-on kernel profiling counters (O(1) per touch).

    These are plain monotone integers kept regardless of whether a
    tracer is installed: they cost one add/compare per scheduling
    decision and feed the :mod:`repro.obs.profile` report and benchmark
    result JSON. ``heap_high_water`` / ``now_queue_high_water`` expose
    the kernel's peak backlog, the usual first clue when a scenario's
    wall-clock time blows up.
    """

    __slots__ = ("steps", "events_created", "processes_created",
                 "heap_pushes", "heap_high_water", "now_queue_high_water")

    def __init__(self) -> None:
        self.steps = 0
        self.events_created = 0
        self.processes_created = 0
        self.heap_pushes = 0
        self.heap_high_water = 0
        self.now_queue_high_water = 0

    def to_dict(self) -> Dict[str, int]:
        return {name: getattr(self, name) for name in self.__slots__}




class Event:
    """A one-shot event that processes can wait on.

    An event starts *pending*; it is later *succeeded* with a value or
    *failed* with an exception. Waiting processes are resumed in the order
    they started waiting.
    """

    __slots__ = ("sim", "_value", "_exception", "_callbacks", "_dispatched",
                 "_san_observed", "__weakref__")

    def __init__(self, sim: "Simulator") -> None:
        self.sim = sim
        #: ``_PENDING`` until the event triggers; a failed event holds
        #: None here and its exception below, so ``_value is not
        #: _PENDING`` is the whole trigger test on the kernel's paths.
        self._value: Any = _PENDING
        self._exception: Optional[BaseException] = None
        self._callbacks: List[Callable[["Event"], None]] = []
        #: Set when the callbacks ran; a later add_callback schedules.
        self._dispatched = False
        #: Sanitizer bookkeeping: set once anything registered interest in
        #: this event (a waiter, run_until), so an unobserved process crash
        #: can be told apart from an awaited one.
        self._san_observed = False
        sim.counters.events_created += 1
        if sim.sanitizer is not None:
            sim.sanitizer.on_event_created(self)

    @property
    def triggered(self) -> bool:
        """True once the event has been succeeded or failed."""
        return self._value is not _PENDING

    @property
    def ok(self) -> bool:
        """True if the event succeeded (only meaningful once triggered)."""
        return self._value is not _PENDING and self._exception is None

    @property
    def value(self) -> Any:
        if self._value is _PENDING:
            raise SimulationError("event value read before trigger")
        if self._exception is not None:
            raise self._exception
        return self._value

    def succeed(self, value: Any = None) -> "Event":
        if self._value is not _PENDING:
            raise SimulationError("event already triggered")
        self._value = value
        self.sim._schedule_trigger(self)
        return self

    def fail(self, exception: BaseException) -> "Event":
        if self._value is not _PENDING:
            raise SimulationError("event already triggered")
        if not isinstance(exception, BaseException):
            raise SimulationError(f"fail() needs an exception, got {exception!r}")
        self._exception = exception
        self._value = None
        self.sim._schedule_trigger(self)
        return self

    def add_callback(self, callback: Callable[["Event"], None]) -> None:
        """Run ``callback(event)`` once the event triggers.

        If the event already triggered (and was dispatched), the callback
        runs at the current simulated time on the next kernel step.
        """
        if self.sim.sanitizer is not None:
            self._san_observed = True
        if self._dispatched:
            self.sim.schedule(0.0, callback, self)
        else:
            self._callbacks.append(callback)

    # -- kernel internals ------------------------------------------------
    def _dispatch(self) -> None:
        self._dispatched = True
        callbacks = self._callbacks
        if len(callbacks) == 1:
            # The common case (one waiter). Once dispatched, add_callback
            # schedules instead of appending, so nothing joins the list.
            callbacks.pop()(self)
            return
        for callback in callbacks:
            callback(self)
        callbacks.clear()


class Timeout(Event):
    """An event that succeeds after a fixed simulated delay."""

    __slots__ = ("delay",)

    def __init__(self, sim: "Simulator", delay: float, value: Any = None) -> None:
        if delay < 0:
            raise SimulationError(f"negative timeout {delay}")
        super().__init__(sim)
        self.delay = delay
        sim.schedule(delay, self._fire, value)

    def _fire(self, value: Any) -> None:
        if self._value is _PENDING:
            self.succeed(value)


class AllOf(Event):
    """Succeeds once every child event has triggered.

    Fails with the first child failure; the values of an all-success run
    are delivered as a list in child order. Children that already
    triggered before construction are accounted for immediately — a
    composite over resolved events resolves at construction instead of
    waiting (forever, if the kernel has drained) for a redispatch.
    """

    __slots__ = ("_children", "_remaining")

    def __init__(self, sim: "Simulator", events: Iterable[Event]) -> None:
        super().__init__(sim)
        self._children = list(events)
        self._remaining = len(self._children)
        if self._remaining == 0:
            self.succeed([])
            return
        for child in self._children:
            if child._value is not _PENDING:
                if child._exception is not None:
                    self.fail(child._exception)
                    return
                self._remaining -= 1
            else:
                child.add_callback(self._on_child)
        if self._remaining == 0:
            self.succeed([c._value for c in self._children])

    def _on_child(self, child: Event) -> None:
        if self._value is not _PENDING:
            return
        if child._exception is not None:
            self.fail(child._exception)
            return
        self._remaining -= 1
        if self._remaining == 0:
            self.succeed([c._value for c in self._children])


class AnyOf(Event):
    """Succeeds (or fails) with the first child event that triggers.

    The success value is the ``(index, value)`` pair of the winner. An
    already-triggered child wins at construction (first in child order),
    instead of the composite waiting for a redispatch that never comes
    once the kernel has drained.
    """

    __slots__ = ("_children",)

    def __init__(self, sim: "Simulator", events: Iterable[Event]) -> None:
        super().__init__(sim)
        self._children = list(events)
        if not self._children:
            raise SimulationError("AnyOf needs at least one event")
        for index, child in enumerate(self._children):
            if self._value is not _PENDING:
                break  # a pre-resolved child already won
            if child._value is not _PENDING:
                self._on_child(index, child)
            else:
                child.add_callback(lambda c, i=index: self._on_child(i, c))

    def _on_child(self, index: int, child: Event) -> None:
        if self._value is not _PENDING:
            return
        if child._exception is None:
            self.succeed((index, child._value))
        else:
            self.fail(child._exception)


class Process(Event):
    """A generator-based simulation actor.

    A process is itself an :class:`Event` that triggers when the generator
    returns (success, value = the generator's return value) or raises
    (failure). This is how ``yield other_process`` composes.
    """

    __slots__ = ("name", "_generator", "_waiting_on", "_interrupt_cause",
                 "_wait_epoch", "busy_time", "_san_label")

    def __init__(self, sim: "Simulator", generator: SimGenerator,
                 name: str = "") -> None:
        super().__init__(sim)
        if not hasattr(generator, "send"):
            raise SimulationError(f"Process needs a generator, got {generator!r}")
        self.name = name or getattr(generator, "__name__", "process")
        self._generator = generator
        self._waiting_on: Optional[Event] = None
        self._interrupt_cause: Any = _PENDING
        #: Invalidates in-flight sleep timers after an interrupt.
        self._wait_epoch = 0
        #: Host-CPU seconds spent stepping this process (busy counter);
        #: folded into ``sim.busy_wall`` by name when the process ends.
        self.busy_time = 0.0
        #: The interleaving sanitizer's label for this process, set the
        #: first time the sanitizer sees it.
        self._san_label: Optional[str] = None
        sim.counters.processes_created += 1
        sim._live_processes.add(self)
        if sim.sanitizer is not None:
            sim.sanitizer.on_process_created(self)
        if sim.tracer is not None:
            sim.tracer.on_process_created(self)
        sim.schedule(0.0, self._resume, None, None)

    def interrupt(self, cause: Any = None) -> None:
        """Inject an :class:`~repro.errors.Interrupt` into the process.

        The interrupt is raised at the process's current (or next) yield
        point. Interrupting a finished process is a no-op, and so is a
        second interrupt before the first one is delivered: the first
        cause wins and no redundant delivery is scheduled.
        """
        if self._value is not _PENDING:
            return
        if self._interrupt_cause is not _PENDING:
            return  # an interrupt is already in flight; first cause wins
        self._interrupt_cause = cause
        self._wait_epoch += 1  # cancel any in-flight sleep timer
        self._waiting_on = None
        # Resume immediately at the current simulated time; the stale
        # callback left on the awaited event is ignored via the
        # _waiting_on check.
        self.sim.schedule(0.0, self._deliver_interrupt)

    def _deliver_interrupt(self) -> None:
        if self._value is not _PENDING or self._interrupt_cause is _PENDING:
            return
        cause, self._interrupt_cause = self._interrupt_cause, _PENDING
        self._step(Interrupt(cause), is_exception=True)

    def _on_wait_complete(self, event: Event) -> None:
        if self._waiting_on is not event:
            return  # superseded by an interrupt
        self._waiting_on = None
        if self._value is not _PENDING:
            return
        exception = event._exception
        if exception is None:
            self._step(event._value, False)
        else:
            self._step(exception, True)

    def _resume(self, value: Any, exception: Optional[BaseException]) -> None:
        if self._value is not _PENDING:
            return
        if exception is not None:
            self._step(exception, is_exception=True)
        else:
            self._step(value, is_exception=False)

    def _step(self, payload: Any, is_exception: bool) -> None:
        # Each _step is one inter-yield segment: the sanitizer (when
        # installed) attributes every footprint recorded inside it to
        # this process and treats the segment as an atomic section. The
        # tracer needs no per-step hook: it reads ``sim.current_process``
        # (maintained here) when a span is opened or closed.
        sim = self.sim
        sanitizer = sim.sanitizer
        if sanitizer is not None:
            sanitizer.enter_process(self)
        previous = sim.current_process
        sim.current_process = self
        started = _perf()
        try:
            try:
                if is_exception:
                    target = self._generator.throw(payload)
                else:
                    target = self._generator.send(payload)
            except StopIteration as stop:
                if sim.tracer is not None:
                    sim.tracer.on_process_end(self)
                sim._retire_process(self)
                self.succeed(stop.value)
                return
            except BaseException as exc:  # noqa: BLE001 - propagate to waiters
                if sanitizer is not None:
                    sanitizer.on_process_crash(self, exc)
                if sim.tracer is not None:
                    # Orphan-close the crashed process's open spans, then
                    # release its context — a crash must never leak spans.
                    sim.tracer.on_process_crash(self, exc)
                    sim.tracer.on_process_end(self)
                sim._retire_process(self)
                self.fail(exc)
                return
            if isinstance(target, Event):
                # Wait on the event (Event.add_callback, inlined).
                self._waiting_on = target
                if sim.sanitizer is not None:
                    target._san_observed = True
                if target._dispatched:
                    sim.schedule(0.0, self._on_wait_complete, target)
                else:
                    target._callbacks.append(self._on_wait_complete)
            else:
                self._sleep(target)
        finally:
            self.busy_time += _perf() - started
            sim.current_process = previous
            if sanitizer is not None:
                sanitizer.exit_process(self)

    def _sleep(self, target: Any) -> None:
        if isinstance(target, (int, float)):
            # A plain sleep needs no Event machinery.
            if target < 0:
                self._step(SimulationError(f"negative timeout {target}"),
                           is_exception=True)
                return
            self._wait_epoch += 1
            self.sim.schedule(float(target), self._timer_resume,
                              self._wait_epoch)
            return
        self._step(
            SimulationError(f"process {self.name} yielded {target!r}"),
            is_exception=True,
        )

    def _timer_resume(self, epoch: int) -> None:
        if self._value is not _PENDING or epoch != self._wait_epoch:
            return  # superseded by an interrupt
        self._step(None, is_exception=False)


class Simulator:
    """The event loop: a heap of (time, seq, callback) entries."""

    def __init__(self) -> None:
        self.now: float = 0.0
        self._heap: List[Tuple[float, int, _Callback, Tuple[Any, ...]]] = []
        #: Zero-delay callbacks: FIFO at the current instant, bypassing
        #: the heap (the majority of kernel events are dispatches).
        self._now_queue: Deque[Tuple[_Callback, Tuple[Any, ...]]] = deque()
        self._seq = 0
        self._running = False
        #: Optional interleaving sanitizer (repro.sim.sanitizer); hooks
        #: throughout the kernel are no-ops while this stays None.
        self.sanitizer: Optional["SimSanitizer"] = None
        #: Optional causal tracer (repro.obs.trace); same contract as the
        #: sanitizer hook — passive, no-op while None.
        self.tracer: Optional["Tracer"] = None
        #: Always-on profiling counters (cheap; see KernelCounters).
        self.counters = KernelCounters()
        #: The process currently being stepped, or None in kernel
        #: callbacks / harness code. Maintained by Process._step; read by
        #: the tracer for actor attribution.
        self.current_process: Optional[Process] = None
        #: Host-CPU busy seconds per process name, folded in when each
        #: process ends (see busy_profile for still-live processes).
        self.busy_wall: Dict[str, float] = {}
        self._live_processes: "weakref.WeakSet[Process]" = weakref.WeakSet()

    def _retire_process(self, process: Process) -> None:
        """Fold a finished process's busy counter into the profile."""
        busy = process.busy_time
        if busy:
            name = process.name
            self.busy_wall[name] = self.busy_wall.get(name, 0.0) + busy
            process.busy_time = 0.0
        self._live_processes.discard(process)

    def busy_profile(self) -> Dict[str, float]:
        """Host-CPU busy seconds per process name, including live ones.

        Host wall-clock, NOT deterministic: callers embedding it in
        fingerprinted artifacts must drop it (see repro.obs.profile).
        """
        out = dict(self.busy_wall)
        for process in self._live_processes:
            if process.busy_time:
                out[process.name] = (out.get(process.name, 0.0)
                                     + process.busy_time)
        return out

    # -- scheduling ------------------------------------------------------
    def schedule(self, delay: float, callback: _Callback,
                 *args: Any) -> None:
        """Run ``callback(*args)`` after ``delay`` simulated seconds."""
        if delay == 0:
            now_queue = self._now_queue
            now_queue.append((callback, args))
            if len(now_queue) > self.counters.now_queue_high_water:
                self.counters.now_queue_high_water = len(now_queue)
            return
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        self._seq = seq = self._seq + 1
        heap = self._heap
        heappush(heap, (self.now + delay, seq, callback, args))
        counters = self.counters
        counters.heap_pushes += 1
        if len(heap) > counters.heap_high_water:
            counters.heap_high_water = len(heap)

    def schedule_at(self, when: float, callback: _Callback,
                    *args: Any) -> None:
        """Run ``callback(*args)`` at absolute simulated time ``when``."""
        if when < self.now:
            raise SimulationError(f"cannot schedule in the past ({when} < {self.now})")
        self.schedule(when - self.now, callback, *args)

    def _schedule_trigger(self, event: Event) -> None:
        now_queue = self._now_queue
        now_queue.append((event._dispatch, ()))
        if len(now_queue) > self.counters.now_queue_high_water:
            self.counters.now_queue_high_water = len(now_queue)

    # -- fused zero-delay steps (docs/DETERMINISM.md, "Kernel hot path") --
    def run_next(self, callback: _Callback, args: Tuple[Any, ...],
                 first: Optional[Callable[[], None]] = None) -> None:
        """Make ``callback(*args)`` the step after the current one; then
        run ``first()``, if given, as the rest of the current step.

        This must be the current step's last action. When nothing is
        queued at this instant the callback would be the very next step,
        so it runs here, after ``first`` and counted as a step of its
        own; otherwise it is queued, ahead of anything ``first`` queues.
        Either way every callback runs in the same order.
        """
        now_queue = self._now_queue
        if now_queue:
            now_queue.append((callback, args))
            if len(now_queue) > self.counters.now_queue_high_water:
                self.counters.now_queue_high_water = len(now_queue)
            if first is not None:
                first()
            return
        if first is not None:
            first()
        self.counters.steps += 1
        callback(*args)

    def trigger_last(self, event: Event, value: Any,
                     exception: Optional[BaseException]) -> None:
        """Succeed ``event`` with ``value`` (or fail it with ``exception``)
        as the last action of the current step; its dispatch is the next
        step (:meth:`run_next`).
        """
        if event._value is not _PENDING:
            raise SimulationError("event already triggered")
        if exception is None:
            event._value = value
        else:
            event._exception = exception
            event._value = None
        self.run_next(event._dispatch, ())

    # -- factories -------------------------------------------------------
    def event(self) -> Event:
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        return Timeout(self, delay, value)

    def process(self, generator: SimGenerator, name: str = "") -> Process:
        return Process(self, generator, name)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        return AnyOf(self, events)

    # -- execution -------------------------------------------------------
    def run(self, until: Optional[float] = None) -> float:
        """Run until the queues drain or the clock reaches ``until``.

        When ``until`` is given the clock is advanced exactly to it even if
        the work drained earlier, which keeps time-based assertions simple.
        """
        self._loop(until, None)
        if until is not None and self.now < until:
            self.now = until
        return self.now

    def run_until(self, event: Event, limit: Optional[float] = None) -> Any:
        """Run until ``event`` triggers; returns its value (or raises).

        ``limit`` bounds the simulated time to guard against deadlocks.
        """
        self._loop(limit, event)
        return event.value

    def _loop(self, horizon: Optional[float], event: Optional[Event]) -> None:
        """The one execution loop behind :meth:`run` and :meth:`run_until`.

        Each step runs the next callback: the now-queue's first, or else
        the heap's earliest, stopping before a heap entry past
        ``horizon``. With an ``event`` it stops once that event was
        dispatched and raises where ``run`` would stop.
        """
        if self._running:
            raise SimulationError("simulator is not reentrant")
        if event is not None and self.sanitizer is not None:
            event._san_observed = True
        self._running = True
        now_queue = self._now_queue
        popleft = now_queue.popleft
        heap = self._heap
        steps = 0
        try:
            while event is None or not event._dispatched:
                if now_queue:
                    callback, args = popleft()
                elif heap:
                    if horizon is not None and heap[0][0] > horizon:
                        if event is None:
                            break
                        raise SimulationError(
                            f"event not triggered by t={horizon}")
                    self.now, __, callback, args = heappop(heap)
                elif event is None:
                    break
                else:
                    raise SimulationError(
                        "simulation deadlocked waiting for event")
                steps += 1
                callback(*args)
        finally:
            self.counters.steps += steps
            self._running = False
