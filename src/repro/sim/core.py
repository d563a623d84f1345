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

import heapq
import weakref
from collections import deque
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

    def __init__(self, sim: "Simulator") -> None:
        self.sim = sim
        self._value: Any = _PENDING
        self._exception: Optional[BaseException] = None
        self._callbacks: List[Callable[["Event"], None]] = []
        sim.counters.events_created += 1
        if sim.sanitizer is not None:
            sim.sanitizer.on_event_created(self)

    @property
    def triggered(self) -> bool:
        """True once the event has been succeeded or failed."""
        return self._value is not _PENDING or self._exception is not None

    @property
    def ok(self) -> bool:
        """True if the event succeeded (only meaningful once triggered)."""
        return self.triggered and self._exception is None

    @property
    def value(self) -> Any:
        if not self.triggered:
            raise SimulationError("event value read before trigger")
        if self._exception is not None:
            raise self._exception
        return self._value

    def succeed(self, value: Any = None) -> "Event":
        if self.triggered:
            raise SimulationError("event already triggered")
        self._value = value
        self.sim._schedule_trigger(self)
        return self

    def fail(self, exception: BaseException) -> "Event":
        if self.triggered:
            raise SimulationError("event already triggered")
        if not isinstance(exception, BaseException):
            raise SimulationError(f"fail() needs an exception, got {exception!r}")
        self._exception = exception
        self.sim._schedule_trigger(self)
        return self

    def add_callback(self, callback: Callable[["Event"], None]) -> None:
        """Run ``callback(event)`` once the event triggers.

        If the event already triggered (and was dispatched), the callback
        runs at the current simulated time on the next kernel step.
        """
        if self.sim.sanitizer is not None:
            self._san_observed = True
        if self.triggered and self._dispatched:
            self.sim.schedule(0.0, callback, self)
        else:
            self._callbacks.append(callback)

    # -- kernel internals ------------------------------------------------
    _dispatched: bool = False
    #: Sanitizer bookkeeping: set once anything registered interest in
    #: this event (a waiter, run_until), so an unobserved process crash
    #: can be told apart from an awaited one.
    _san_observed: bool = False

    def _dispatch(self) -> None:
        self._dispatched = True
        callbacks, self._callbacks = self._callbacks, []
        for callback in callbacks:
            callback(self)


class Timeout(Event):
    """An event that succeeds after a fixed simulated delay."""

    def __init__(self, sim: "Simulator", delay: float, value: Any = None) -> None:
        if delay < 0:
            raise SimulationError(f"negative timeout {delay}")
        super().__init__(sim)
        self.delay = delay
        sim.schedule(delay, self._fire, value)

    def _fire(self, value: Any) -> None:
        if not self.triggered:
            self.succeed(value)


class AllOf(Event):
    """Succeeds once every child event has triggered.

    Fails with the first child failure; the values of an all-success run
    are delivered as a list in child order. Children that already
    triggered before construction are accounted for immediately — a
    composite over resolved events resolves at construction instead of
    waiting (forever, if the kernel has drained) for a redispatch.
    """

    def __init__(self, sim: "Simulator", events: Iterable[Event]) -> None:
        super().__init__(sim)
        self._children = list(events)
        self._remaining = len(self._children)
        if self._remaining == 0:
            self.succeed([])
            return
        for child in self._children:
            if child.triggered:
                if not child.ok:
                    assert child._exception is not None  # not ok => failed
                    self.fail(child._exception)
                    return
                self._remaining -= 1
            else:
                child.add_callback(self._on_child)
        if self._remaining == 0:
            self.succeed([c.value for c in self._children])

    def _on_child(self, child: Event) -> None:
        if self.triggered:
            return
        if not child.ok:
            assert child._exception is not None  # not ok => failed
            self.fail(child._exception)
            return
        self._remaining -= 1
        if self._remaining == 0:
            self.succeed([c.value for c in self._children])


class AnyOf(Event):
    """Succeeds (or fails) with the first child event that triggers.

    The success value is the ``(index, value)`` pair of the winner. An
    already-triggered child wins at construction (first in child order),
    instead of the composite waiting for a redispatch that never comes
    once the kernel has drained.
    """

    def __init__(self, sim: "Simulator", events: Iterable[Event]) -> None:
        super().__init__(sim)
        self._children = list(events)
        if not self._children:
            raise SimulationError("AnyOf needs at least one event")
        for index, child in enumerate(self._children):
            if self.triggered:
                break  # a pre-resolved child already won
            if child.triggered:
                self._on_child(index, child)
            else:
                child.add_callback(lambda c, i=index: self._on_child(i, c))

    def _on_child(self, index: int, child: Event) -> None:
        if self.triggered:
            return
        if child.ok:
            self.succeed((index, child.value))
        else:
            assert child._exception is not None  # not ok => failed
            self.fail(child._exception)


class Process(Event):
    """A generator-based simulation actor.

    A process is itself an :class:`Event` that triggers when the generator
    returns (success, value = the generator's return value) or raises
    (failure). This is how ``yield other_process`` composes.
    """

    #: The interleaving sanitizer's label for this process, set the
    #: first time the sanitizer sees it.
    _san_label: Optional[str] = None

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
        if self.triggered:
            return
        if self._interrupt_cause is not _PENDING:
            return  # an interrupt is already in flight; first cause wins
        self._interrupt_cause = cause
        self._wait_epoch += 1  # cancel any in-flight sleep timer
        waiting, self._waiting_on = self._waiting_on, None
        # Resume immediately at the current simulated time; the stale
        # callback left on `waiting` is ignored via the _waiting_on check.
        self.sim.schedule(0.0, self._deliver_interrupt)

    def _deliver_interrupt(self) -> None:
        if self.triggered or self._interrupt_cause is _PENDING:
            return
        cause, self._interrupt_cause = self._interrupt_cause, _PENDING
        self._step(Interrupt(cause), is_exception=True)

    def _on_wait_complete(self, event: Event) -> None:
        if self._waiting_on is not event:
            return  # superseded by an interrupt
        self._waiting_on = None
        if event.ok:
            self._resume(event.value, None)
        else:
            self._resume(None, event._exception)

    def _resume(self, value: Any, exception: Optional[BaseException]) -> None:
        if self.triggered:
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
            self._wait_on(target)
        finally:
            self.busy_time += _perf() - started
            sim.current_process = previous
            if sanitizer is not None:
                sanitizer.exit_process(self)

    def _wait_on(self, target: Any) -> None:
        if isinstance(target, (int, float)):
            # Fast path: a plain sleep needs no Event machinery.
            if target < 0:
                self._step(SimulationError(f"negative timeout {target}"),
                           is_exception=True)
                return
            self._wait_epoch += 1
            self.sim.schedule(float(target), self._timer_resume,
                              self._wait_epoch)
            return
        if not isinstance(target, Event):
            self._step(
                SimulationError(f"process {self.name} yielded {target!r}"),
                is_exception=True,
            )
            return
        self._waiting_on = target
        target.add_callback(self._on_wait_complete)

    def _timer_resume(self, epoch: int) -> None:
        if self.triggered or epoch != self._wait_epoch:
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
        counters = self.counters
        if delay == 0:
            self._now_queue.append((callback, args))
            if len(self._now_queue) > counters.now_queue_high_water:
                counters.now_queue_high_water = len(self._now_queue)
            return
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        self._seq += 1
        heapq.heappush(self._heap, (self.now + delay, self._seq, callback, args))
        counters.heap_pushes += 1
        if len(self._heap) > counters.heap_high_water:
            counters.heap_high_water = len(self._heap)

    def schedule_at(self, when: float, callback: _Callback,
                    *args: Any) -> None:
        """Run ``callback(*args)`` at absolute simulated time ``when``."""
        if when < self.now:
            raise SimulationError(f"cannot schedule in the past ({when} < {self.now})")
        self.schedule(when - self.now, callback, *args)

    def _schedule_trigger(self, event: Event) -> None:
        self.schedule(0.0, event._dispatch)

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
    def step(self) -> bool:
        """Execute the next scheduled callback. Returns False when idle."""
        if self._now_queue:
            self.counters.steps += 1
            callback, args = self._now_queue.popleft()
            callback(*args)
            return True
        if not self._heap:
            return False
        self.counters.steps += 1
        when, __, callback, args = heapq.heappop(self._heap)
        self.now = when
        callback(*args)
        return True

    def run(self, until: Optional[float] = None) -> float:
        """Run until the queues drain or the clock reaches ``until``.

        When ``until`` is given the clock is advanced exactly to it even if
        the work drained earlier, which keeps time-based assertions simple.
        """
        if self._running:
            raise SimulationError("simulator is not reentrant")
        self._running = True
        try:
            while self._now_queue or self._heap:
                if not self._now_queue and until is not None:
                    if self._heap[0][0] > until:
                        break
                self.step()
            if until is not None and self.now < until:
                self.now = until
        finally:
            self._running = False
        return self.now

    def run_until(self, event: Event, limit: Optional[float] = None) -> Any:
        """Run until ``event`` triggers; returns its value (or raises).

        ``limit`` bounds the simulated time to guard against deadlocks.
        """
        if self._running:
            raise SimulationError("simulator is not reentrant")
        if self.sanitizer is not None:
            event._san_observed = True
        self._running = True
        try:
            while not (event.triggered and event._dispatched):
                if not self._now_queue and not self._heap:
                    raise SimulationError("simulation deadlocked waiting for event")
                if (limit is not None and not self._now_queue
                        and self._heap[0][0] > limit):
                    raise SimulationError(f"event not triggered by t={limit}")
                self.step()
        finally:
            self._running = False
        return event.value
