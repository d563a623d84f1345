"""Network, RPC, and service-capacity models.

The paper's testbed was a 1 Gbps LAN with off-the-shelf servers; what its
results actually depend on is the *ratio* of costs — a cache hit costs
~100 µs end to end while a data-store query costs milliseconds and the
data store saturates under a miss storm. This module models exactly those
effects:

* :class:`LatencyModel` — one-way message latency with jitter.
* :class:`ServiceStation` — a bounded-concurrency queue in front of each
  node; queueing delay emerges naturally under load.
* :class:`Network` — RPC between registered :class:`RemoteNode` objects.
  A node that is down makes callers wait out an RPC timeout and then see
  :class:`~repro.errors.HostUnreachable`, mirroring how a real client
  library observes a failed memcached server.

The network also models **link faults** (used by the chaos engine):
:meth:`Network.partition` / :meth:`Network.heal` cut both directions
between two endpoints, :meth:`Network.drop_link` cuts one direction
(asymmetric partition: the request is *delivered and executed* but the
response never returns), and :meth:`Network.delay_link` adds a latency
spike. Rules are keyed by ``(source, destination)`` names where either
side may be the wildcard ``"*"``. Callers identify themselves by issuing
RPCs through a :meth:`Network.bound` handle; anonymous calls only match
wildcard-source rules.
"""

from __future__ import annotations

import random
from collections import deque
from typing import (TYPE_CHECKING, Any, Callable, Deque, Dict, Generator,
                    Optional, Set, Tuple)

from repro.config.defaults import DEFAULT_RPC_UNREACHABLE_DELAY
from repro.errors import HostUnreachable, RequestTimeout, SimulationError
from repro.sim.core import Event, Simulator

if TYPE_CHECKING:  # tracing types only; the hooks stay optional at runtime
    from repro.obs.trace import Span
    from repro.runtime import Kernel

__all__ = ["LatencyModel", "ServiceStation", "RemoteNode", "Network",
           "NetworkHandle"]

#: A queued station request: (service time, enqueue time, callback, args).
_Request = Tuple[float, float, Callable[..., None], Tuple[Any, ...]]


class LatencyModel:
    """One-way network latency: ``base`` plus uniform jitter.

    Defaults approximate an intra-datacenter LAN (~50 µs one way).
    """

    def __init__(self, rng: random.Random, base: float = 50e-6, jitter: float = 20e-6) -> None:
        if base < 0 or jitter < 0:
            raise SimulationError("latency parameters must be non-negative")
        self.rng = rng
        self.base = base
        self.jitter = jitter

    def sample(self) -> float:
        if self.jitter == 0:
            return self.base
        return self.base + self.rng.random() * self.jitter


class ServiceStation:
    """A FIFO queue served by ``servers`` parallel servers.

    Requests carry their own service time; when all servers are busy, new
    requests wait. This is the mechanism behind the paper's low/high load
    distinction: under high load the data store's station saturates and
    miss latency balloons.

    A request names the callback that takes its outcome: ``callback(True,
    *args)`` once its service ends, ``callback(False, *args)`` if the
    station is drained while it waits. Either runs as its own kernel step
    at that instant (fused into the completing step when it would be the
    next step anyway; see :meth:`Simulator.run_next`).

    Stations queue in simulated time only: :meth:`Network.register`
    attaches one to each node it serves.
    """

    def __init__(self, sim: Simulator, servers: int = 1) -> None:
        if servers < 1:
            raise SimulationError("a station needs at least one server")
        self.sim = sim
        self.servers = servers
        self._busy = 0
        self._queue: Deque[_Request] = deque()
        # Cumulative counters for metrics/ablation.
        self.served = 0
        self.total_wait = 0.0
        self.total_service = 0.0

    @property
    def queue_length(self) -> int:
        return len(self._queue)

    @property
    def busy_servers(self) -> int:
        return self._busy

    def submit(self, service_time: float, callback: Callable[..., None],
               *args: Any) -> None:
        """Request service; the outcome goes to ``callback`` (see above)."""
        if service_time < 0:
            raise SimulationError("negative service time")
        entry = (service_time, self.sim.now, callback, args)
        if self._busy < self.servers:
            self._start(entry)
        else:
            self._queue.append(entry)

    def _start(self, entry: _Request) -> None:
        service_time, enqueued_at, callback, args = entry
        self._busy += 1
        self.total_wait += self.sim.now - enqueued_at
        self.total_service += service_time
        self.sim.schedule(service_time, self._finish, callback, args)

    def _finish(self, callback: Callable[..., None],
                args: Tuple[Any, ...]) -> None:
        self._busy -= 1
        self.served += 1
        # A server just freed up, so a waiting entry starts in this step.
        self.sim.run_next(callback, (True, *args),
                          self._start_next if self._queue else None)

    def _start_next(self) -> None:
        self._start(self._queue.popleft())

    def drain(self) -> None:
        """Fail all queued requests (used when a node crashes)."""
        while self._queue:
            __, ___, callback, args = self._queue.popleft()
            self.sim.schedule(0.0, callback, False, *args)


class RemoteNode:
    """Base class for anything reachable through :class:`Network`.

    Subclasses implement :meth:`handle_request` (which may be a plain
    function or a generator to consume further simulated time) and
    :meth:`service_time` (CPU/storage cost of the request at the node).

    Nodes are kernel-agnostic (:class:`repro.runtime.Kernel`): the same
    subclass instances serve RPCs in simulation and, hosted by a
    :mod:`repro.live` node process, over real TCP.
    """

    def __init__(self, sim: "Kernel", address: str, servers: int = 8) -> None:
        self.sim = sim
        self.address = address
        self.up = True
        self.servers = servers
        #: The request queue in front of the node, attached by the
        #: simulated :class:`Network` that serves it; a node hosted by the
        #: live runtime has none.
        self.station: Optional[ServiceStation] = None

    def service_time(self, request: Any) -> float:
        """Per-request service cost at this node; override as needed."""
        return 5e-6

    def handle_request(self, request: Any) -> Any:
        raise NotImplementedError

    def fail(self) -> None:
        """Take the node down; in-queue requests are dropped."""
        self.up = False
        if self.station is not None:
            self.station.drain()

    def recover(self) -> None:
        self.up = True


class Network:
    """RPC fabric connecting :class:`RemoteNode` objects.

    ``call`` returns a :class:`Process` (hence an event): ``yield`` it from
    a client process to get the response, or observe the handler's
    exception — application-level errors such as
    :class:`~repro.errors.LeaseBackoff` propagate through the RPC exactly
    like a real client library surfacing a server error code.
    """

    #: How long a caller waits before concluding a host is unreachable.
    #: Shared with the live runtime (repro.config.defaults) so sim and
    #: live deployments agree on RPC deadlines.
    DEFAULT_UNREACHABLE_DELAY = DEFAULT_RPC_UNREACHABLE_DELAY

    def __init__(self, sim: Simulator, latency: LatencyModel,
                 unreachable_delay: Optional[float] = None) -> None:
        self.sim = sim
        self.latency = latency
        self.unreachable_delay = (
            self.DEFAULT_UNREACHABLE_DELAY if unreachable_delay is None
            else unreachable_delay
        )
        self._nodes: Dict[str, RemoteNode] = {}
        self.messages_sent = 0
        #: Always-on per-link traffic counter keyed (source, destination);
        #: anonymous callers count under "<anon>". Feeds repro.obs.profile.
        self.link_messages: Dict[Tuple[str, str], int] = {}
        #: Link-fault rules: ``(src, dst)`` patterns, ``"*"`` wildcards.
        self._link_drop: Set[Tuple[str, str]] = set()
        self._link_delay: Dict[Tuple[str, str], float] = {}
        self.messages_dropped = 0

    def register(self, node: RemoteNode) -> None:
        if node.address in self._nodes:
            raise SimulationError(f"duplicate address {node.address!r}")
        node.station = ServiceStation(self.sim, servers=node.servers)
        self._nodes[node.address] = node

    def node(self, address: str) -> RemoteNode:
        try:
            return self._nodes[address]
        except KeyError:
            raise HostUnreachable(address, f"unknown address {address!r}") from None

    def bound(self, source: str) -> "NetworkHandle":
        """A facade whose RPCs carry ``source`` as the caller identity."""
        return NetworkHandle(self, source)

    # ------------------------------------------------------------------
    # Link faults (network partitions, asymmetric drops, delay spikes)
    # ------------------------------------------------------------------
    def partition(self, a: str, b: str) -> None:
        """Cut both directions between endpoints ``a`` and ``b``."""
        self.drop_link(a, b)
        self.drop_link(b, a)

    def heal(self, a: str, b: str) -> None:
        """Undo :meth:`partition` (and any one-way rules between a, b)."""
        self.heal_link(a, b)
        self.heal_link(b, a)

    def drop_link(self, src: str, dst: str) -> None:
        """Drop messages flowing ``src -> dst`` (asymmetric partition)."""
        self._link_drop.add((src, dst))

    def heal_link(self, src: str, dst: str) -> None:
        self._link_drop.discard((src, dst))
        self._link_delay.pop((src, dst), None)

    def delay_link(self, src: str, dst: str, extra: float) -> None:
        """Add ``extra`` seconds of one-way latency on ``src -> dst``."""
        if extra < 0:
            raise SimulationError("link delay must be non-negative")
        self._link_delay[(src, dst)] = extra

    def heal_all(self) -> None:
        self._link_drop.clear()
        self._link_delay.clear()

    @staticmethod
    def _matches(pattern: str, name: Optional[str]) -> bool:
        return pattern == "*" or (name is not None and pattern == name)

    def link_dropped(self, src: Optional[str], dst: Optional[str]) -> bool:
        if not self._link_drop:
            return False
        return any(self._matches(ps, src) and self._matches(pd, dst)
                   for ps, pd in self._link_drop)

    def link_delay(self, src: Optional[str], dst: Optional[str]) -> float:
        if not self._link_delay:
            return 0.0
        matching = [extra for (ps, pd), extra in self._link_delay.items()
                    if self._matches(ps, src) and self._matches(pd, dst)]
        return max(matching, default=0.0)

    # ------------------------------------------------------------------
    # RPC
    # ------------------------------------------------------------------
    def call(self, address: str, request: Any,
             timeout: Optional[float] = None,
             source: Optional[str] = None) -> Event:
        """Issue an RPC; returns an event yielding the response.

        Implemented as a callback state machine (not a process) because
        RPCs dominate the kernel's event traffic: ``done`` is its only
        Event, and it takes three real kernel steps (arrive, finish with
        the serve fused in, settle with the dispatch fused in when
        nothing else is queued). ``source`` names the caller for
        link-fault matching (see :meth:`bound`).

        When a tracer is installed, an rpc span opens here and is threaded
        *by value* through the state machine to :meth:`_settle` (every
        path — drop, dead host, drained station, handler reply — ends
        there). Observing completion via ``done.add_callback`` instead
        would flip the event's sanitizer-observed flag and suppress
        crashed-process findings, breaking trace passivity.
        """
        sim = self.sim
        done = Event(sim)
        self.messages_sent += 1
        link = (source if source is not None else "<anon>", address)
        link_messages = self.link_messages
        link_messages[link] = link_messages.get(link, 0) + 1
        tracer = sim.tracer
        span = (tracer.begin_rpc(address, request, source)
                if tracer is not None else None)
        if self._link_drop and self.link_dropped(source, address):
            # The request never reaches the destination; the caller waits
            # out the RPC timeout exactly as against a dead host.
            self.messages_dropped += 1
            if span is not None:
                span.attrs["dropped"] = True
            sim.schedule(self.unreachable_delay, self._settle,
                         done, None, HostUnreachable(address), span)
        else:
            delay = self.latency.sample()
            if self._link_delay:
                delay += self.link_delay(source, address)
            sim.schedule(delay, self._arrive, address, request, done,
                         source, span)
        if timeout is None:
            return done
        return sim.process(self._with_timeout(done, timeout),
                           name=f"rpc-timeout:{address}")

    def _with_timeout(self, work: Event,
                      timeout: float) -> Generator[Any, Any, Any]:
        deadline = self.sim.timeout(timeout)
        index, value = yield self.sim.any_of([work, deadline])
        if index == 1:
            raise RequestTimeout(f"rpc exceeded {timeout}s")
        return value

    def _arrive(self, address: str, request: Any, done: Event,
                source: Optional[str] = None,
                span: Optional["Span"] = None) -> None:
        node = self._nodes.get(address)
        if node is None or not node.up:
            # The caller's RPC times out against a dead host.
            self.sim.schedule(self.unreachable_delay, self._settle,
                              done, None, HostUnreachable(address), span)
            return
        station = node.station
        assert station is not None  # attached by register
        station.submit(node.service_time(request), self._serve,
                       node, request, done, source, span)

    def _serve(self, served: bool, node: RemoteNode, request: Any,
               done: Event, source: Optional[str] = None,
               span: Optional["Span"] = None) -> None:
        if not served or not node.up:
            # The node died while our request was queued or in service.
            self.sim.schedule(self.unreachable_delay, self._settle,
                              done, None, HostUnreachable(node.address), span)
            return
        sim = self.sim
        sanitizer = sim.sanitizer
        tracer = sim.tracer
        try:
            if sanitizer is None:
                if tracer is None:
                    result = node.handle_request(request)
                else:
                    # Handler-side annotate calls land on the rpc span,
                    # not on "<kernel>".
                    ctx = tracer.serve_push(span, source)
                    try:
                        result = node.handle_request(request)
                    finally:
                        tracer.serve_pop(ctx)
            elif tracer is None:
                # Synchronous handlers run in kernel-callback context;
                # attribute their shared-state footprints to the RPC's
                # source session rather than to "<kernel>".
                with sanitizer.acting_as(source):
                    result = node.handle_request(request)
            else:
                with sanitizer.acting_as(source):
                    ctx = tracer.serve_push(span, source)
                    try:
                        result = node.handle_request(request)
                    finally:
                        tracer.serve_pop(ctx)
        except BaseException as exc:  # noqa: BLE001 - app errors travel back
            self._reply(node.address, source, done, None, exc, span)
            return
        if hasattr(result, "send"):
            # Generator handler: it consumes further simulated time.
            handler = sim.process(result, name=f"handler:{node.address}")
            if sim.tracer is not None:
                # Re-parent the handler under its rpc span so the work it
                # spawns traces back to the request that caused it.
                sim.tracer.adopt(handler, span)
            handler.add_callback(
                lambda event: self._settle_from_handler(
                    node.address, source, done, event, span))
            return
        self._reply(node.address, source, done, result, None, span)

    def _settle_from_handler(self, node_address: str, source: Optional[str],
                             done: Event, handler: Event,
                             span: Optional["Span"] = None) -> None:
        if handler.ok:
            self._reply(node_address, source, done, handler.value, None, span)
        else:
            self._reply(node_address, source, done, None, handler._exception,
                        span)

    def _reply(self, node_address: str, source: Optional[str], done: Event,
               value: Any, exc: Optional[BaseException],
               span: Optional["Span"] = None) -> None:
        """Route a response back, honouring reverse-direction link faults.

        On an asymmetric partition the handler has already executed its
        side effects; the caller merely never learns the outcome.
        """
        if self._link_drop and self.link_dropped(node_address, source):
            self.messages_dropped += 1
            if span is not None:
                span.attrs["reply_dropped"] = True
            self.sim.schedule(self.unreachable_delay, self._settle,
                              done, None, HostUnreachable(node_address), span)
            return
        delay = self.latency.sample()
        if self._link_delay:
            delay += self.link_delay(node_address, source)
        self.sim.schedule(delay, self._settle, done, value, exc, span)

    def _settle(self, done: Event, value: Any,
                exc: Optional[BaseException],
                span: Optional["Span"] = None) -> None:
        sim = self.sim
        tracer = sim.tracer
        if tracer is not None and span is not None:
            tracer.end_rpc(span, exc)
        if done.triggered:
            return
        sim.trigger_last(done, value, exc)


class NetworkHandle:
    """A :class:`Network` facade with a fixed caller identity.

    Components issue their RPCs through a handle so that per-link fault
    rules (partitions, asymmetric drops, delay spikes) can target traffic
    *from* that component. Everything except :meth:`call` delegates to the
    underlying network, so a handle is a drop-in replacement.
    """

    __slots__ = ("_network", "source")

    def __init__(self, network: Network, source: str) -> None:
        self._network = network
        self.source = source

    def call(self, address: str, request: Any,
             timeout: Optional[float] = None) -> Event:
        return self._network.call(address, request, timeout,
                                  source=self.source)

    def bound(self, source: str) -> "NetworkHandle":
        return NetworkHandle(self._network, source)

    def __getattr__(self, name: str) -> Any:
        return getattr(self._network, name)
