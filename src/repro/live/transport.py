"""LiveTransport: the ``Transport`` protocol over length-prefixed TCP.

One persistent connection per destination, multiplexed by request id.
Each connection is an :class:`asyncio.Protocol` (:class:`_Peer`): on an
open connection ``call`` encodes the request and writes it to the socket
synchronously, and ``data_received`` resolves pending call events as
response/error frames arrive — no task, coroutine or ``drain`` per RPC.
Opening a connection is the one coroutine: calls to a destination whose
connection is not open yet queue behind its connect task. The calling side is exactly the sim ``Network``
contract: ``call`` returns an :class:`~repro.sim.core.Event` a generator
process yields; application exceptions raised by the remote handler fail
the event; an unreachable peer fails it with
:class:`~repro.errors.HostUnreachable` after the shared
:data:`~repro.config.defaults.DEFAULT_RPC_UNREACHABLE_DELAY`; a lost
connection fails every call pending on it with ``HostUnreachable``; an
armed ``timeout`` fails it with :class:`~repro.errors.RequestTimeout`,
and a reply arriving after that is dropped.

Addresses are logical (``"cache-0"``, ``"coordinator"``); a *registry*
maps them to ``(host, port)`` endpoints. The registry is a plain dict,
usually loaded from the harness's registry JSON file.
"""

from __future__ import annotations

import asyncio
from typing import Any, Dict, List, Optional, Tuple, cast

from repro.config.defaults import DEFAULT_RPC_UNREACHABLE_DELAY
from repro.errors import HostUnreachable, RequestTimeout
from repro.live.kernel import LiveKernel
from repro.live.wire import Framer, WireError, decode_envelope, encode_envelope
from repro.sim.core import Event

__all__ = ["LiveTransport", "BoundLiveTransport"]

#: A call awaiting its reply: the caller's event and its armed timeout
#: timer (None when the call has no timeout).
_Pending = Tuple[Event, Optional[asyncio.TimerHandle]]

#: A call issued while its connection is being opened: message id,
#: request, source, event, timer, and the kernel time it was issued.
_Queued = Tuple[int, Any, str, Event, Optional[asyncio.TimerHandle], float]


class _Peer(asyncio.Protocol):
    """One live connection plus its in-flight request table."""

    __slots__ = ("owner", "address", "transport", "framer", "pending",
                 "closed")

    #: Set by ``connection_made``, before the peer is registered.
    transport: asyncio.Transport

    def __init__(self, owner: "LiveTransport", address: str) -> None:
        self.owner = owner
        self.address = address
        self.framer = Framer()
        self.pending: Dict[int, _Pending] = {}
        self.closed = False

    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        self.transport = cast(asyncio.Transport, transport)

    def data_received(self, data: bytes) -> None:
        try:
            for frame in self.framer.feed(data):
                self.owner._deliver(self, decode_envelope(frame))
        except WireError:
            self.owner._drop(self)

    def connection_lost(self, exc: Optional[Exception]) -> None:
        self.owner._drop(self)


class LiveTransport:
    """TCP client fabric shared by every component in one process."""

    def __init__(self, kernel: LiveKernel,
                 registry: Dict[str, Tuple[str, int]],
                 source: str = "") -> None:
        self.kernel = kernel
        self.registry = dict(registry)
        self.source = source
        self._peers: Dict[str, _Peer] = {}
        #: Per address being connected: the connect task (held here, as
        #: the loop keeps only a weak reference) and the calls queued
        #: behind it.
        self._connecting: Dict[
            str, Tuple["asyncio.Task[None]", List[_Queued]]] = {}
        self._next_id = 0
        self._loop = kernel._loop

    # -- Transport protocol ----------------------------------------------
    def call(self, address: str, request: Any,
             timeout: Optional[float] = None,
             source: Optional[str] = None) -> Event:
        """Issue one RPC; returns the event a process can yield."""
        event = self.kernel.event()
        self._next_id += 1
        msg_id = self._next_id
        src = self.source if source is None else source
        timer = (None if timeout is None else self._loop.call_later(
            timeout, self._expire, event, address, msg_id))
        peer = self._peers.get(address)
        if peer is not None:
            self._send(peer, msg_id, request, src, event, timer)
            return event
        connecting = self._connecting.get(address)
        if connecting is None:
            queued: List[_Queued] = []
            task = self._loop.create_task(self._connect(address, queued))
            self._connecting[address] = (task, queued)
        else:
            queued = connecting[1]
        queued.append((msg_id, request, src, event, timer, self.kernel.now))
        return event

    def bound(self, source: str) -> "BoundLiveTransport":
        """A facade sharing this transport's connections, with identity."""
        return BoundLiveTransport(self, source)

    # -- internals --------------------------------------------------------
    def _send(self, peer: _Peer, msg_id: int, request: Any, src: str,
              event: Event, timer: Optional[asyncio.TimerHandle]) -> None:
        """Write one request on an open connection."""
        try:
            frame = encode_envelope("request", msg_id, request,
                                    source=src or None)
        except WireError:
            self._fail_unreachable(event, peer.address, self.kernel.now,
                                   timer)
            return
        peer.pending[msg_id] = (event, timer)
        peer.transport.write(frame)

    async def _connect(self, address: str, queued: List[_Queued]) -> None:
        """Open the connection to ``address``, then send (or fail) the
        calls queued behind it."""
        peer: Optional[_Peer] = None
        try:
            endpoint = self.registry.get(address)
            if endpoint is None:
                raise ConnectionError(f"no registry entry for {address!r}")
            host, port = endpoint
            __, peer = await asyncio.wait_for(
                self._loop.create_connection(
                    lambda: _Peer(self, address), host, port),
                timeout=DEFAULT_RPC_UNREACHABLE_DELAY)
        except (ConnectionError, OSError, asyncio.TimeoutError):
            pass
        finally:
            del self._connecting[address]
        if peer is not None and not peer.closed:
            self._peers[address] = peer
        for msg_id, request, src, event, timer, started in queued:
            if event.triggered:
                continue  # timed out while the connection was opening
            if peer is None:
                self._fail_unreachable(event, address, started, timer)
            elif peer.closed:
                self._settle(event, timer, HostUnreachable(address))
            else:
                self._send(peer, msg_id, request, src, event, timer)

    def _expire(self, event: Event, address: str, msg_id: int) -> None:
        peer = self._peers.get(address)
        if peer is not None:
            peer.pending.pop(msg_id, None)
        if not event.triggered:
            event.fail(RequestTimeout(f"rpc to {address!r} timed out"))

    @staticmethod
    def _settle(event: Event, timer: Optional[asyncio.TimerHandle],
                exc: BaseException) -> None:
        if timer is not None:
            timer.cancel()
        if not event.triggered:
            event.fail(exc)

    def _fail_unreachable(self, event: Event, address: str, started: float,
                          timer: Optional[asyncio.TimerHandle]) -> None:
        """Fail after the same dead-host delay the simulator models."""
        remaining = DEFAULT_RPC_UNREACHABLE_DELAY - (self.kernel.now - started)
        self.kernel.schedule(max(0.0, remaining), self._settle, event, timer,
                             HostUnreachable(address))

    def _deliver(self, peer: _Peer, envelope: Dict[str, Any]) -> None:
        kind = envelope["kind"]
        if kind not in ("response", "error"):
            return  # push events are not part of the call path
        entry = peer.pending.pop(envelope["id"], None)
        if entry is None:
            return  # timed out (or already failed) — late reply dropped
        event, timer = entry
        if timer is not None:
            timer.cancel()
        if event.triggered:
            return
        if kind == "response":
            event.succeed(envelope["payload"])
        else:
            payload = envelope["payload"]
            if not isinstance(payload, BaseException):
                payload = WireError(f"malformed error payload {payload!r}")
            event.fail(payload)

    def _drop(self, peer: _Peer) -> None:
        """Forget a connection and fail every call pending on it."""
        peer.closed = True
        if self._peers.get(peer.address) is peer:
            del self._peers[peer.address]
        pending, peer.pending = peer.pending, {}
        for event, timer in pending.values():
            self._settle(event, timer, HostUnreachable(peer.address))
        peer.transport.close()

    async def close(self) -> None:
        """Tear down every connection (harness shutdown)."""
        for peer in list(self._peers.values()):
            self._drop(peer)
        await asyncio.sleep(0)


class BoundLiveTransport:
    """A :class:`LiveTransport` facade with a fixed caller identity.

    Mirrors :class:`repro.sim.network.NetworkHandle`: same connections,
    same id sequence, but every RPC carries ``source``.
    """

    __slots__ = ("_transport", "source")

    def __init__(self, transport: LiveTransport, source: str) -> None:
        self._transport = transport
        self.source = source

    def call(self, address: str, request: Any,
             timeout: Optional[float] = None) -> Event:
        return self._transport.call(address, request, timeout=timeout,
                                    source=self.source)

    def bound(self, source: str) -> "BoundLiveTransport":
        return BoundLiveTransport(self._transport, source)
