"""The live RPC path over a real loopback socket, in the pytest process.

A :class:`NodeServer` (or, where a test needs to hold or reshape the
replies, a raw asyncio server speaking the same frames) listens on an
ephemeral ``127.0.0.1`` port, and a :class:`LiveTransport` on a
:class:`LiveKernel` calls it. These pin the ``Transport`` contract the
protocol code relies on: replies resolve the right call, remote
exceptions come back as the same type, a lost connection fails every
pending call with ``HostUnreachable``, so does an unreachable
destination after the shared dead-host delay, an armed timeout fails
with ``RequestTimeout`` and leaves nothing pending, and a late reply is
dropped.
"""

import asyncio

import pytest

from repro.cache.instance import CacheOp
from repro.config.defaults import DEFAULT_RPC_UNREACHABLE_DELAY
from repro.errors import (HostUnreachable, LeaseBackoff, RequestTimeout,
                          StaleConfiguration)
from repro.live.kernel import LiveKernel
from repro.live.node import NodeServer, _ServerConnection
from repro.live.transport import LiveTransport
from repro.live.wire import Framer, decode_envelope, encode_envelope


class EchoNode:
    """Answers ``("echo", key)``; ops ``backoff`` and ``stale`` raise."""

    def __init__(self):
        self.served = 0

    def handle_request(self, request):
        self.served += 1
        if request.op == "backoff":
            raise LeaseBackoff(request.key)
        if request.op == "stale":
            raise StaleConfiguration(41)
        return ("echo", request.key)


class HeldServer:
    """Reads request frames and replies only when told to."""

    def __init__(self):
        self.requests = []  # (msg_id, payload)
        self.writer = None
        self.arrived = asyncio.Event()
        self._server = None

    async def start(self):
        self._server = await asyncio.start_server(
            self._serve, "127.0.0.1", 0)
        return self._server.sockets[0].getsockname()[1]

    async def _serve(self, reader, writer):
        self.writer = writer
        framer = Framer()
        while True:
            chunk = await reader.read(65536)
            if not chunk:
                return
            for frame in framer.feed(chunk):
                envelope = decode_envelope(frame)
                self.requests.append((envelope["id"], envelope["payload"]))
                self.arrived.set()

    async def wait_for(self, count):
        while len(self.requests) < count:
            self.arrived.clear()
            await self.arrived.wait()

    def replies(self):
        return b"".join(encode_envelope("response", msg_id,
                                        ("echo", payload.key))
                        for msg_id, payload in self.requests)

    async def stop(self):
        if self.writer is not None:
            self.writer.close()
        self._server.close()
        await self._server.wait_closed()


def op(key, kind="get"):
    return CacheOp(op=kind, key=key)


def run(scenario):
    """Run ``scenario(kernel, transport_for)`` on a fresh loop."""
    async def main():
        kernel = LiveKernel()
        transports = []

        def transport_for(port):
            transport = LiveTransport(kernel, {"node": ("127.0.0.1", port)},
                                      source="client-0")
            transports.append(transport)
            return transport
        try:
            return await asyncio.wait_for(
                scenario(kernel, transport_for), timeout=5.0)
        finally:
            for transport in transports:
                await transport.close()
    return asyncio.run(main())


async def node_server(node):
    server = NodeServer(node)
    return server, await server.start()


def pending_of(transport):
    peer = transport._peers.get("node")
    return {} if peer is None else peer.pending


def test_round_trip():
    async def scenario(kernel, transport_for):
        server, port = await node_server(EchoNode())
        try:
            transport = transport_for(port)
            assert await kernel.wait(transport.call("node", op("k1"))) \
                == ("echo", "k1")
            assert await kernel.wait(transport.call("node", op("k2"))) \
                == ("echo", "k2")
            assert pending_of(transport) == {}
        finally:
            await server.stop()
    run(scenario)


def test_remote_errors_rebuilt_with_type_and_attributes():
    async def scenario(kernel, transport_for):
        server, port = await node_server(EchoNode())
        try:
            transport = transport_for(port)
            with pytest.raises(LeaseBackoff) as backoff:
                await kernel.wait(transport.call("node", op("kéy", "backoff")))
            assert backoff.value.key == "kéy"
            with pytest.raises(StaleConfiguration) as stale:
                await kernel.wait(transport.call("node", op("k", "stale")))
            assert stale.value.known_id == 41
            assert str(stale.value) == str(StaleConfiguration(41))
        finally:
            await server.stop()
    run(scenario)


def test_calls_before_the_connection_exists_and_in_one_tick_all_answered():
    async def scenario(kernel, transport_for):
        node = EchoNode()
        server, port = await node_server(node)
        try:
            transport = transport_for(port)
            # The first 50 go out before any connection exists.
            early = [transport.call("node", op(f"e{i}")) for i in range(50)]
            assert transport._peers == {}
            assert [await kernel.wait(e) for e in early] == \
                [("echo", f"e{i}") for i in range(50)]
            # Then 300 in one loop tick on the open connection.
            burst = [transport.call("node", op(f"b{i}")) for i in range(300)]
            results = await asyncio.gather(*(kernel.wait(e) for e in burst))
            assert results == [("echo", f"b{i}") for i in range(300)]
            assert node.served == 350
            assert pending_of(transport) == {}
        finally:
            await server.stop()
    run(scenario)


def test_client_reassembles_split_and_coalesced_replies():
    async def scenario(kernel, transport_for):
        held = HeldServer()
        port = await held.start()
        try:
            transport = transport_for(port)
            first = [transport.call("node", op(f"c{i}")) for i in range(5)]
            await held.wait_for(5)
            held.writer.write(held.replies())  # five frames, one write
            assert [await kernel.wait(e) for e in first] == \
                [("echo", f"c{i}") for i in range(5)]
            held.requests.clear()
            second = [transport.call("node", op(f"s{i}")) for i in range(3)]
            await held.wait_for(3)
            # Hand the connection's protocol the replies 7 bytes at a
            # time, so frames split mid-header and mid-body.
            blob, peer = held.replies(), transport._peers["node"]
            for offset in range(0, len(blob), 7):
                peer.data_received(blob[offset:offset + 7])
            assert [await kernel.wait(e) for e in second] == \
                [("echo", f"s{i}") for i in range(3)]
        finally:
            await held.stop()
    run(scenario)


def test_server_handles_split_and_coalesced_requests():
    async def scenario(kernel, transport_for):
        server, port = await node_server(EchoNode())
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        try:
            blob = b"".join(encode_envelope("request", i, op(f"r{i}"))
                            for i in range(6))
            writer.write(blob[:len(blob) // 2])  # coalesced, then split
            await writer.drain()
            await asyncio.sleep(0.01)
            writer.write(blob[len(blob) // 2:])
            framer, replies = Framer(), []
            while len(replies) < 6:
                replies.extend(framer.feed(await reader.read(65536)))
            decoded = [decode_envelope(f) for f in replies]
            assert [(d["kind"], d["id"], d["payload"]) for d in decoded] == \
                [("response", i, ("echo", f"r{i}")) for i in range(6)]
        finally:
            writer.close()
            await server.stop()
    run(scenario)


def test_server_closing_fails_every_pending_call():
    async def scenario(kernel, transport_for):
        held = HeldServer()
        port = await held.start()
        transport = transport_for(port)
        calls = [transport.call("node", op(f"p{i}"), timeout=5.0)
                 for i in range(4)]
        await held.wait_for(4)
        timers = [timer for __, timer in pending_of(transport).values()]
        assert len(timers) == 4
        await held.stop()
        for event in calls:
            with pytest.raises(HostUnreachable):
                await kernel.wait(event)
        assert transport._peers == {}
        assert all(timer.cancelled() for timer in timers)
    run(scenario)


def test_timeout_fails_the_call_leaves_nothing_pending_and_drops_late_reply():
    async def scenario(kernel, transport_for):
        held = HeldServer()
        port = await held.start()
        try:
            transport = transport_for(port)
            slow = transport.call("node", op("slow"), timeout=0.05)
            await held.wait_for(1)
            assert len(pending_of(transport)) == 1
            with pytest.raises(RequestTimeout):
                await kernel.wait(slow)
            assert pending_of(transport) == {}
            # The reply arrives after the timeout: dropped, and the
            # connection keeps serving.
            held.writer.write(held.replies())
            held.requests.clear()
            fresh = transport.call("node", op("fresh"), timeout=5.0)
            await held.wait_for(1)
            timer = pending_of(transport)[held.requests[0][0]][1]
            held.writer.write(held.replies())
            assert await kernel.wait(fresh) == ("echo", "fresh")
            assert pending_of(transport) == {}
            assert timer.cancelled()  # disarmed by the reply
        finally:
            await held.stop()
    run(scenario)


def test_unreachable_destination_fails_queued_calls_after_the_delay():
    async def scenario(kernel, transport_for):
        transport = transport_for(0)
        started = kernel.now
        calls = [transport.call("nowhere", op(f"u{i}")) for i in range(3)]
        for event in calls:
            with pytest.raises(HostUnreachable):
                await kernel.wait(event)
        assert kernel.now - started >= DEFAULT_RPC_UNREACHABLE_DELAY
        assert transport._connecting == {}
    run(scenario)


def test_server_stops_reading_while_its_send_buffer_is_full():
    class Transport:
        reading = True

        def pause_reading(self):
            self.reading = False

        def resume_reading(self):
            self.reading = True

    connection = _ServerConnection(EchoNode())
    transport = Transport()
    connection.connection_made(transport)
    connection.pause_writing()  # the transport's high-water mark
    assert not transport.reading
    connection.resume_writing()
    assert transport.reading
