"""Live node processes: one OS process per protocol role.

``python -m repro.live node --role {cache|coordinator|datastore}`` runs
one node. Each node hosts the *unmodified* protocol component from the
sim tree on a :class:`~repro.live.kernel.LiveKernel`, served over TCP by
:class:`NodeServer`. Three live-specific subclasses adapt the runtime
boundary without touching protocol logic:

* :class:`PersistentCacheInstance` — journals the storage layer to disk
  so a SIGKILLed instance restarts with its *entries* intact while its
  lease tables (DRAM in the paper) are lost: exactly the persistent-
  cache crash model Gemini recovers from.
* :class:`LiveCoordinator` — adds the ``wst_report`` RPC so remote
  clients can feed working-set-transfer counters that sim clusters
  deliver via a local callback.
* the coordinator process co-locates a real
  :class:`~repro.coordinator.membership.HeartbeatMonitor`: failures are
  detected by missed TCP heartbeats, not emulated notifications.

Every node appends its verify-event stream to
``<workdir>/<address>.events.jsonl`` (wire-encoded, one event per line,
stamped with the node's kernel clock and the shared wall epoch so the
harness can merge streams).
"""

from __future__ import annotations

import asyncio
import io
import json
import os
import signal
import sys
import time  # wall epoch stamps for event-stream merging (GEM001 allows
# repro.live as a package; see repro.analysis.rules.WALL_CLOCK_ALLOWED)
from pathlib import Path
from typing import Any, Dict, Optional, Tuple, cast

from repro.cache.instance import CacheInstance, CacheOp
from repro.coordinator.coordinator import Coordinator, CoordinatorOp
from repro.coordinator.membership import HeartbeatMonitor
from repro.datastore.store import DataStore
from repro.live.kernel import LiveKernel
from repro.live.transport import LiveTransport
from repro.live.wire import (Framer, WireError, decode_envelope, encode,
                             encode_envelope)
from repro.recovery.policies import policy_by_name
from repro.verify.events import EventLog, ProtocolEvent
from repro.workload.keyspace import KeySpace

__all__ = ["PersistentCacheInstance", "LiveCoordinator", "NodeServer",
           "EventLogWriter", "run_node"]


class EventLogWriter:
    """Streams an :class:`EventLog` to a JSONL file, one flush per event.

    Each line is ``{"wall": <unix seconds>, "event": <wire-encoded
    ProtocolEvent>}``; ``wall`` lets the harness merge per-node streams
    recorded on independent kernel clocks.
    """

    def __init__(self, events: EventLog, path: Path) -> None:
        # geminilint: disable=GEM013 -- one-time open on the node boot path, before the server accepts its first connection
        self._file: Optional[io.TextIOWrapper] = open(  # noqa: SIM115
            path, "a", encoding="utf-8")
        events.subscribe(self._on_event)

    def _on_event(self, event: ProtocolEvent) -> None:
        if self._file is None:
            return
        line = json.dumps({
            "wall": time.time(),
            "event": json.loads(encode(event).decode("utf-8")),
        }, separators=(",", ":"), ensure_ascii=False)
        self._file.write(line + "\n")
        self._file.flush()

    def close(self) -> None:
        if self._file is not None:
            self._file.close()
            self._file = None


class PersistentCacheInstance(CacheInstance):
    """A cache instance whose entries survive ``kill -9``.

    The paper's instances keep entries in persistent memory and lease
    tables in DRAM. Here the same split falls out of an append-only
    journal at the storage layer: ``_store``/``_remove``/``_recharge``
    (and observed configuration ids) are journaled and replayed on
    restart, while ``LeaseTable``/``Redlease`` are ordinary heap objects
    that a SIGKILL destroys.

    Journal records (wire-encoded JSON, one per line):
    ``["put", key, value, config_id, value_size]``, ``["del", key]``,
    ``["known", config_id]``. Writes are flushed per record but not
    fsynced — the crash model is process death, not power loss.
    """

    def __init__(self, *args: Any, journal_path: Path, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        self._journal_path = journal_path
        self._journal: Optional[io.TextIOWrapper] = None
        self._replaying = False

    # -- journal plumbing ------------------------------------------------
    def _journal_record(self, record: Any) -> None:
        if self._journal is None or self._replaying:
            return
        self._journal.write(encode(record).decode("utf-8") + "\n")
        self._journal.flush()

    def recover(self) -> int:
        """Replay the journal (if any), then open it for appending.

        Returns the number of entries restored. Lease state is *not*
        restored — it lived in DRAM and the crash wiped it, which is
        precisely why recovery must run before trusting this instance.

        A kill in the middle of an append leaves the last record without
        its newline. That record was never acknowledged (the reply goes
        out after the append returns), so replay skips it and the file
        is cut back to the last complete record; otherwise the next
        append would be glued onto the fragment. Only the last record
        can be torn: a complete line that does not decode is corruption
        and raises :class:`~repro.live.wire.WireError`.
        """
        from repro.live.wire import decode
        replayed = 0
        if self._journal_path.exists():
            self._replaying = True
            try:
                # geminilint: disable=GEM013 -- journal replay runs at boot, before the node serves; blocking here is the point
                with open(self._journal_path, "rb+") as journal:
                    complete = 0
                    for line in journal:
                        if not line.endswith(b"\n"):
                            journal.truncate(complete)
                            break
                        complete += len(line)
                        line = line.strip()
                        if not line:
                            continue
                        record = decode(line)
                        kind = record[0]
                        if kind == "put":
                            __, key, value, config_id, value_size = record
                            self._store(key, value, config_id, value_size)
                        elif kind == "del":
                            self._remove(record[1])
                        elif kind == "known":
                            self.known_config_id = max(
                                self.known_config_id, record[1])
            finally:
                self._replaying = False
            replayed = self.entry_count
        # geminilint: disable=GEM013 -- opened once at boot, before serving; per-record writes are the durability contract
        self._journal = open(  # noqa: SIM115 - held for instance lifetime
            self._journal_path, "a", encoding="utf-8")
        return replayed

    # -- journaled storage hooks ------------------------------------------
    def _store(self, key: str, value: Any, config_id: int,
               value_size: int) -> Any:
        entry = super()._store(key, value, config_id, value_size)
        self._journal_record(["put", key, value, config_id, value_size])
        return entry

    def _remove(self, key: str) -> bool:
        removed = super()._remove(key)
        if removed:
            self._journal_record(["del", key])
        return removed

    def _recharge(self, key: str, old_size: int) -> None:
        super()._recharge(key, old_size)
        entry = self._entries.get(key)
        if entry is not None:
            # In-place mutation (dirty-list append): re-journal the
            # entry's current value so replay sees the mutated state.
            self._journal_record(["put", key, entry.value, entry.config_id,
                                  entry.value_size])

    def handle_request(self, request: CacheOp) -> Any:
        before = self.known_config_id
        try:
            return super().handle_request(request)
        finally:
            if self.known_config_id != before:
                self._journal_record(["known", self.known_config_id])

    def wipe(self) -> None:
        super().wipe()
        if self._journal is not None:
            self._journal.truncate(0)


class LiveCoordinator(Coordinator):
    """Coordinator plus the ``wst_report`` RPC.

    Sim clusters deliver client working-set-transfer counters through a
    local callback; live clients are in other processes, so they push
    counters here and the registered feedback aggregates the latest
    report per (primary, episode, reporter).
    """

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        self._wst_reports: Dict[Tuple[str, int, str], Dict[str, int]] = {}
        self.register_wst_feedback(self._aggregate_wst)

    def op_wst_report(self, request: CoordinatorOp) -> bool:
        payload = request.payload or {}
        key = (request.address, int(payload.get("episode", 0)),
               str(payload.get("reporter", "")))
        self._wst_reports[key] = {"hits": int(payload.get("hits", 0)),
                                  "misses": int(payload.get("misses", 0))}
        return True

    def _aggregate_wst(self, address: str, episode: int) -> Dict[str, int]:
        totals = {"hits": 0, "misses": 0}
        for (reported_address, reported_episode, __), counts in \
                self._wst_reports.items():
            if reported_address == address and reported_episode == episode:
                totals["hits"] += counts["hits"]
                totals["misses"] += counts["misses"]
        return totals


class NodeServer:
    """Serves one RemoteNode's ``handle_request`` over framed TCP.

    Each connection is a :class:`_ServerConnection` protocol. The request
    handler runs synchronously in ``data_received`` — the live analogue
    of the sim's zero-width service slot — and its reply is written
    before the next frame is handled; any exception it raises travels
    back as an error envelope, exactly like the sim network propagating
    handler exceptions.
    """

    def __init__(self, node: Any, host: str = "127.0.0.1",
                 port: int = 0) -> None:
        self.node = node
        self.host = host
        self.port = port
        self._server: Optional[asyncio.base_events.Server] = None

    async def start(self) -> int:
        loop = asyncio.get_running_loop()
        self._server = await loop.create_server(
            lambda: _ServerConnection(self.node), self.host, self.port)
        self.port = self._server.sockets[0].getsockname()[1]
        return self.port

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()


class _ServerConnection(asyncio.Protocol):
    """One client connection to a :class:`NodeServer`.

    Backpressure: when the socket's send buffer passes its high-water
    mark the transport calls ``pause_writing``, and the connection stops
    reading requests until ``resume_writing``.
    """

    __slots__ = ("node", "transport", "framer")

    #: Set by ``connection_made``, before any data arrives.
    transport: asyncio.Transport

    def __init__(self, node: Any) -> None:
        self.node = node
        self.framer = Framer()

    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        self.transport = cast(asyncio.Transport, transport)

    def data_received(self, data: bytes) -> None:
        try:
            for frame in self.framer.feed(data):
                self._handle_frame(frame)
        except WireError:
            self.transport.close()

    def pause_writing(self) -> None:
        self.transport.pause_reading()

    def resume_writing(self) -> None:
        self.transport.resume_reading()

    def _handle_frame(self, frame: bytes) -> None:
        envelope = decode_envelope(frame)
        if envelope["kind"] != "request":
            return
        msg_id = envelope["id"]
        try:
            result = self.node.handle_request(envelope["payload"])
        except Exception as exc:  # noqa: BLE001 - a handler bug must
            # surface at the caller, not kill the connection.
            self.transport.write(encode_envelope("error", msg_id, exc))
            return
        self.transport.write(encode_envelope("response", msg_id, result))


# --------------------------------------------------------------------------
# role runners

def _load_registry(path: str) -> Dict[str, Tuple[str, int]]:
    # geminilint: disable=GEM013 -- startup-only read of the endpoint registry, before the loop has anything else to run
    with open(path, encoding="utf-8") as handle:
        raw = json.load(handle)
    return {address: (endpoint[0], int(endpoint[1]))
            for address, endpoint in raw.items()}


async def _serve_forever(server: NodeServer, address: str) -> None:
    port = await server.start()
    # The harness waits for this line before considering the node up.
    print(f"READY {address} {port}", flush=True)
    stopped = asyncio.Event()
    loop = asyncio.get_running_loop()
    loop.add_signal_handler(signal.SIGTERM, stopped.set)
    loop.add_signal_handler(signal.SIGINT, stopped.set)
    await stopped.wait()
    await server.stop()


async def _run_cache(args: Any, spec: Dict[str, Any]) -> None:
    kernel = LiveKernel()
    workdir = Path(args.workdir)
    events = EventLog(clock=lambda: kernel.now, keep=False)
    log_writer = EventLogWriter(events, workdir / f"{args.address}.events.jsonl")
    instance = PersistentCacheInstance(
        kernel, args.address,
        memory_bytes=int(spec.get("memory_bytes", 1 << 30)),
        iq_lifetime=float(spec.get("iq_lifetime", 0.010)),
        red_lifetime=float(spec.get("red_lifetime", 2.0)),
        event_log=events,
        journal_path=workdir / f"{args.address}.journal")
    restored = instance.recover()
    if restored:
        events.emit("journal_replayed", address=args.address,
                    entries=restored,
                    known_config_id=instance.known_config_id)
    try:
        await _serve_forever(NodeServer(instance, port=args.port),
                             args.address)
    finally:
        log_writer.close()


async def _run_coordinator(args: Any, spec: Dict[str, Any]) -> None:
    kernel = LiveKernel()
    workdir = Path(args.workdir)
    events = EventLog(clock=lambda: kernel.now, keep=False)
    log_writer = EventLogWriter(events, workdir / f"{args.address}.events.jsonl")
    transport = LiveTransport(kernel, _load_registry(args.registry))
    instances = list(spec["instances"])
    coordinator = LiveCoordinator(
        kernel, transport, instances,
        int(spec["num_fragments"]),
        policy_by_name(spec.get("policy", "Gemini-O+W")),
        address=args.address,
        monitor_interval=float(spec.get("monitor_interval", 1.0)),
        wst_max_duration=float(spec.get("wst_max_duration", 300.0)),
        event_log=events)
    coordinator.start_monitor()
    monitor = HeartbeatMonitor(
        kernel, transport, coordinator, instances,
        interval=float(spec.get("heartbeat_interval", 0.5)))
    monitor.start()
    try:
        await _serve_forever(NodeServer(coordinator, port=args.port),
                             args.address)
    finally:
        log_writer.close()


async def _run_datastore(args: Any, spec: Dict[str, Any]) -> None:
    kernel = LiveKernel()
    datastore = DataStore(
        kernel, args.address,
        default_record_size=int(spec.get("record_size", 1024)))
    record_count = int(spec.get("record_count", 0))
    if record_count:
        keyspace = KeySpace(record_count)
        record_size = int(spec.get("record_size", 1024))
        datastore.populate(keyspace.all_keys(),
                           size_of=lambda __: record_size)
    await _serve_forever(NodeServer(datastore, port=args.port), args.address)


_ROLES = {
    "cache": _run_cache,
    "coordinator": _run_coordinator,
    "datastore": _run_datastore,
}


def run_node(args: Any) -> int:
    """Entry point for ``python -m repro.live node``."""
    spec: Dict[str, Any] = json.loads(args.spec) if args.spec else {}
    runner = _ROLES.get(args.role)
    if runner is None:
        print(f"unknown role {args.role!r}", file=sys.stderr)
        return 2
    os.makedirs(args.workdir, exist_ok=True)
    try:
        asyncio.run(runner(args, spec))
    except KeyboardInterrupt:  # pragma: no cover - interactive use
        pass
    return 0
