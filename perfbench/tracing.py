"""Spans recorded around calls into each layer, from outside the program.

Nothing under ``src/`` knows about this module: it replaces public
callables on live objects (and the codec names ``repro.live.transport``
imports) with wrappers that record a span per call, and puts the
originals back on :meth:`Tracing.close`.

Two clocks: sessions and RPCs are timed on the kernel clock (wall time
on the live kernel, simulated time on the sim kernel), so an RPC span
nests inside the session that issued it; leaf calls that run to
completion in one go (codec, cache handler, event emission, oracle,
recorder) are timed with ``time.perf_counter``.
"""

from __future__ import annotations

import json
import time
from collections import Counter
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple


class Span:
    __slots__ = ("id", "name", "start", "parent", "covered")

    def __init__(self, span_id: int, name: str, start: float,
                 parent: Optional["Span"]) -> None:
        self.id = span_id
        self.name = name
        self.start = start
        self.parent = parent
        #: Time covered by this span's children (they never overlap:
        #: a session waits on one RPC at a time).
        self.covered = 0.0


class SpanLog:
    """Spans on one clock: the first ``keep`` are kept whole, every one
    feeds the per-name totals."""

    def __init__(self, clock: Callable[[], float], keep: int = 100_000,
                 durations_for: Iterable[str] = ()) -> None:
        self.clock = clock
        self.keep = keep
        self.spans: List[Tuple[int, str, float, float, int]] = []
        #: name -> [count, total duration, total self time]
        self.totals: Dict[str, List[float]] = {}
        self.failed: Counter = Counter()
        self.durations: Dict[str, List[float]] = {
            name: [] for name in durations_for}
        self._next_id = 0

    def begin(self, name: str, parent: Optional[Span] = None) -> Span:
        self._next_id += 1
        return Span(self._next_id, name, self.clock(), parent)

    def end(self, span: Span, ok: bool = True) -> None:
        self._close(span.id, span.name, span.start, self.clock(),
                    span.parent, span.covered)
        if not ok:
            self.failed[span.name] += 1

    def add(self, name: str, start: float, end: float) -> None:
        """A leaf span that has already ended."""
        self._next_id += 1
        self._close(self._next_id, name, start, end, None, 0.0)

    def _close(self, span_id: int, name: str, start: float, end: float,
               parent: Optional[Span], covered: float) -> None:
        duration = end - start
        if parent is not None:
            parent.covered += duration
        total = self.totals.get(name)
        if total is None:
            total = self.totals[name] = [0, 0.0, 0.0]
        total[0] += 1
        total[1] += duration
        total[2] += duration - covered
        samples = self.durations.get(name)
        if samples is not None:
            samples.append(duration)
        if len(self.spans) < self.keep:
            self.spans.append((span_id, name, start, end,
                               parent.id if parent is not None else 0))

    def count(self, prefix: str = "") -> int:
        return int(sum(t[0] for n, t in self.totals.items()
                       if n.startswith(prefix)))

    def total(self, prefix: str = "") -> float:
        return sum(t[1] for n, t in self.totals.items()
                   if n.startswith(prefix))

    def mean_self(self, name: str) -> float:
        total = self.totals.get(name)
        return total[2] / total[0] if total else 0.0

    def mean(self, prefix: str) -> float:
        count = self.count(prefix)
        return self.total(prefix) / count if count else 0.0

    def failures(self, prefix: str) -> int:
        return sum(n for name, n in self.failed.items()
                   if name.startswith(prefix))


class Patches:
    """Attribute replacements that can be undone in reverse order."""

    def __init__(self) -> None:
        self._undo: List[Tuple[Any, str, bool, Any]] = []

    def set(self, obj: Any, name: str, value: Any) -> None:
        own = vars(obj)
        self._undo.append((obj, name, name in own, own.get(name)))
        setattr(obj, name, value)

    def restore(self) -> None:
        while self._undo:
            obj, name, had, old = self._undo.pop()
            if had:
                setattr(obj, name, old)
            else:
                delattr(obj, name)


def rpc_target(address: str) -> str:
    return "cache" if address.startswith("cache-") else address


class Tracing:
    """Installs span-recording wrappers; :meth:`close` removes them."""

    RTT_SPANS = ("rpc.cache", "rpc.datastore", "rpc.coordinator")

    def __init__(self, kernel: Any) -> None:
        self.kernel = kernel
        self.patches = Patches()
        self.spans = SpanLog(lambda: kernel.now, durations_for=self.RTT_SPANS)
        self.leaves = SpanLog(time.perf_counter)
        #: Open session span per kernel process, the parent of its RPCs.
        self._sessions: Dict[Any, Span] = {}
        #: (target, request op) -> RPCs issued.
        self.rpc_ops: Counter = Counter()
        self.wire_bytes = 0

    # -- wrappers ---------------------------------------------------------
    def sessions_of(self, client: Any) -> None:
        """Session spans around ``client.read`` and ``client.write``."""
        for kind in ("read", "write"):
            self.patches.set(client, kind,
                             self._session(getattr(client, kind),
                                           f"client.{kind}"))

    def _session(self, inner: Callable[..., Any], name: str) -> Callable:
        spans, sessions, kernel = self.spans, self._sessions, self.kernel

        def traced(*args: Any, **kwargs: Any) -> Any:
            process = kernel.current_process
            span = sessions[process] = spans.begin(name)
            ok = False
            try:
                value = yield from inner(*args, **kwargs)
                ok = True
                return value
            finally:
                sessions.pop(process, None)
                spans.end(span, ok)
        return traced

    def rpcs_of(self, transport: Any) -> None:
        """RPC spans around ``transport.call`` (every caller in the
        process), parented on the calling session if there is one."""
        inner = transport.call
        spans, sessions, kernel = self.spans, self._sessions, self.kernel
        rpc_ops = self.rpc_ops

        def traced(address: str, request: Any, *args: Any,
                   **kwargs: Any) -> Any:
            target = rpc_target(address)
            rpc_ops[(target, getattr(request, "op", "?"))] += 1
            span = spans.begin(f"rpc.{target}",
                               sessions.get(kernel.current_process))
            event = inner(address, request, *args, **kwargs)
            event.add_callback(lambda done: spans.end(span, done.ok))
            return event
        self.patches.set(transport, "call", traced)

    def calls_of(self, obj: Any, attr: str, name: str) -> None:
        """Leaf spans around a plain method."""
        inner = getattr(obj, attr)
        add, clock = self.leaves.add, time.perf_counter

        def timed(*args: Any, **kwargs: Any) -> Any:
            start = clock()
            try:
                return inner(*args, **kwargs)
            finally:
                add(name, start, clock())
        self.patches.set(obj, attr, timed)

    def cache_handler_of(self, instance: Any) -> None:
        """Leaf spans around ``CacheInstance.handle_request``, named by
        op kind."""
        inner = instance.handle_request
        add, clock = self.leaves.add, time.perf_counter

        def timed(request: Any) -> Any:
            start = clock()
            try:
                return inner(request)
            finally:
                add(f"cache.handle.{request.op}", start, clock())
        self.patches.set(instance, "handle_request", timed)

    def codec_of(self, module: Any) -> None:
        """Leaf spans and byte counts around the envelope codec names
        ``module`` imported."""
        encode, decode = module.encode_envelope, module.decode_envelope
        add, clock = self.leaves.add, time.perf_counter

        def encode_envelope(*args: Any, **kwargs: Any) -> bytes:
            start = clock()
            data = encode(*args, **kwargs)
            add("wire.encode", start, clock())
            self.wire_bytes += len(data)
            return data

        def decode_envelope(data: bytes) -> Dict[str, Any]:
            start = clock()
            envelope = decode(data)
            add("wire.decode", start, clock())
            self.wire_bytes += len(data)
            return envelope
        self.patches.set(module, "encode_envelope", encode_envelope)
        self.patches.set(module, "decode_envelope", decode_envelope)

    def close(self) -> None:
        self.patches.restore()

    def common_metrics(self, ops: int) -> Dict[str, float]:
        """Per-layer figures both runtimes report, over ``ops`` traced
        operations."""
        spans, leaves = self.spans, self.leaves
        return {
            "client.read_self_us": spans.mean_self("client.read") * 1e6,
            "client.write_self_us": spans.mean_self("client.write") * 1e6,
            "verify.emit_us": leaves.mean("verify.emit") * 1e6,
            "verify.oracle_us_per_op":
                leaves.total("verify.oracle") * 1e6 / ops if ops else 0.0,
            "metrics.recorder_us_per_op":
                leaves.total("metrics.recorder") * 1e6 / ops if ops else 0.0,
        }

    # -- output -----------------------------------------------------------
    def write(self, path: Path) -> None:
        """Kept spans as JSON lines: clock, id, name, start, end, parent."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as out:
            for clock, log in (("kernel", self.spans), ("wall", self.leaves)):
                for span_id, name, start, end, parent in log.spans:
                    out.write(json.dumps({
                        "clock": clock, "id": span_id, "name": name,
                        "start": start, "end": end, "parent": parent},
                        separators=(",", ":")) + "\n")


def install(kernel: Any, clients: Iterable[Any], transport: Any,
            events: Any, oracle: Any, recorder: Any) -> Tracing:
    """The wrappers both runtimes share: sessions of every client, RPCs
    on ``transport``, event emission, the stale-read oracle and the
    operation recorder."""
    tracing = Tracing(kernel)
    for client in clients:
        tracing.sessions_of(client)
    tracing.rpcs_of(transport)
    tracing.calls_of(events, "emit", "verify.emit")
    for attr in ("record_read", "record_commit"):
        tracing.calls_of(oracle, attr, "verify.oracle")
    for attr in ("record_read", "record_write", "record_backoff",
                 "record_config_refresh"):
        tracing.calls_of(recorder, attr, "metrics.recorder")
    return tracing
