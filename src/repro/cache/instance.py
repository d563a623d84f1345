"""The persistent cache instance (the paper's extended IQ-Twemcached).

A :class:`CacheInstance` is a network node storing :class:`CacheEntry`
objects under a byte budget, evicting the least recently used entry as
memcached does. On top of plain get/set/delete it speaks:

* the **IQ protocol** — ``iqget``/``iqset``/``iset``/``qareg``/``dar``
  (Section 2.3, Algorithms 1–3);
* **dirty-list** operations — create (with marker), append, fetch, delete
  (Section 3.1), plus Redlease acquire/release for recovery workers;
* the **Rejig configuration-id protocol** — every request carries the
  client's configuration id; the instance memoizes the largest id it has
  seen and bounces requests carrying an older one with
  :class:`~repro.errors.StaleConfiguration`. Each stored entry is tagged
  with the id of the configuration that wrote it and is lazily discarded
  when its fragment's id has moved past it (Section 3.2.4).

Persistence is emulated exactly as in the paper (Section 4): a crash
clears the lease table (DRAM) but leaves entries intact; the volatile
baseline wipes them via :meth:`wipe`.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.cache.dirtylist import DirtyList, dirty_list_key
from repro.cache.entry import CacheEntry
from repro.cache.leases import LeaseTable, Redlease
from repro.errors import (
    CacheError,
    InstanceDown,
    LeaseBackoff,
    StaleConfiguration,
)
from repro.runtime import Kernel
from repro.sim.network import RemoteNode
from repro.types import CACHE_MISS

__all__ = ["CacheInstance", "CacheOp", "CONFIG_ENTRY_KEY"]

#: Cache key under which the coordinator inserts the latest configuration.
CONFIG_ENTRY_KEY = "__gemini:config"

#: Ops that bypass the configuration-id freshness check (bootstrap and
#: control-plane traffic must work even with a stale client id).
#: ``red_release`` is checked by its token instead and only gives the
#: Redlease up, so a pass whose configuration moved can still free it.
_CONFIG_EXEMPT_OPS = frozenset({
    "get_config", "set_config", "stats", "ping", "wipe", "red_release",
})


@dataclass
class CacheOp:
    """One request to a cache instance.

    ``client_cfg_id`` is the Rejig freshness check; ``fragment_cfg_id`` is
    the validity floor for the entries the request touches.
    """

    op: str
    key: Optional[str] = None
    value: Any = None
    token: Optional[int] = None
    fragment_id: Optional[int] = None
    fragment_cfg_id: int = 0
    client_cfg_id: int = 0
    payload: Any = None
    #: Key list for the multi-key ops (mget/mdelete/batch_iset).
    keys: Optional[Sequence[str]] = None
    #: write_cfg_id tags the entry produced by this op; defaults to
    #: client_cfg_id when unset.
    write_cfg_id: Optional[int] = None

    def tag(self) -> int:
        return self.client_cfg_id if self.write_cfg_id is None else self.write_cfg_id


@dataclass
class InstanceStats:
    """Cumulative counters; the harness samples and differences them."""

    gets: int = 0
    hits: int = 0
    misses: int = 0
    sets: int = 0
    deletes: int = 0
    evictions: int = 0
    invalid_discards: int = 0
    dirty_appends: int = 0
    dirty_list_evictions: int = 0
    stale_config_bounces: int = 0

    def snapshot(self) -> Dict[str, int]:
        return dict(self.__dict__)


class CacheInstance(RemoteNode):
    """A single persistent cache instance."""

    #: Requests served concurrently (the request queue's width).
    SERVERS = 16
    #: Service cost of one request, and of each key a multi-key op
    #: touches (seconds).
    BASE_SERVICE_TIME = 5e-6

    def __init__(self, sim: Kernel, address: str, memory_bytes: int,
                 iq_lifetime: float = 0.010,
                 red_lifetime: float = 2.0,
                 event_log=None) -> None:
        super().__init__(sim, address, servers=self.SERVERS)
        #: Optional structured protocol-event stream (verify.events).
        self.event_log = event_log
        self.memory_bytes = memory_bytes
        #: Every entry, least recently used first: a touch moves its key
        #: to the end, eviction takes the first.
        self._entries: OrderedDict[str, CacheEntry] = OrderedDict()
        self._used = 0
        self.leases = LeaseTable(lambda: sim.now, iq_lifetime=iq_lifetime)
        self.red = Redlease(lambda: sim.now, lifetime=red_lifetime)
        #: Largest configuration id this instance has observed (memoized;
        #: survives crashes — the paper keeps it with 40 lines of C in
        #: Twemcached's persistent metadata).
        self.known_config_id = 0
        self.stats = InstanceStats()
        #: Callbacks invoked with each evicted key (replication mirroring,
        #: Section 7 extension).
        self._eviction_listeners: List[Callable[[str], None]] = []

    def subscribe_evictions(self, callback: Callable[[str], None]) -> None:
        """``callback(key)`` on every eviction this instance performs."""
        self._eviction_listeners.append(callback)

    def _emit(self, kind: str, **data: Any) -> None:
        if self.event_log is not None:
            self.event_log.emit(kind, address=self.address, **data)

    # ------------------------------------------------------------------
    # RemoteNode plumbing
    # ------------------------------------------------------------------
    def service_time(self, request: CacheOp) -> float:
        # Multi-key ops cost one base unit per key touched: batching
        # amortizes network round trips, not server CPU.
        if request.keys is not None:
            return self.BASE_SERVICE_TIME * max(1, len(request.keys))
        if request.op == "batch_iqset" and request.payload:
            return self.BASE_SERVICE_TIME * len(request.payload)
        if request.op == "get_dirty_page" and request.payload:
            return self.BASE_SERVICE_TIME * max(
                1, int(request.payload.get("limit", 1)))
        return self.BASE_SERVICE_TIME

    def handle_request(self, request: CacheOp) -> Any:
        if not self.up:
            raise InstanceDown(self.address)
        if (request.client_cfg_id != self.known_config_id
                and request.op not in _CONFIG_EXEMPT_OPS):
            self._check_config_id(request.client_cfg_id)
        handler = getattr(self, f"op_{request.op}", None)
        if handler is None:
            raise CacheError(f"unknown cache op {request.op!r}")
        return handler(request)

    def _check_config_id(self, client_cfg_id: int) -> None:
        if client_cfg_id < self.known_config_id:
            self.stats.stale_config_bounces += 1
            raise StaleConfiguration(self.known_config_id)
        if client_cfg_id > self.known_config_id:
            self.known_config_id = client_cfg_id

    def fail(self) -> None:
        """Crash: leases (DRAM) vanish, entries (persistent) survive."""
        super().fail()
        self.leases.clear()
        self.red.clear()
        self._emit("leases_cleared")

    def wipe(self) -> None:
        """Discard all content — the VolatileCache baseline's recovery."""
        self._entries.clear()
        self._used = 0
        self._emit("instance_wiped")

    # ------------------------------------------------------------------
    # Storage internals
    # ------------------------------------------------------------------
    @property
    def used_bytes(self) -> int:
        return self._used

    @property
    def entry_count(self) -> int:
        return len(self._entries)

    def _lookup(self, key: str, fragment_cfg_id: int) -> Optional[CacheEntry]:
        """Fetch a live, *valid* entry; invalid entries die on the spot."""
        entry = self._entries.get(key)
        if entry is None:
            return None
        if not entry.is_valid_for(fragment_cfg_id):
            self._remove(key)
            self.stats.invalid_discards += 1
            return None
        self._entries.move_to_end(key)
        return entry

    def _store(self, key: str, value: Any, config_id: int,
               value_size: int) -> CacheEntry:
        old = self._entries.pop(key, None)
        if old is not None:
            self._used -= old.size
        entry = CacheEntry(key=key, value=value, config_id=config_id,
                           key_size=len(key), value_size=value_size)
        self._entries[key] = entry
        self._used += entry.size
        self._evict_to_budget(protect=key)
        return entry

    def _remove(self, key: str) -> bool:
        entry = self._entries.pop(key, None)
        if entry is None:
            return False
        self._used -= entry.size
        return True

    def _recharge(self, key: str, old_size: int) -> None:
        """An in-place mutation (dirty-list append) changed an entry's size."""
        entry = self._entries[key]
        self._used += entry.size - old_size
        self._evict_to_budget(protect=key)

    def _evict_to_budget(self, protect: Optional[str] = None) -> None:
        entries = self._entries
        while self._used > self.memory_bytes and len(entries) > 1:
            victim = next(iter(entries))
            if victim == protect:
                # Refresh and pick again; if it is the only entry we stop
                # (a single oversized entry is allowed to overflow).
                entries.move_to_end(victim)
                alternative = next(iter(entries))
                if alternative == victim:
                    break
                victim = alternative
            entry = entries[victim]
            if isinstance(entry.value, DirtyList):
                self.stats.dirty_list_evictions += 1
                self._emit("dirty_evicted",
                           fragment_id=entry.value.fragment_id)
            self._remove(victim)
            self.stats.evictions += 1
            for listener in self._eviction_listeners:
                listener(victim)

    # ------------------------------------------------------------------
    # Plain data-plane ops
    # ------------------------------------------------------------------
    def op_ping(self, request: CacheOp) -> str:
        return "pong"

    def op_wipe(self, request: CacheOp) -> bool:
        """Management op: discard all content (VolatileCache recovery)."""
        self.wipe()
        return True

    def op_get(self, request: CacheOp) -> Any:
        """Lease-free read (used against secondary replicas, Algorithm 1)."""
        self.stats.gets += 1
        tracer = self.sim.tracer
        entry = self._lookup(request.key, request.fragment_cfg_id)
        if entry is None:
            self.stats.misses += 1
            if tracer is not None:
                tracer.annotate(cache="miss")
            return CACHE_MISS
        self.stats.hits += 1
        if tracer is not None:
            tracer.annotate(cache="hit")
        return entry.value

    def op_set(self, request: CacheOp) -> bool:
        """Lease-free insert (control plane, working-set transfer target)."""
        self.stats.sets += 1
        size = getattr(request.value, "size", 0)
        self._store(request.key, request.value, request.tag(), size)
        return True

    def op_delete(self, request: CacheOp) -> bool:
        self.stats.deletes += 1
        return self._remove(request.key)

    # ------------------------------------------------------------------
    # Multi-key ops (batched recovery, Section 3.2.3 extension)
    # ------------------------------------------------------------------
    def op_mget(self, request: CacheOp) -> Dict[str, Any]:
        """Lease-free read of many keys; missing keys map to CACHE_MISS."""
        out: Dict[str, Any] = {}
        for key in request.keys:
            self.stats.gets += 1
            entry = self._lookup(key, request.fragment_cfg_id)
            if entry is None:
                self.stats.misses += 1
                out[key] = CACHE_MISS
            else:
                self.stats.hits += 1
                out[key] = entry.value
        return out

    def op_mdelete(self, request: CacheOp) -> int:
        """Delete many keys; returns how many were actually present."""
        removed = 0
        for key in request.keys:
            self.stats.deletes += 1
            if self._remove(key):
                removed += 1
        return removed

    def op_batch_iset(self, request: CacheOp) -> Dict[str, Optional[int]]:
        """Per-key ``iset``: delete the key and acquire an I lease on it.

        Keys whose I lease cannot be granted (a client session owns them)
        map to ``None`` — the batch does not back off as a whole.
        """
        tokens: Dict[str, Optional[int]] = {}
        for key in request.keys:
            try:
                lease = self.leases.acquire_i(key)
            except LeaseBackoff:
                tokens[key] = None
                continue
            if self._remove(key):
                self.stats.deletes += 1
            tokens[key] = lease.token
        return tokens

    def op_batch_iqset(self, request: CacheOp) -> Dict[str, bool]:
        """Per-key ``iqset`` with per-key lease tokens.

        ``payload`` is a sequence of ``(key, value, token)`` triples. A
        value of CACHE_MISS means "release the I lease and delete"
        (Algorithm 3 line 16 — the secondary had no copy either).
        """
        results: Dict[str, bool] = {}
        for key, value, token in request.payload:
            if value is CACHE_MISS:
                released = self.leases.release_i(key, token)
                if self._remove(key):
                    self.stats.deletes += 1
                results[key] = released
                continue
            if not self.leases.check_i(key, token):
                results[key] = False
                continue
            self.leases.release_i(key, token)
            self.stats.sets += 1
            size = getattr(value, "size", 0)
            self._store(key, value, request.tag(), size)
            results[key] = True
        return results

    # ------------------------------------------------------------------
    # IQ protocol
    # ------------------------------------------------------------------
    def op_iqget(self, request: CacheOp) -> Tuple[str, Any]:
        """Read with I-lease-on-miss. Returns ("hit", value) or
        ("miss", token); raises :class:`LeaseBackoff` on lease conflict."""
        self.stats.gets += 1
        tracer = self.sim.tracer
        entry = self._lookup(request.key, request.fragment_cfg_id)
        if entry is not None:
            self.stats.hits += 1
            if tracer is not None:
                # Lands on the enclosing rpc span (Network._serve runs
                # sync handlers under tracer.serve_push).
                tracer.annotate(cache="hit")
            return ("hit", entry.value)
        self.stats.misses += 1
        if tracer is not None:
            tracer.annotate(cache="miss")
        lease = self.leases.acquire_i(request.key)
        return ("miss", lease.token)

    def op_iset(self, request: CacheOp) -> int:
        """Delete the key and acquire an I lease on it (Algorithms 1 & 3:
        claiming a dirty key before refreshing it)."""
        lease = self.leases.acquire_i(request.key)
        if self._remove(request.key):
            self.stats.deletes += 1
        return lease.token

    def op_iqset(self, request: CacheOp) -> bool:
        """Install a computed value if the I lease is still valid; the
        lease is consumed either way."""
        if not self.leases.check_i(request.key, request.token):
            return False
        self.leases.release_i(request.key, request.token)
        self.stats.sets += 1
        size = getattr(request.value, "size", 0)
        self._store(request.key, request.value, request.tag(), size)
        return True

    def op_qareg(self, request: CacheOp) -> int:
        """Acquire a Q lease (write intent). Voids any I lease; if the Q
        lease expires unreleased the instance deletes the entry."""
        lease = self.leases.acquire_q(request.key)
        self.sim.schedule(self.leases.iq_lifetime, self._expire_q,
                          request.key, lease.token)
        return lease.token

    def _expire_q(self, key: str, token: int) -> None:
        if not self.up:
            return
        if self.leases.q_outstanding(key, token):
            self.leases.release_q(key, token)
            if self._remove(key):
                self.stats.deletes += 1

    def op_dar(self, request: CacheOp) -> bool:
        """Delete-and-release: complete a write-around delete."""
        if self._remove(request.key):
            self.stats.deletes += 1
        return self.leases.release_q(request.key, request.token)

    # ------------------------------------------------------------------
    # Dirty lists & Redlease
    # ------------------------------------------------------------------
    def op_create_dirty(self, request: CacheOp) -> bool:
        """Coordinator initializes the list *with* the marker at the
        transient-mode transition. An existing complete list is preserved
        (Figure 4 arrow 5: a primary failing again mid-recovery must not
        reset the log covering its first outage).

        ``payload={"fresh": False}`` marks a *resumed* episode (arrow 5):
        the list must already cover earlier writes, so if it is missing
        or partial the replacement is created *without* the marker — a
        fresh marker here would falsely certify a log that lost its
        prefix, letting recovery restore the floor over unrepaired
        writes. The marker-less list makes recovery detect the loss and
        discard the fragment instead.
        """
        key = dirty_list_key(request.fragment_id)
        existing = self._entries.get(key)
        if existing is not None and existing.value.complete:
            self._entries.move_to_end(key)
            self._emit("dirty_created", fragment_id=request.fragment_id,
                       marker=True, preserved=True)
            return True
        fresh = request.payload is None or request.payload.get("fresh", True)
        dirty = DirtyList(request.fragment_id, marker=fresh)
        self._store(key, dirty, request.tag(), dirty.size)
        self._emit("dirty_created", fragment_id=request.fragment_id,
                   marker=fresh, preserved=False)
        return fresh

    def op_append_dirty(self, request: CacheOp) -> bool:
        """Append a written key; recreates the list *without* the marker
        if it was evicted (detected later as partial). Returns whether the
        list is complete."""
        key = dirty_list_key(request.fragment_id)
        entry = self._entries.get(key)
        if entry is None:
            dirty = DirtyList(request.fragment_id, marker=False)
            entry = self._store(key, dirty, request.tag(), dirty.size)
            self._emit("dirty_recreated", fragment_id=request.fragment_id)
        else:
            self._entries.move_to_end(key)
        dirty = entry.value
        old_size = entry.size
        dirty.append(request.key)
        entry.value_size = dirty.size
        self._recharge(key, old_size)
        self.stats.dirty_appends += 1
        return dirty.complete

    def op_get_dirty(self, request: CacheOp) -> Any:
        """Fetch the dirty list (or CACHE_MISS if it was evicted)."""
        entry = self._entries.get(dirty_list_key(request.fragment_id))
        if entry is None:
            return CACHE_MISS
        self._entries.move_to_end(entry.key)
        return entry.value

    def op_get_dirty_page(self, request: CacheOp) -> Any:
        """Fetch one chunk of the dirty list (cursor-based pagination).

        ``payload`` is ``{"after": seq, "limit": n}``; returns a
        :class:`~repro.cache.dirtylist.DirtyPage` or CACHE_MISS if the
        list was evicted.
        """
        entry = self._entries.get(dirty_list_key(request.fragment_id))
        if entry is None:
            return CACHE_MISS
        self._entries.move_to_end(entry.key)
        return entry.value.page(request.payload.get("after", 0),
                                request.payload.get("limit", 64))

    def op_delete_dirty(self, request: CacheOp) -> bool:
        removed = self._remove(dirty_list_key(request.fragment_id))
        if removed:
            self._emit("dirty_deleted", fragment_id=request.fragment_id)
        return removed

    def op_red_acquire(self, request: CacheOp) -> int:
        """Redlease on a fragment's dirty list for a recovery worker."""
        resource = dirty_list_key(request.fragment_id)
        sanitizer = self.sim.sanitizer
        # Snapshot before the acquire: a healthy Redlease raises
        # LeaseBackoff while a live holder exists, so reaching the grant
        # with `prior` alive means mutual exclusion broke (the sanitizer
        # catches chaos mutants that re-break the lease table itself).
        prior = self.red.holder(resource) if sanitizer is not None else None
        lease = self.red.acquire(resource)
        if sanitizer is not None:
            sanitizer.on_red_acquire(self.address, resource, lease.token,
                                     holder_alive=prior is not None)
        self._emit("red_acquired", fragment_id=request.fragment_id,
                   token=lease.token,
                   expires_at=self.sim.now + self.red.lifetime)
        return lease.token

    def op_red_release(self, request: CacheOp) -> bool:
        released = self.red.release(dirty_list_key(request.fragment_id),
                                    request.token)
        if released and self.sim.sanitizer is not None:
            self.sim.sanitizer.on_red_release(
                self.address, dirty_list_key(request.fragment_id))
        if released:
            self._emit("red_released", fragment_id=request.fragment_id,
                       token=request.token)
        return released

    # ------------------------------------------------------------------
    # Control plane
    # ------------------------------------------------------------------
    def op_set_config(self, request: CacheOp) -> bool:
        """Coordinator inserts the latest configuration as a cache entry."""
        config = request.value
        if config.config_id > self.known_config_id:
            self.known_config_id = config.config_id
        self._store(CONFIG_ENTRY_KEY, config, config.config_id,
                    config.approximate_size())
        return True

    def op_get_config(self, request: CacheOp) -> Any:
        entry = self._entries.get(CONFIG_ENTRY_KEY)
        if entry is None:
            return CACHE_MISS
        self._entries.move_to_end(CONFIG_ENTRY_KEY)
        return entry.value

    def op_stats(self, request: CacheOp) -> Dict[str, Any]:
        snap = self.stats.snapshot()
        snap["used_bytes"] = self._used
        snap["entry_count"] = len(self._entries)
        snap["known_config_id"] = self.known_config_id
        snap["lease_backoffs"] = self.leases.backoffs
        return snap

    # ------------------------------------------------------------------
    # Direct (non-RPC) helpers for tests and the harness
    # ------------------------------------------------------------------
    def peek(self, key: str) -> Any:
        """Inspect an entry without touching stats or LRU state."""
        entry = self._entries.get(key)
        return CACHE_MISS if entry is None else entry.value

    def contains(self, key: str) -> bool:
        return key in self._entries

    def hit_ratio(self) -> float:
        total = self.stats.hits + self.stats.misses
        return self.stats.hits / total if total else 0.0
