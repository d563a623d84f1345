"""Stateless recovery workers (Algorithm 3, Section 3.2.3).

A worker scans the configuration for fragments in recovery mode, grabs
the Redlease on the fragment's dirty list (so exactly one worker repairs
each fragment), and then repairs every dirty key in the recovering
primary replica:

* **Gemini-O** (``policy.overwrite_dirty``): delete the key and acquire
  an I lease in the primary, read the latest value from the secondary,
  and install it — the recovering instance never pays a data-store query
  for that key again.
* **Gemini-I**: simply delete the dirty keys; the next reader refills
  from the data store. Cheaper when the access pattern has evolved and
  the dirty keys will never be referenced again.

Repairs are **batched and pipelined**: the dirty list is fetched in
cursor-based chunks (``get_dirty_page``), keys are repaired
``policy.batch_size`` at a time with the multi-key cache ops
(``batch_iset`` → ``mget`` → ``batch_iqset``, or one ``mdelete``), and up
to ``policy.max_inflight`` batches run concurrently as kernel
sub-processes. This collapses the 2–3 serial round trips per key of the
naive loop into 3 round trips per batch, overlapped across the window.

If the secondary becomes unreachable *mid-pass* under Gemini-O, the
worker degrades to Gemini-I deletes for the remainder of the pass (the
next reader refills from the store) instead of burning an RPC timeout
per key; degraded keys are counted in ``keys_degraded``.

Every step is idempotent (deleting or overwriting a dirty key commutes
with concurrent client sessions thanks to the IQ leases), so a worker
crash mid-pass is harmless: the Redlease expires and another worker
redoes the fragment (Section 3.3).
"""

from __future__ import annotations

import random
from typing import Any, Dict, List, Optional

from repro.cache.instance import CacheOp
from repro.coordinator.coordinator import CoordinatorOp
from repro.errors import (
    InstanceDown,
    LeaseBackoff,
    NetworkError,
    StaleConfiguration,
)
from repro.metrics.recovery import RecoveryRecorder
from repro.config.configuration import Configuration, FragmentInfo
from repro.recovery.policies import RecoveryPolicy
from repro.runtime import Kernel, Transport
from repro.sim.core import Process, SimGenerator
from repro.types import CACHE_MISS, FragmentMode
from repro.verify.events import EventLog

__all__ = ["RecoveryWorker"]

_UNREACHABLE = (NetworkError, InstanceDown)


class RecoveryWorker:
    """One background repair worker."""

    #: Mean seconds between two scans for fragments in recovery mode;
    #: each wait is drawn uniformly from half to one and a half of it.
    SCAN_INTERVAL = 0.05

    def __init__(self, sim: Kernel, network: Transport,
                 policy: RecoveryPolicy,
                 coordinator_address: str = "coordinator",
                 name: str = "worker",
                 *,
                 rng: random.Random,
                 recovery_recorder: Optional[RecoveryRecorder] = None,
                 event_log: Optional[EventLog] = None) -> None:
        self.sim = sim
        #: Optional structured protocol-event stream (verify.events).
        self.event_log = event_log
        self.network = network.bound(name)
        self.policy = policy
        self.coordinator_address = coordinator_address
        self.name = name
        self.rng = rng
        self.recovery = recovery_recorder
        self.config: Optional[Configuration] = None
        self.fragments_recovered = 0
        self.keys_overwritten = 0
        self.keys_deleted = 0
        self.keys_skipped = 0
        #: Keys repaired via Gemini-I deletes because the secondary became
        #: unreachable mid-pass under Gemini-O.
        self.keys_degraded = 0
        self.batches_issued = 0
        #: Set when the current pass degraded to deletes; reset per pass.
        self._pass_degraded = False
        self._process: Optional[Process] = None

    # ------------------------------------------------------------------
    def on_config(self, config: Configuration) -> None:
        """Coordinator push subscription."""
        if self.config is None or config.config_id > self.config.config_id:
            self.config = config
            if self.event_log is not None:
                self.event_log.emit("config_observed", actor=self.name,
                                    config_id=config.config_id)

    def start(self) -> None:
        if self._process is None:
            self._process = self.sim.process(self._run(), name=self.name)

    def stop(self) -> None:
        if self._process is not None:
            self._process.interrupt("stopped")
            self._process = None

    # ------------------------------------------------------------------
    def _run(self) -> SimGenerator:
        while True:
            yield self.SCAN_INTERVAL * (0.5 + self.rng.random())
            if self.config is None:
                continue
            for fragment in self.config.fragments:
                if fragment.mode is not FragmentMode.RECOVERY:
                    continue
                yield from self._recover_fragment(fragment.fragment_id)

    def _cfg(self, cfg_id: int, **fields) -> CacheOp:
        """Build a cache op stamped with the repair *pass's* config id.

        Like client sessions, a pass stamps the configuration it routed
        under (captured in :meth:`_recover_fragment`): if the
        configuration moves mid-pass, the next op bounces with
        StaleConfiguration and the pass aborts instead of completing
        against superseded routing.
        """
        return CacheOp(client_cfg_id=cfg_id, **fields)

    def _recover_fragment(self, fragment_id: int) -> SimGenerator:
        fragment = self.config.fragment(fragment_id)
        secondary = fragment.secondary
        cfg = self.config.config_id
        red_token = None
        self._pass_degraded = False
        tracer = self.sim.tracer
        span = (tracer.begin("repair-pass", kind="recovery", worker=self.name,
                             fragment_id=fragment_id, config_id=cfg)
                if tracer is not None else None)
        try:
            if secondary is not None:
                try:
                    red_token = yield self.network.call(
                        secondary, self._cfg(cfg, op="red_acquire",
                                             fragment_id=fragment_id))
                except LeaseBackoff:
                    # another worker owns this fragment
                    if tracer is not None:
                        tracer.end(span, status="lease-backoff")
                    return
                except StaleConfiguration:
                    # the configuration moved mid-scan; retry next pass
                    if tracer is not None:
                        tracer.end(span, status="stale-config")
                    return
                except _UNREACHABLE:
                    # truly gone: repair from the fallback copy
                    secondary = None
                    if span is not None:
                        span.attrs["degraded"] = True
            processed_all = yield from self._repair_fragment(
                fragment_id, secondary, cfg)
            if processed_all is None:
                # Stale-config abort: release the Redlease and retry later.
                if secondary is not None and red_token is not None:
                    try:
                        yield self.network.call(
                            secondary, self._cfg(cfg, op="red_release",
                                                 fragment_id=fragment_id,
                                                 token=red_token))
                    except (StaleConfiguration, *_UNREACHABLE):
                        pass
                if tracer is not None:
                    tracer.end(span, status="aborted")
                return
            if secondary is not None and red_token is not None:
                if processed_all:
                    try:
                        yield self.network.call(
                            secondary, self._cfg(cfg, op="delete_dirty",
                                                 fragment_id=fragment_id))
                    except (StaleConfiguration, *_UNREACHABLE):
                        pass
                try:
                    yield self.network.call(
                        secondary, self._cfg(cfg, op="red_release",
                                             fragment_id=fragment_id,
                                             token=red_token))
                except (StaleConfiguration, *_UNREACHABLE):
                    pass
            if processed_all:
                self.fragments_recovered += 1
                try:
                    yield self.network.call(
                        self.coordinator_address,
                        CoordinatorOp(op="dirty_done",
                                      fragment_id=fragment_id))
                except _UNREACHABLE:
                    pass
            if tracer is not None:
                tracer.end(span, processed_all=bool(processed_all))
        finally:
            # Idempotent backstop: an unexpected exception must not leave
            # the pass span on this worker process's context stack.
            if tracer is not None:
                tracer.end(span, status="error")

    # ------------------------------------------------------------------
    # Dirty-list fetching
    # ------------------------------------------------------------------
    def _page_limit(self) -> int:
        """Keys per dirty-list chunk: enough to keep the window fed."""
        return max(64, self.policy.batch_size * self.policy.max_inflight)

    def _repair_fragment(self, fragment_id: int, secondary: Optional[str],
                         cfg: int) -> SimGenerator:
        """Fetch the dirty list in chunks and repair each chunk.

        Returns True when every key was handled, False when the pass was
        aborted mid-repair, None on a stale-configuration abort during
        the fetch (the caller releases the Redlease and retries later).
        """
        if secondary is None:
            keys = yield from self._fetch_dirty_keys(fragment_id, None, cfg)
            if keys is None:
                return None
            return (yield from self._repair_keys(fragment_id, keys,
                                                 secondary, cfg))
        cursor = 0
        limit = self._page_limit()
        while True:
            try:
                page = yield self.network.call(
                    secondary, self._cfg(cfg, op="get_dirty_page",
                                         fragment_id=fragment_id,
                                         payload={"after": cursor,
                                                  "limit": limit}))
            except StaleConfiguration:
                return None
            except _UNREACHABLE:
                page = CACHE_MISS
            if page is CACHE_MISS or not page.complete:
                # Evicted, partial, or the secondary just died: fall back
                # to the monolithic fetch (which itself falls back to the
                # coordinator's copy when the secondary cannot serve one).
                keys = yield from self._fetch_dirty_keys(fragment_id,
                                                         secondary, cfg)
                if keys is None:
                    return None
                return (yield from self._repair_keys(fragment_id, keys,
                                                     secondary, cfg))
            if page.keys:
                ok = yield from self._repair_keys(
                    fragment_id, list(page.keys), secondary, cfg)
                if not ok:
                    return False
            if not page.more:
                return True
            cursor = page.cursor

    def _fetch_dirty_keys(self, fragment_id: int, secondary: Optional[str],
                          cfg: int) -> SimGenerator:
        """Monolithic dirty-list fetch; the fallback for chunked reads.

        Returns None on a stale-configuration abort.
        """
        if secondary is not None:
            try:
                dirty = yield self.network.call(
                    secondary, self._cfg(cfg, op="get_dirty",
                                         fragment_id=fragment_id))
            except StaleConfiguration:
                return None  # abort the pass; retry under the new config
            except _UNREACHABLE:
                dirty = CACHE_MISS
            if dirty is not CACHE_MISS and dirty.complete:
                return dirty.keys()
        try:
            copy = yield self.network.call(
                self.coordinator_address,
                CoordinatorOp(op="get_dirty_copy", fragment_id=fragment_id))
        except _UNREACHABLE:
            copy = []
        return list(copy)

    # ------------------------------------------------------------------
    # Pipelined batch repair
    # ------------------------------------------------------------------
    def _repair_keys(self, fragment_id: int, keys: List[str],
                     secondary: Optional[str], cfg: int) -> SimGenerator:
        """Repair ``keys`` with a bounded window of in-flight batches.

        Returns True when every key was handled and the fragment stayed
        in recovery mode for the whole pass.
        """
        batch = self.policy.batch_size
        window = self.policy.max_inflight
        inflight = []
        ok = True
        for start in range(0, len(keys), batch):
            fragment = self.config.fragment(fragment_id)
            if fragment.mode is not FragmentMode.RECOVERY:
                ok = False  # aborted by a concurrent transition
                break
            chunk = keys[start:start + batch]
            if self.recovery is not None:
                self.recovery.batch_started(fragment_id)
            self.batches_issued += 1
            inflight.append(self.sim.process(
                self._repair_chunk(fragment, chunk, secondary, cfg),
                name=f"{self.name}:repair:{fragment_id}"))
            if len(inflight) >= window:
                yield self.sim.any_of(inflight)
                still_running = []
                for process in inflight:
                    if process.triggered:
                        if not self._collect(fragment_id, process.value):
                            ok = False
                    else:
                        still_running.append(process)
                inflight = still_running
                if not ok:
                    break
        if inflight:
            yield self.sim.all_of(inflight)
            for process in inflight:
                if not self._collect(fragment_id, process.value):
                    ok = False
        return ok

    def _collect(self, fragment_id: int, result: Dict[str, int]) -> bool:
        """Fold one finished batch into the worker/recorder counters."""
        self.keys_overwritten += result["overwritten"]
        self.keys_deleted += result["deleted"]
        self.keys_skipped += result["skipped"]
        self.keys_degraded += result["degraded"]
        if self.recovery is not None:
            self.recovery.batch_finished(
                fragment_id, self.sim.now,
                repaired=result["overwritten"] + result["deleted"],
                skipped=result["skipped"], degraded=result["degraded"])
        return result["abort"] is None

    def _repair_chunk(self, fragment: FragmentInfo, keys: List[str],
                      secondary: Optional[str], cfg: int) -> SimGenerator:
        """One batch repair sub-process. Never raises the expected repair
        errors — they are reported through the result record so that the
        window's AllOf/AnyOf composites cannot fail spuriously."""
        result = {"overwritten": 0, "deleted": 0, "skipped": 0,
                  "degraded": 0, "abort": None}
        try:
            if (self.policy.overwrite_dirty and secondary is not None
                    and not self._pass_degraded):
                yield from self._overwrite_chunk(fragment, keys, secondary,
                                                 cfg, result)
            else:
                yield from self._delete_chunk(fragment, keys, cfg, result)
        except StaleConfiguration:
            result["abort"] = "stale"
        except _UNREACHABLE:
            result["abort"] = "unreachable"
        return result

    def _overwrite_chunk(self, fragment: FragmentInfo, keys: List[str],
                         secondary: str, cfg: int,
                         result: Dict[str, Any]) -> SimGenerator:
        """Gemini-O: refresh the primary's copies from the secondary —
        three round trips for the whole batch."""
        tokens = yield self.network.call(
            fragment.primary,
            self._cfg(cfg, op="batch_iset", keys=list(keys),
                      fragment_cfg_id=fragment.cfg_id))
        held = [(key, tokens[key]) for key in keys
                if tokens.get(key) is not None]
        # A client session owns the skipped keys right now; whatever it
        # installs is fresh, so their repair is already happening.
        result["skipped"] += len(keys) - len(held)
        if not held:
            return
        degraded = False
        try:
            values = yield self.network.call(
                secondary, self._cfg(cfg, op="mget",
                                     keys=[key for key, __ in held],
                                     fragment_cfg_id=fragment.cfg_id))
        except StaleConfiguration:
            # The secondary moved ahead mid-chunk; treat its copies as
            # missing (delete path), exactly like the per-key protocol.
            values = {}
        except _UNREACHABLE:
            # The secondary died mid-pass: degrade to Gemini-I deletes
            # for this chunk and the remainder of the pass.
            self._pass_degraded = True
            degraded = True
            values = {}
        items = [(key, values.get(key, CACHE_MISS), token)
                 for key, token in held]
        installed = yield self.network.call(
            fragment.primary,
            self._cfg(cfg, op="batch_iqset", payload=items,
                      fragment_cfg_id=fragment.cfg_id))
        for key, value, __ in items:
            if value is CACHE_MISS:
                result["deleted"] += 1
                if degraded:
                    result["degraded"] += 1
            elif installed.get(key):
                result["overwritten"] += 1
            else:
                result["skipped"] += 1  # lease voided by a client session

    def _delete_chunk(self, fragment: FragmentInfo, keys: List[str], cfg: int,
                      result: Dict[str, Any]) -> SimGenerator:
        """Gemini-I (or a degraded Gemini-O pass): drop the stale copies;
        the next read refills them. One round trip per batch."""
        yield self.network.call(
            fragment.primary,
            self._cfg(cfg, op="mdelete", keys=list(keys),
                      fragment_cfg_id=fragment.cfg_id))
        result["deleted"] += len(keys)
        if self.policy.overwrite_dirty and self._pass_degraded:
            result["degraded"] += len(keys)
