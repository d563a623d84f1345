"""Deliberately re-broken protocol variants (mutation testing).

A chaos engine is only as good as its checkers, and checkers rot
silently. Each *mutant* here re-introduces a specific protocol bug —
including ones this repo has actually shipped and fixed — as a reversible
monkey-patch; ``python -m repro.chaos --mutant NAME`` (and the CI smoke
job) then asserts the invariant registry still catches it within a
bounded number of seeds. If a refactor ever makes a mutant pass clean,
the checkers lost their teeth.

Mutants:

``fresh-marker``
    An evicted dirty list is recreated *with* the eviction marker, so a
    log that lost its prefix looks complete and recovery trusts it —
    defeating Section 3.1's eviction-detection scheme.

``drop-dirty-append``
    The instance acknowledges transient-mode appends without recording
    the key, silently losing write-log entries; recovery then repairs
    from an incomplete list.

``red-always-grant``
    :class:`~repro.cache.leases.Redlease` grants every acquire, even
    while an unexpired lease is held — breaking the mutual exclusion two
    recovery workers rely on when repairing the same fragment. Besides
    the direct ``redlease-exclusion`` finding, some schedules escalate
    into dirty-completeness violations and stale reads (double repair
    deletes the list under the other worker's feet).

``double-release``
    The coordinator's transition handlers release the transition
    ``Mutex`` twice — the classic unbalanced-cleanup bug (a release in
    an ``except`` arm *and* in the ``finally``). Before PR 4's
    underflow guard the extra release silently minted a phantom slot,
    so the next two transitions ran concurrently; with the guard it
    raises ``SimulationError`` inside the handler, killing the
    transition mid-flight. The protocol invariant checkers miss both
    shapes on most schedules, but the ``--sanitize`` interleaving
    sanitizer pins it immediately: a ``release-underflow`` finding at
    the extra release plus an unobserved ``crashed-process`` at
    teardown.

A note on what is *not* here: three mutants were tried and retired
because randomized schedules essentially never land in their windows.
A "stamp the current configuration id instead of the session's" mutant
(the Rejig bug PR 1 fixed) went undetected in 100 seeds — pushes in
this simulation are synchronous subscriber fan-outs, so the
cross-replica window is microseconds wide; that family is covered by
the targeted property test in
``tests/client/test_recovery_write_bounce.py`` instead. An
"unlocked-transition" mutant (transition ``Mutex`` grants everyone
immediately) went undetected in 200 sanitized seeds for the same
reason: transition handlers commit within a few hundred microseconds
of reading the configuration id, so two transitions virtually never
overlap the read→commit window even unlocked. A "dirty-copy-miss"
mutant (``Coordinator.op_get_dirty_copy`` always answers ``[]``) stayed
clean in 200 plain and 200 sanitized seeds: a client or worker asks for
the coordinator's copy only when the secondary holding the dirty list
died during recovery. The integration test
``tests/integration/test_secondary_loss.py::TestSecondaryFailsDuringRecovery::test_dirty_copy_fallback_preserves_consistency``
pins it: under the mutant a read returns the pre-write value. Chaos
search, the sanitizer, and property tests are complements, not
substitutes.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Dict, Iterator, Optional

from repro.cache.dirtylist import DirtyList, dirty_list_key
from repro.cache.instance import CacheInstance
from repro.cache.leases import Lease, LeaseKind, Redlease
from repro.sim.sync import Mutex

__all__ = ["MUTANTS", "apply_mutant"]


@contextmanager
def _fresh_marker() -> Iterator[None]:
    original = CacheInstance.op_append_dirty

    def patched(self, request):
        key = dirty_list_key(request.fragment_id)
        if key not in self._entries:
            # BUG (re-introduced): recreate the evicted list WITH the
            # marker, erasing the evidence that its prefix is gone.
            # geminilint: disable=GEM009 -- deliberate mutant: this IS the bug GEM009 exists to catch
            dirty = DirtyList(request.fragment_id, marker=True)
            self._store(key, dirty, request.tag(), dirty.size)
        return original(self, request)

    CacheInstance.op_append_dirty = patched
    try:
        yield
    finally:
        CacheInstance.op_append_dirty = original


@contextmanager
def _drop_dirty_append() -> Iterator[None]:
    original = CacheInstance.op_append_dirty

    def patched(self, request):
        entry = self._entries.get(dirty_list_key(request.fragment_id))
        if entry is not None and entry.value.complete:
            # BUG (re-introduced): acknowledge the append as complete
            # without recording the key in the write log.
            self._entries.move_to_end(entry.key)
            self.stats.dirty_appends += 1
            return True
        return original(self, request)

    CacheInstance.op_append_dirty = patched
    try:
        yield
    finally:
        CacheInstance.op_append_dirty = original


@contextmanager
def _red_always_grant() -> Iterator[None]:
    original = Redlease.acquire

    def patched(self, resource):
        # BUG (re-introduced): grant unconditionally, ignoring any live
        # holder — no backoff, no mutual exclusion.
        now = self._clock()
        self._gc(now)
        lease = Lease(LeaseKind.RED, resource, next(self._tokens), now,
                      now + self.lifetime)
        self._held[resource] = lease
        self.granted += 1
        return lease

    Redlease.acquire = patched
    try:
        yield
    finally:
        Redlease.acquire = original


@contextmanager
def _double_release() -> Iterator[None]:
    original = Mutex.release

    def patched(self):
        # BUG (re-introduced): unbalanced cleanup releases the lock
        # twice. The second call underflows the held count.
        original(self)
        original(self)

    Mutex.release = patched
    try:
        yield
    finally:
        Mutex.release = original


MUTANTS: Dict[str, object] = {
    "fresh-marker": _fresh_marker,
    "drop-dirty-append": _drop_dirty_append,
    "red-always-grant": _red_always_grant,
    "double-release": _double_release,
}


@contextmanager
def apply_mutant(name: Optional[str] = None) -> Iterator[None]:
    """Context manager activating mutant ``name`` (None = unmodified)."""
    if name is None:
        yield
        return
    try:
        factory = MUTANTS[name]
    except KeyError:
        raise ValueError(
            f"unknown mutant {name!r}; choose from {sorted(MUTANTS)}"
        ) from None
    with factory():
        yield
