"""The analyzer must catch this repo's actual historical bugs.

Each test takes the *current* (fixed) source of the module where a bug
once lived, applies a minimal textual revert reintroducing the bug, and
asserts the matching rule fires — and that the unreverted source stays
clean. This pins the rules to the failures they were written for
(CHANGES.md: PR 1 stale-read resurrection, PR 2 split-brain).
"""

from pathlib import Path

import pytest

from repro.analysis.core import analyze_source
from repro.analysis.flowrules import (ExceptionFlowClosure,
                                      JournalBeforeAck,
                                      WireSchemaDrift)
from repro.analysis.interleave import (CheckThenActOnMarkers,
                                       LockOrderInversion,
                                       StaleCaptureAcrossYield)
from repro.analysis.rules import LivenessGuard, SessionConfigStamp

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"

CLIENT = SRC / "client" / "client.py"
COORDINATOR = SRC / "coordinator" / "coordinator.py"
WORKER = SRC / "recovery" / "worker.py"
WIRE = SRC / "live" / "wire.py"
NODE = SRC / "live" / "node.py"

#: PR 1's stamping bug: a recovery-mode read path stamped the *live*
#: configuration id instead of the one captured when the session routed,
#: letting a session that straddled a Rejig complete against superseded
#: routing and resurrect a pre-write value.
STAMP_FIXED = 'self._op("iqget", cfg,'
STAMP_BUGGED = 'self._op("iqget", self.config.config_id,'

#: PR 2's split-brain: a failed-over coordinator kept acting on direct
#: callbacks because a notification entry point skipped the liveness
#: check. Every lifecycle event now enters through ``on_event``, so
#: reverting its one ``if not self.up: return`` guard reintroduces the
#: shape.
GUARD = "        if not self.up:\n            return\n"


class TestPr1ConfigStampRevert:
    def test_fixed_client_is_clean(self):
        findings = analyze_source(CLIENT.read_text(), path="client.py",
                                  rules=[SessionConfigStamp()])
        assert findings == []

    def test_reverted_client_fires_gem004(self):
        source = CLIENT.read_text()
        assert STAMP_FIXED in source, "revert anchor moved; update test"
        bugged = source.replace(STAMP_FIXED, STAMP_BUGGED, 1)
        findings = analyze_source(bugged, path="client.py",
                                  rules=[SessionConfigStamp()])
        assert [f.code for f in findings] == ["GEM004"]
        assert "self.config.config_id" in findings[0].message


class TestPr2LivenessGuardRevert:
    def test_fixed_coordinator_is_clean(self):
        findings = analyze_source(COORDINATOR.read_text(),
                                  path="coordinator.py",
                                  rules=[LivenessGuard()])
        assert findings == []

    @pytest.mark.parametrize("handler", ["on_event"])
    def test_reverted_coordinator_fires_gem005(self, handler):
        source = COORDINATOR.read_text()
        lines = source.splitlines(keepends=True)
        start = next(i for i, line in enumerate(lines)
                     if f"def {handler}(" in line)
        block = "".join(lines[start:start + 20])
        assert GUARD in block, "guard moved; update test"
        reverted = "".join(lines[:start]) + block.replace(GUARD, "", 1) \
            + "".join(lines[start + 20:])
        findings = analyze_source(reverted, path="coordinator.py",
                                  rules=[LivenessGuard()])
        assert [f.code for f in findings] == ["GEM005"]
        assert handler in findings[0].message


#: PR 1's stale-routing shape: the read session originally captured its
#: fragment and configuration id *before* the retry loop, so a session
#: straddling a Rejig kept routing every retry with superseded state.
#: The fix moved the capture inside the loop; hoisting it back out is
#: the minimal revert.
CAPTURE_FIXED = """\
            for attempt in range(1, self.MAX_ATTEMPTS + 1):
                attempts = attempt
                fragment = self.cache.route(key)
                cfg = self.cache.config_id
"""
CAPTURE_BUGGED = """\
            fragment = self.cache.route(key)
            cfg = self.cache.config_id
            for attempt in range(1, self.MAX_ATTEMPTS + 1):
                attempts = attempt
"""

#: PR 3's LeaseBackoff drop: ``_read_recovery`` once discarded the dirty
#: key in a ``finally``, so a claim that bounced on LeaseBackoff still
#: dropped the key from the session's dirty view and the retry read the
#: stale pre-outage copy through the iqget path.
DISCARD_FIXED = """\
            token = yield self.network.call(
                primary, self._op("iset", cfg, key=key,
                                  fragment_cfg_id=fragment.cfg_id))
            dirty.discard(key)
"""
DISCARD_BUGGED = """\
            try:
                token = yield self.network.call(
                    primary, self._op("iset", cfg, key=key,
                                      fragment_cfg_id=fragment.cfg_id))
            finally:
                dirty.discard(key)
"""


class TestPr1StaleCaptureRevert:
    def test_fixed_client_is_clean(self):
        findings = analyze_source(CLIENT.read_text(), path="client.py",
                                  rules=[StaleCaptureAcrossYield()])
        assert findings == []

    def test_hoisted_capture_fires_gem007(self):
        source = CLIENT.read_text()
        assert source.count(CAPTURE_FIXED) == 2, \
            "capture anchor moved; update test"
        bugged = source.replace(CAPTURE_FIXED, CAPTURE_BUGGED, 1)
        findings = analyze_source(bugged, path="client.py",
                                  rules=[StaleCaptureAcrossYield()])
        # Both the fragment and the cfg capture go stale.
        assert [f.code for f in findings] == ["GEM007", "GEM007"]
        assert any("'fragment'" in f.message for f in findings)
        assert any("'cfg'" in f.message for f in findings)


class TestPr3DirtyViewDropRevert:
    def test_finally_discard_fires_gem007(self):
        source = CLIENT.read_text()
        assert DISCARD_FIXED in source, "discard anchor moved; update test"
        bugged = source.replace(DISCARD_FIXED, DISCARD_BUGGED, 1)
        findings = analyze_source(bugged, path="client.py",
                                  rules=[StaleCaptureAcrossYield()])
        assert [f.code for f in findings] == ["GEM007"]
        assert "dirty.discard" in findings[0].message


#: The recovery-read bug (fixed alongside geminilint in PR 3): the paged
#: dirty fetch checked only for CACHE_MISS, ignoring the eviction marker
#: — a partial page silently repaired a subset of the fragment.
PAGE_FIXED = "if page is CACHE_MISS or not page.complete:"
PAGE_BUGGED = "if page is CACHE_MISS:"


class TestRecoveryPageMarkerRevert:
    def test_fixed_worker_is_clean(self):
        findings = analyze_source(WORKER.read_text(), path="worker.py",
                                  rules=[CheckThenActOnMarkers()])
        assert findings == []

    def test_unchecked_page_fires_gem009(self):
        source = WORKER.read_text()
        assert PAGE_FIXED in source, "page anchor moved; update test"
        bugged = source.replace(PAGE_FIXED, PAGE_BUGGED, 1)
        findings = analyze_source(bugged, path="worker.py",
                                  rules=[CheckThenActOnMarkers()])
        assert [f.code for f in findings] == ["GEM009"]
        assert "'page'" in findings[0].message


#: Nothing in the tree nests locks today; GEM008 is pinned by injecting
#: the minimal inversion into the real worker module — two helpers that
#: take the Redlease and a local mutex in opposite orders.
INVERSION = '''

    def _hold_red_then_lock(self, cfg, fragment_id):
        lease = yield self.network.call(
            "cache-0", self._cfg(cfg, op="red_acquire",
                                 fragment_id=fragment_id))
        yield self._pace.acquire()
        self._pace.release()
        yield self.network.call(
            "cache-0", self._cfg(cfg, op="red_release",
                                 fragment_id=fragment_id))

    def _hold_lock_then_red(self, cfg, fragment_id):
        yield self._pace.acquire()
        lease = yield self.network.call(
            "cache-0", self._cfg(cfg, op="red_acquire",
                                 fragment_id=fragment_id))
        self._pace.release()
'''


class TestLockOrderInversionInjection:
    def test_fixed_worker_is_clean(self):
        findings = analyze_source(WORKER.read_text(), path="worker.py",
                                  rules=[LockOrderInversion()])
        assert findings == []

    def test_injected_inversion_fires_gem008(self):
        bugged = WORKER.read_text() + INVERSION
        findings = analyze_source(bugged, path="worker.py",
                                  rules=[LockOrderInversion()])
        assert [f.code for f in findings] == ["GEM008"]
        assert "redlease" in findings[0].message


#: The wire registry's LeaseBackoff entry: both live RPC surfaces
#: (PersistentCacheInstance and LiveCoordinator) can raise it through
#: the lease table, so deleting the registration reopens the bug the
#: registry exists to prevent — a busy lease decoding as an opaque
#: ReproError, which clients do not back off on.
LEASE_ENTRY = '    "LeaseBackoff": (LeaseBackoff, ("key",)),\n'

#: The envelope's array layout, and the same fields with two swapped.
ENVELOPE_LAYOUT = 'ENVELOPE_FIELDS = ("v", "kind", "id", "src", "payload")'
ENVELOPE_REORDERED = 'ENVELOPE_FIELDS = ("v", "kind", "id", "payload", "src")'


class TestWireRegistryDropRevert:
    def test_fixed_wire_module_is_clean(self):
        findings = analyze_source(WIRE.read_text(), path=str(WIRE),
                                  rules=[ExceptionFlowClosure()])
        assert findings == []

    def test_dropped_lease_backoff_entry_fires_gem011(self):
        source = WIRE.read_text()
        assert LEASE_ENTRY in source, "registry anchor moved; update test"
        bugged = source.replace(LEASE_ENTRY, "", 1)
        findings = analyze_source(bugged, path=str(WIRE),
                                  rules=[ExceptionFlowClosure()])
        # Both served surfaces leak it: the cache instance and the
        # coordinator.
        assert [f.code for f in findings] == ["GEM011", "GEM011"]
        surfaces = " ".join(f.message for f in findings)
        assert "LeaseBackoff" in findings[0].message
        assert "PersistentCacheInstance.handle_request" in surfaces
        assert "LiveCoordinator.handle_request" in surfaces


#: The journal-before-ack contract in the persistent instance: every
#: storage hook appends synchronously, so the record is durable before
#: NodeServer writes the reply envelope.
JOURNAL_PUT = ('        self._journal_record(["put", key, value, '
               'config_id, value_size])\n')
JOURNAL_DEFERRED = ('        get_event_loop().call_soon(\n'
                    '            self._journal_record,\n'
                    '            ["put", key, value, config_id, '
                    'value_size])\n')


class TestJournalBeforeAckRevert:
    def test_fixed_node_module_is_clean(self):
        findings = analyze_source(NODE.read_text(), path="node.py",
                                  rules=[JournalBeforeAck()])
        assert findings == []

    def test_removed_store_append_fires_gem012(self):
        source = NODE.read_text()
        assert JOURNAL_PUT in source, "journal anchor moved; update test"
        bugged = source.replace(JOURNAL_PUT, "", 1)
        findings = analyze_source(bugged, path="node.py",
                                  rules=[JournalBeforeAck()])
        assert [f.code for f in findings] == ["GEM012"]
        assert "PersistentCacheInstance._store" in findings[0].message

    def test_deferred_store_append_fires_gem012(self):
        # Scheduling the append instead of calling it reorders persist
        # after ack: the classic crash window, caught statically.
        source = NODE.read_text()
        assert JOURNAL_PUT in source, "journal anchor moved; update test"
        bugged = source.replace(JOURNAL_PUT, JOURNAL_DEFERRED, 1)
        findings = analyze_source(bugged, path="node.py",
                                  rules=[JournalBeforeAck()])
        codes = [f.code for f in findings]
        assert codes == ["GEM012", "GEM012"]
        messages = " ".join(f.message for f in findings)
        assert "scheduler or callback" in messages
        assert "PersistentCacheInstance._store" in messages


class TestWireSchemaDriftRevert:
    def test_fixed_wire_module_matches_snapshot(self):
        findings = analyze_source(WIRE.read_text(), path=str(WIRE),
                                  rules=[WireSchemaDrift()])
        assert findings == []

    def test_codec_edit_without_bump_fires_gem014(self):
        # The drift gate's whole point: editing a registry without
        # regenerating the snapshot (and bumping WIRE_VERSION) fails.
        source = WIRE.read_text()
        assert LEASE_ENTRY in source, "registry anchor moved; update test"
        bugged = source.replace(LEASE_ENTRY, "", 1)
        findings = analyze_source(bugged, path=str(WIRE),
                                  rules=[WireSchemaDrift()])
        assert [f.code for f in findings] == ["GEM014"]
        assert "LeaseBackoff gone from codec" in findings[0].message
        assert "WIRE_VERSION bump" in findings[0].message

    def test_envelope_layout_edit_without_bump_fires_gem014(self):
        # The envelope is a positional array, so moving one of its
        # fields changes what every peer reads at each position — a
        # wire change even though no registry entry moved.
        source = WIRE.read_text()
        assert ENVELOPE_LAYOUT in source, "envelope anchor moved; update test"
        bugged = source.replace(ENVELOPE_LAYOUT, ENVELOPE_REORDERED, 1)
        findings = analyze_source(bugged, path=str(WIRE),
                                  rules=[WireSchemaDrift()])
        assert [f.code for f in findings] == ["GEM014"]
        assert "ENVELOPE_FIELDS" in findings[0].message
        assert "WIRE_VERSION bump" in findings[0].message

