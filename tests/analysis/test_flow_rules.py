"""GEM011-GEM014 on minimal fixtures, one behavior per test.

Fixture paths matter here: GEM013 only runs inside ``repro/live``,
GEM011 builds a cross-module project when the path sits in a real
source tree (so fixtures use non-tree paths to stay single-module),
and GEM014 locates ``ci/wire-schema.json`` by walking up from the
module path (so snapshot tests anchor themselves under ``tmp_path``).
"""

import json
import textwrap

import pytest

from repro.analysis.core import analyze_source
from repro.analysis.flowrules import (
    AsyncioDiscipline,
    ExceptionFlowClosure,
    JournalBeforeAck,
    WireSchemaDrift,
)

LIVE = "src/repro/live/fixture.py"


def _run(rule, source, path="fixture.py"):
    return analyze_source(textwrap.dedent(source), path=path, rules=[rule])


# ---------------------------------------------------------------------------
# GEM011

REGISTRY_FIXTURE = """
    class ReproError(Exception):
        pass

    class BoomError(ReproError):
        pass

    class CacheThing:
        def handle_request(self, request):
            handler = getattr(self, "op_" + request.op)
            return handler(request)

        def op_get(self, request):
            raise BoomError("no such key")

    _ERRORS = {{
    {entries}
    }}
"""


class TestExceptionFlowClosure:
    def test_unregistered_escape_fires(self):
        source = REGISTRY_FIXTURE.format(
            entries='    "ReproError": (ReproError, ()),')
        findings = _run(ExceptionFlowClosure(), source)
        assert [f.code for f in findings] == ["GEM011"]
        assert "BoomError" in findings[0].message
        assert "CacheThing.handle_request" in findings[0].message
        assert "CacheThing.op_get" in findings[0].message  # the witness

    def test_registered_escape_is_clean(self):
        source = REGISTRY_FIXTURE.format(
            entries='    "ReproError": (ReproError, ()),\n'
                    '        "BoomError": (BoomError, ()),')
        assert _run(ExceptionFlowClosure(), source) == []

    def test_exempt_escapes_are_ignored(self):
        source = """
            class ReproError(Exception):
                pass

            class CacheThing:
                def handle_request(self, request):
                    raise NotImplementedError("abstract surface")

            _ERRORS = {
                "ReproError": (ReproError, ()),
            }
        """
        assert _run(ExceptionFlowClosure(), source) == []

    def test_handler_side_catch_closes_the_escape(self):
        source = """
            class ReproError(Exception):
                pass

            class BoomError(ReproError):
                pass

            class CacheThing:
                def handle_request(self, request):
                    try:
                        return self.op_get(request)
                    except BoomError:
                        return None

                def op_get(self, request):
                    raise BoomError("no such key")

            _ERRORS = {
                "ReproError": (ReproError, ()),
            }
        """
        assert _run(ExceptionFlowClosure(), source) == []

    def test_unknown_registered_class_fires(self):
        source = """
            class CacheThing:
                def handle_request(self, request):
                    return None

            _ERRORS = {
                "GhostError": (GhostError, ()),
            }
        """
        findings = _run(ExceptionFlowClosure(), source)
        assert [f.code for f in findings] == ["GEM011"]
        assert "GhostError" in findings[0].message
        assert "not defined or imported" in findings[0].message

    def test_attr_mismatch_is_not_constructible(self):
        # Registered attrs ("key",) but __init__ takes (address, ...):
        # decode's positional re-feed would bind the wrong attribute.
        source = """
            class KeyedError(Exception):
                def __init__(self, address, message=""):
                    super().__init__(message)
                    self.address = address

            class CacheThing:
                def handle_request(self, request):
                    return None

            _ERRORS = {
                "KeyedError": (KeyedError, ("key",)),
            }
        """
        findings = _run(ExceptionFlowClosure(), source)
        assert [f.code for f in findings] == ["GEM011"]
        assert "not constructible" in findings[0].message

    def test_missing_message_keyword_fires(self):
        source = """
            class KeyedError(Exception):
                def __init__(self, key):
                    super().__init__(key)
                    self.key = key

            class CacheThing:
                def handle_request(self, request):
                    return None

            _ERRORS = {
                "KeyedError": (KeyedError, ("key",)),
            }
        """
        findings = _run(ExceptionFlowClosure(), source)
        assert [f.code for f in findings] == ["GEM011"]
        assert "'message'" in findings[0].message

    def test_matching_ctor_is_clean(self):
        source = """
            class KeyedError(Exception):
                def __init__(self, key, message=""):
                    super().__init__(message or key)
                    self.key = key

            class CacheThing:
                def handle_request(self, request):
                    return None

            _ERRORS = {
                "KeyedError": (KeyedError, ("key",)),
            }
        """
        assert _run(ExceptionFlowClosure(), source) == []

    def test_module_without_registry_is_ignored(self):
        source = """
            class CacheThing:
                def handle_request(self, request):
                    raise ValueError("anything")
        """
        assert _run(ExceptionFlowClosure(), source) == []


# ---------------------------------------------------------------------------
# GEM012

JOURNALED = """
    class PCache:
        def _journal_record(self, record):
            self._journal.write(repr(record))

        def _store(self, key, value):
            self._journal_record(["put", key])
            self._data[key] = value

        def _remove(self, key):
            self._journal_record(["del", key])
            del self._data[key]

        def _recharge(self, key):
            self._journal_record(["recharge", key])
"""


class TestJournalBeforeAck:
    def test_fully_journaled_cache_is_clean(self):
        assert _run(JournalBeforeAck(), JOURNALED) == []

    def test_hook_without_journal_call_fires(self):
        source = JOURNALED.replace(
            '            self._journal_record(["put", key])\n', "")
        assert '["put", key]' not in source
        findings = _run(JournalBeforeAck(), source)
        assert [f.code for f in findings] == ["GEM012"]
        assert "PCache._store" in findings[0].message

    def test_missing_hook_override_fires(self):
        source = JOURNALED.replace(
            "\n        def _recharge(self, key):\n"
            '            self._journal_record(["recharge", key])\n', "")
        assert "_recharge" not in source
        findings = _run(JournalBeforeAck(), source)
        assert [f.code for f in findings] == ["GEM012"]
        assert "'_recharge'" in findings[0].message

    def test_deferred_journal_callback_fires(self):
        source = JOURNALED.replace(
            '            self._journal_record(["recharge", key])',
            '            self.loop.call_soon(self._journal_record,\n'
            '                                ["recharge", key])')
        assert "call_soon" in source
        findings = _run(JournalBeforeAck(), source)
        # The hook loses its synchronous append AND the handed-off
        # reference is flagged as the ack-before-persist shape.
        assert [f.code for f in findings] == ["GEM012", "GEM012"]
        messages = " ".join(f.message for f in findings)
        assert "scheduler or callback" in messages
        assert "PCache._recharge" in messages

    def test_unjournaled_handle_request_fires(self):
        source = JOURNALED + (
            "\n        def handle_request(self, request):\n"
            "            self.known_config_id = request.cfg\n")
        findings = _run(JournalBeforeAck(), source)
        assert [f.code for f in findings] == ["GEM012"]
        assert "handle_request" in findings[0].message

    def test_wipe_that_ignores_the_journal_fires(self):
        source = JOURNALED + (
            "\n        def wipe(self):\n"
            "            self._data.clear()\n")
        findings = _run(JournalBeforeAck(), source)
        assert [f.code for f in findings] == ["GEM012"]
        assert "wipe" in findings[0].message

    def test_wipe_that_truncates_the_journal_is_clean(self):
        source = JOURNALED + (
            "\n        def wipe(self):\n"
            "            self._data.clear()\n"
            "            self._journal.truncate(0)\n")
        assert _run(JournalBeforeAck(), source) == []

    def test_non_journaling_class_is_ignored(self):
        source = """
            class PlainCache:
                def _store(self, key, value):
                    self._data[key] = value
        """
        assert _run(JournalBeforeAck(), source) == []


# ---------------------------------------------------------------------------
# GEM013

class TestAsyncioBlocking:
    def test_blocking_open_in_async_def_fires(self):
        findings = _run(AsyncioDiscipline(), """
            async def serve():
                with open("state") as handle:
                    return handle.read()
        """, path=LIVE)
        assert [f.code for f in findings] == ["GEM013"]
        assert "open(...)" in findings[0].message
        assert "async serve" in findings[0].message

    def test_finding_anchors_at_the_primitive_in_the_sync_callee(self):
        source = textwrap.dedent("""
            async def serve():
                return load()

            def load():
                with open("state") as handle:
                    return handle.read()
        """)
        findings = analyze_source(source, path=LIVE,
                                  rules=[AsyncioDiscipline()])
        assert [f.code for f in findings] == ["GEM013"]
        assert "reached from async serve" in findings[0].message
        # Anchored at the open() call, not at serve's call site: one
        # suppression at the frontier covers every async caller.
        open_line = next(i + 1 for i, line in
                         enumerate(source.splitlines())
                         if "open(" in line)
        assert findings[0].line == open_line

    def test_same_code_outside_repro_live_is_ignored(self):
        assert _run(AsyncioDiscipline(), """
            async def serve():
                with open("state") as handle:
                    return handle.read()
        """, path="src/repro/sim/fixture.py") == []

    def test_sync_only_module_is_clean(self):
        assert _run(AsyncioDiscipline(), """
            def load():
                with open("state") as handle:
                    return handle.read()
        """, path=LIVE) == []


class TestAsyncioFireAndForget:
    def test_orphaned_task_with_escaping_exception_fires(self):
        findings = _run(AsyncioDiscipline(), """
            import asyncio

            class BoomError(Exception):
                pass

            async def work():
                raise BoomError("background failure")

            async def main():
                asyncio.create_task(work())
        """, path=LIVE)
        assert [f.code for f in findings] == ["GEM013"]
        assert "BoomError" in findings[0].message

    def test_retained_and_awaited_task_is_clean(self):
        assert _run(AsyncioDiscipline(), """
            import asyncio

            class BoomError(Exception):
                pass

            async def work():
                raise BoomError("background failure")

            async def main():
                task = asyncio.create_task(work())
                await task
        """, path=LIVE) == []

    def test_orphaned_task_on_non_raising_coroutine_is_clean(self):
        assert _run(AsyncioDiscipline(), """
            import asyncio

            async def work():
                return 1

            async def main():
                asyncio.create_task(work())
        """, path=LIVE) == []

    def test_orphaned_task_on_unresolvable_coroutine_fires(self):
        findings = _run(AsyncioDiscipline(), """
            import asyncio

            async def main(factory):
                asyncio.create_task(factory.run())
        """, path=LIVE)
        assert [f.code for f in findings] == ["GEM013"]
        assert "unresolvable" in findings[0].message


class TestAsyncioUnarmedRpc:
    def test_transport_call_without_timeout_fires(self):
        findings = _run(AsyncioDiscipline(), """
            async def ping(transport):
                return await transport.call("addr", {"op": "ping"})
        """, path=LIVE)
        assert [f.code for f in findings] == ["GEM013"]
        assert "timeout" in findings[0].message

    def test_transport_call_with_timeout_kw_is_clean(self):
        assert _run(AsyncioDiscipline(), """
            async def ping(transport):
                return await transport.call("addr", {"op": "ping"},
                                            timeout=2.0)
        """, path=LIVE) == []

    def test_open_connection_outside_wait_for_fires(self):
        findings = _run(AsyncioDiscipline(), """
            import asyncio

            async def connect(host, port):
                return await asyncio.open_connection(host, port)
        """, path=LIVE)
        assert [f.code for f in findings] == ["GEM013"]
        assert "wait_for" in findings[0].message

    def test_open_connection_under_wait_for_is_clean(self):
        assert _run(AsyncioDiscipline(), """
            import asyncio

            async def connect(host, port):
                return await asyncio.wait_for(
                    asyncio.open_connection(host, port), 5.0)
        """, path=LIVE) == []


class TestAsyncioLocks:
    def test_lock_across_await_without_finally_fires(self):
        findings = _run(AsyncioDiscipline(), """
            async def update(lock, transport, request):
                await lock.acquire()
                reply = await transport.call("addr", request, timeout=1.0)
                lock.release()
                return reply
        """, path=LIVE)
        assert [f.code for f in findings] == ["GEM013"]
        assert "try/finally" in findings[0].message

    def test_release_in_finally_is_clean(self):
        assert _run(AsyncioDiscipline(), """
            async def update(lock, transport, request):
                await lock.acquire()
                try:
                    return await transport.call("addr", request,
                                                timeout=1.0)
                finally:
                    lock.release()
        """, path=LIVE) == []

    def test_release_before_the_await_is_clean(self):
        assert _run(AsyncioDiscipline(), """
            async def update(lock, transport, request):
                await lock.acquire()
                request.stamp = 1
                lock.release()
                return await transport.call("addr", request, timeout=1.0)
        """, path=LIVE) == []


# ---------------------------------------------------------------------------
# GEM014

CODEC = """
    WIRE_VERSION = {version}
    MAX_FRAME = 4 * 1024

    class ReproError(Exception):
        pass

    _DATACLASSES = {{
        "CacheOp": object,
    }}

    _ERRORS = {{
        "ReproError": (ReproError, ()),
    }}
"""


def _codec_snapshot(version=7):
    return {
        "wire_version": version,
        "max_frame": 4096,
        "dataclasses": {"CacheOp": ["op", "key"]},
        "errors": {"ReproError": {"class": "ReproError", "attrs": []}},
    }


@pytest.fixture
def codec_tree(tmp_path):
    """A fake source tree with its own ci/wire-schema.json."""
    module = tmp_path / "src" / "repro" / "live" / "wire.py"
    module.parent.mkdir(parents=True)
    snapshot = tmp_path / "ci" / "wire-schema.json"
    snapshot.parent.mkdir()

    def run(source, snap):
        if snap is not None:
            snapshot.write_text(json.dumps(snap), encoding="utf-8")
        return analyze_source(textwrap.dedent(source), path=str(module),
                              rules=[WireSchemaDrift()])
    return run


class TestWireSchemaDrift:
    def test_matching_snapshot_is_clean(self, codec_tree):
        source = CODEC.format(version=7)
        assert codec_tree(source, _codec_snapshot()) == []

    def test_unbumped_drift_demands_version_bump(self, codec_tree):
        source = CODEC.format(version=7).replace(
            '        "ReproError": (ReproError, ()),\n',
            '        "ReproError": (ReproError, ()),\n'
            '        "NewError": (ReproError, ()),\n')
        findings = codec_tree(source, _codec_snapshot())
        assert [f.code for f in findings] == ["GEM014"]
        assert "NewError missing from snapshot" in findings[0].message
        assert "WIRE_VERSION bump" in findings[0].message

    def test_bumped_drift_asks_for_regeneration(self, codec_tree):
        source = CODEC.format(version=8).replace(
            '        "ReproError": (ReproError, ()),\n',
            '        "ReproError": (ReproError, ()),\n'
            '        "NewError": (ReproError, ()),\n')
        findings = codec_tree(source, _codec_snapshot())
        assert [f.code for f in findings] == ["GEM014"]
        assert "WIRE_VERSION bump" not in findings[0].message
        assert "regenerate" in findings[0].message

    def test_version_only_mismatch_fires(self, codec_tree):
        findings = codec_tree(CODEC.format(version=8), _codec_snapshot())
        assert [f.code for f in findings] == ["GEM014"]
        assert "WIRE_VERSION is 8" in findings[0].message

    def test_max_frame_change_is_drift(self, codec_tree):
        source = CODEC.format(version=7).replace(
            "MAX_FRAME = 4 * 1024", "MAX_FRAME = 8 * 1024")
        findings = codec_tree(source, _codec_snapshot())
        assert [f.code for f in findings] == ["GEM014"]
        assert "MAX_FRAME 8192" in findings[0].message

    def test_dataclass_field_added_without_bump_fires(self, codec_tree):
        # Field lists are schema too: a peer on the old codec would drop
        # (or choke on) the new field under the same WIRE_VERSION.
        source = CODEC.format(version=7) + """
    @dataclass
    class CacheOp:
        op: str
        key: str
        trace: str = ""
"""
        findings = codec_tree(source, _codec_snapshot())
        assert [f.code for f in findings] == ["GEM014"]
        assert ("dataclass CacheOp fields ['op', 'key', 'trace'] != "
                "snapshot ['op', 'key']") in findings[0].message
        assert "WIRE_VERSION bump" in findings[0].message

    def test_matching_dataclass_fields_are_clean(self, codec_tree):
        source = CODEC.format(version=7) + """
    @dataclass
    class CacheOp:
        op: str
        key: str
"""
        assert codec_tree(source, _codec_snapshot()) == []

    def test_missing_snapshot_under_repro_live_fires(self, codec_tree):
        findings = codec_tree(CODEC.format(version=7), None)
        assert [f.code for f in findings] == ["GEM014"]
        assert "no ci/wire-schema.json" in findings[0].message


class TestWireCallSites:
    def test_unregistered_dataclass_at_call_site_fires(self):
        source = CODEC.format(version=7) + (
            '\n    async def go(transport):\n'
            '        return await transport.call("addr", RogueOp(1),\n'
            '                                    timeout=1.0)\n')
        findings = _run(WireSchemaDrift(), source,
                        path="/nonexistent/wire_fixture.py")
        assert [f.code for f in findings] == ["GEM014"]
        assert "RogueOp" in findings[0].message

    def test_registered_dataclass_at_call_site_is_clean(self):
        source = CODEC.format(version=7) + (
            '\n    async def go(transport):\n'
            '        return await transport.call("addr", CacheOp(1),\n'
            '                                    timeout=1.0)\n')
        assert _run(WireSchemaDrift(), source,
                    path="/nonexistent/wire_fixture.py") == []

    def test_module_without_governing_registry_is_ignored(self):
        source = """
            async def go(transport):
                return await transport.call("addr", RogueOp(1),
                                            timeout=1.0)
        """
        assert _run(WireSchemaDrift(), source,
                    path="/nonexistent/client_fixture.py") == []
