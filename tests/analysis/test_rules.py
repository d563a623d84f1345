"""Known-bad / known-good fixtures for every GEM rule.

Each rule is exercised in isolation via ``analyze_source(rules=[...])``
so a fixture can violate one discipline without tripping the others.
"""

import ast
import textwrap
from pathlib import Path

from repro.analysis.core import analyze_source
from repro.analysis.rules import (
    LivenessGuard,
    MissingProtocolEvent,
    ProtocolLayering,
    SessionConfigStamp,
    UnawaitedSimPrimitive,
    UnguardedDirtyMutation,
    WallClockAndGlobalRandomness,
)


SRC = Path(__file__).resolve().parents[2] / "src" / "repro"


def check(rule, source):
    return analyze_source(textwrap.dedent(source), rules=[rule()])


class TestGem001WallClockAndGlobalRandomness:
    def test_time_import_flagged(self):
        findings = check(WallClockAndGlobalRandomness, """
            import time
        """)
        assert [f.code for f in findings] == ["GEM001"]
        assert "wall-clock module" in findings[0].message

    def test_datetime_from_import_flagged(self):
        findings = check(WallClockAndGlobalRandomness, """
            from datetime import datetime
        """)
        assert [f.code for f in findings] == ["GEM001"]

    def test_wall_clock_call_flagged(self):
        findings = check(WallClockAndGlobalRandomness, """
            def stamp():
                return time.monotonic()
        """)
        assert [f.code for f in findings] == ["GEM001"]

    def test_global_random_call_flagged(self):
        findings = check(WallClockAndGlobalRandomness, """
            import random

            def jitter():
                return random.uniform(0, 1)
        """)
        # one for the call; importing the random module itself is fine
        assert [f.code for f in findings] == ["GEM001"]
        assert "global randomness" in findings[0].message

    def test_ad_hoc_random_construction_flagged(self):
        findings = check(WallClockAndGlobalRandomness, """
            import random

            def make():
                return random.Random(0)
        """)
        assert [f.code for f in findings] == ["GEM001"]
        assert "RngRegistry" in findings[0].message

    def test_injected_stream_is_clean(self):
        findings = check(WallClockAndGlobalRandomness, """
            def jitter(rng):
                return rng.uniform(0, 1) + rng.random()
        """)
        assert findings == []

    def test_sim_clock_is_clean(self):
        findings = check(WallClockAndGlobalRandomness, """
            def stamp(sim):
                return sim.now
        """)
        assert findings == []


class TestGem002UnawaitedSimPrimitive:
    def test_bare_timeout_statement_flagged(self):
        findings = check(UnawaitedSimPrimitive, """
            def session(self):
                self.sim.timeout(1.0)
                yield self.sim.event()
        """)
        assert [f.code for f in findings] == ["GEM002"]
        assert "discarded" in findings[0].message

    def test_bare_network_call_flagged(self):
        findings = check(UnawaitedSimPrimitive, """
            def session(self, op):
                self.network.call("primary", op)
        """)
        assert [f.code for f in findings] == ["GEM002"]

    def test_assigned_but_never_read_flagged(self):
        findings = check(UnawaitedSimPrimitive, """
            def session(self):
                pending = self.sim.timeout(1.0)
                yield self.sim.event()
        """)
        assert [f.code for f in findings] == ["GEM002"]
        assert "'pending'" in findings[0].message

    def test_yielded_primitive_is_clean(self):
        findings = check(UnawaitedSimPrimitive, """
            def session(self, op):
                yield self.sim.timeout(1.0)
                reply = yield self.network.call("primary", op)
                return reply
        """)
        assert findings == []

    def test_assigned_then_waited_is_clean(self):
        findings = check(UnawaitedSimPrimitive, """
            def session(self):
                pending = self.sim.event()
                yield pending
        """)
        assert findings == []

    def test_spawning_a_process_is_exempt(self):
        findings = check(UnawaitedSimPrimitive, """
            def start(self):
                self.sim.process(self._run(), name="bg")
        """)
        assert findings == []


class TestGem003UnguardedDirtyMutation:
    def test_mutation_without_any_guard_flagged(self):
        findings = check(UnguardedDirtyMutation, """
            class RecoveryWorker:
                def _run(self):
                    yield from self._repair()

                def _repair(self):
                    yield self.network.call(
                        "primary", self._op(op="mdelete", keys=[]))
        """)
        assert [f.code for f in findings] == ["GEM003"]
        assert "mdelete" in findings[0].message

    def test_mutation_behind_guarded_pass_is_clean(self):
        findings = check(UnguardedDirtyMutation, """
            class RecoveryWorker:
                def _run(self):
                    yield self.network.call(
                        "primary", self._op(op="red_acquire", fragment=0))
                    yield from self._repair()

                def _repair(self):
                    yield self.network.call(
                        "primary", self._op(op="mdelete", keys=[]))
        """)
        assert findings == []

    def test_guard_and_mutation_in_same_method_is_clean(self):
        findings = check(UnguardedDirtyMutation, """
            class RecoveryWorker:
                def _pass(self):
                    yield self.network.call(
                        "primary", self._op(op="red_acquire", fragment=0))
                    yield self.network.call(
                        "primary", self._op(op="delete_dirty", fragment=0))
        """)
        assert findings == []

    def test_second_unguarded_path_still_flagged(self):
        findings = check(UnguardedDirtyMutation, """
            class RecoveryWorker:
                def _run(self):
                    yield self.network.call(
                        "primary", self._op(op="red_acquire", fragment=0))
                    yield from self._repair()

                def on_demand(self):
                    yield from self._repair()

                def _repair(self):
                    yield self.network.call(
                        "primary", self._op(op="iqset", key="k"))
        """)
        assert [f.code for f in findings] == ["GEM003"]

    def test_non_worker_class_is_out_of_scope(self):
        findings = check(UnguardedDirtyMutation, """
            class GeminiClient:
                def write(self):
                    yield self.network.call(
                        "primary", self._op(op="iqset", key="k"))
        """, )
        assert findings == []

    def test_read_only_ops_are_clean(self):
        findings = check(UnguardedDirtyMutation, """
            class RecoveryWorker:
                def _run(self):
                    yield self.network.call(
                        "primary", self._op(op="get_dirty", fragment=0))
        """)
        assert findings == []


class TestGem004SessionConfigStamp:
    DISPATCHER = """
        from dataclasses import dataclass

        @dataclass
        class CacheOp:
            op: str
            client_cfg_id: int

        class CacheInstance:
            def handle_request(self, request):
                {check}
                handler = getattr(self, "op_" + request.op)
                return handler(request)

            def op_get(self, request):
                return self.store.get(request.key)
    """

    def test_dispatcher_without_freshness_check_flagged(self):
        findings = check(SessionConfigStamp,
                         self.DISPATCHER.format(check="pass"))
        assert [f.code for f in findings] == ["GEM004"]
        assert "handle_request" in findings[0].message

    def test_dispatcher_with_freshness_check_is_clean(self):
        findings = check(SessionConfigStamp, self.DISPATCHER.format(
            check="self._check_config_id(request.client_cfg_id)"))
        assert findings == []

    def test_stamping_live_state_flagged(self):
        findings = check(SessionConfigStamp, """
            class GeminiClient:
                def _op(self, op, cfg_id, **fields):
                    return CacheOp(op=op, client_cfg_id=cfg_id, **fields)

                def read(self, key):
                    yield self.network.call(
                        "primary",
                        self._op("iqget", self.config.config_id, key=key))
        """)
        assert [f.code for f in findings] == ["GEM004"]
        assert "self.config.config_id" in findings[0].message

    def test_stamping_live_state_via_keyword_flagged(self):
        findings = check(SessionConfigStamp, """
            class GeminiClient:
                def _op(self, op, cfg_id, **fields):
                    return CacheOp(op=op, client_cfg_id=cfg_id, **fields)

                def read(self, key):
                    yield self.network.call(
                        "primary",
                        self._op("iqget", cfg_id=self.cache.config_id,
                                 key=key))
        """)
        assert [f.code for f in findings] == ["GEM004"]

    def test_stamping_session_captured_name_is_clean(self):
        findings = check(SessionConfigStamp, """
            class GeminiClient:
                def _op(self, op, cfg_id, **fields):
                    return CacheOp(op=op, client_cfg_id=cfg_id, **fields)

                def read(self, key):
                    cfg = self.config.config_id
                    yield self.network.call(
                        "primary", self._op("iqget", cfg, key=key))
        """)
        assert findings == []

    def test_class_without_stamping_helper_is_out_of_scope(self):
        findings = check(SessionConfigStamp, """
            class Reporter:
                def describe(self):
                    return self.config.config_id
        """)
        assert findings == []


class TestGem005LivenessGuard:
    def test_mutating_callback_without_guard_flagged(self):
        findings = check(LivenessGuard, """
            class Coordinator(RemoteNode):
                def notify_failure(self, address):
                    self.sim.process(self._handle_failure(address))
        """)
        assert [f.code for f in findings] == ["GEM005"]
        assert "split-brain" in findings[0].message

    def test_assignment_counts_as_mutation(self):
        findings = check(LivenessGuard, """
            class Coordinator(RemoteNode):
                def on_tick(self, now):
                    self.last_seen = now
        """)
        assert [f.code for f in findings] == ["GEM005"]

    def test_guarded_callback_is_clean(self):
        findings = check(LivenessGuard, """
            class Coordinator(RemoteNode):
                def notify_failure(self, address):
                    if not self.up:
                        return
                    self.sim.process(self._handle_failure(address))
        """)
        assert findings == []

    def test_read_only_callback_is_clean(self):
        findings = check(LivenessGuard, """
            class Coordinator(RemoteNode):
                def on_probe(self, address):
                    return self.members.get(address)
        """)
        assert findings == []

    def test_non_node_class_is_out_of_scope(self):
        findings = check(LivenessGuard, """
            class EventLog:
                def on_event(self, record):
                    self.records.append(record)
        """)
        assert findings == []

    def test_non_callback_method_is_out_of_scope(self):
        findings = check(LivenessGuard, """
            class Coordinator(RemoteNode):
                def promote(self):
                    self.up = True
        """)
        assert findings == []


class TestGem006MissingProtocolEvent:
    def test_surface_method_without_emit_flagged(self):
        findings = check(MissingProtocolEvent, """
            class Coordinator:
                def _commit(self, config):
                    self.current = config
        """)
        assert [f.code for f in findings] == ["GEM006"]
        assert "_commit" in findings[0].message

    def test_surface_method_with_emit_is_clean(self):
        findings = check(MissingProtocolEvent, """
            class Coordinator:
                def _commit(self, config):
                    self.current = config
                    self._emit("config_committed",
                               config_id=config.config_id)
        """)
        assert findings == []

    def test_event_log_emit_also_counts(self):
        findings = check(MissingProtocolEvent, """
            class RecoveryWorker:
                def on_config(self, config):
                    self.config = config
                    self.event_log.emit("config_observed")
        """)
        assert findings == []

    def test_off_surface_method_is_out_of_scope(self):
        findings = check(MissingProtocolEvent, """
            class Coordinator:
                def describe(self):
                    return self.current
        """)
        assert findings == []

    def test_off_surface_class_is_out_of_scope(self):
        findings = check(MissingProtocolEvent, """
            class Helper:
                def _commit(self, config):
                    self.current = config
        """)
        assert findings == []

    def test_coordinator_surface_is_every_method_that_emits(self):
        # A renamed transition body silently leaves the surface; pin the
        # table to the methods of the real Coordinator that emit.
        source = (SRC / "coordinator" / "coordinator.py").read_text()
        cls = next(node for node in ast.parse(source).body
                   if isinstance(node, ast.ClassDef)
                   and node.name == "Coordinator")
        emitting = {
            method.name for method in cls.body
            if isinstance(method, ast.FunctionDef)
            and method.name != "_emit"
            and any(isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "_emit"
                    for node in ast.walk(method))}
        assert MissingProtocolEvent._SURFACE["Coordinator"] == emitting


def check_at(rule, path, source):
    return analyze_source(textwrap.dedent(source), path=path,
                          rules=[rule()])


class TestGem001PackageAllowance:
    def test_live_package_may_use_wall_clock(self):
        findings = check_at(
            WallClockAndGlobalRandomness, "src/repro/live/node.py", """
            import time

            def stamp():
                return time.time()
        """)
        assert findings == []

    def test_allowance_is_path_scoped_not_global(self):
        findings = check_at(
            WallClockAndGlobalRandomness, "src/repro/cache/instance.py", """
            import time
        """)
        assert [f.code for f in findings] == ["GEM001"]

    def test_every_allowance_carries_a_justification(self):
        from repro.analysis.rules import WALL_CLOCK_ALLOWED
        for package, reason in WALL_CLOCK_ALLOWED.items():
            assert reason.strip(), f"{package} allowance lacks a reason"


class TestGem010ProtocolLayering:
    def test_asyncio_import_in_protocol_code_flagged(self):
        findings = check_at(
            ProtocolLayering, "src/repro/client/client.py", """
            import asyncio
        """)
        assert [f.code for f in findings] == ["GEM010"]
        assert "asyncio" in findings[0].message

    def test_asyncio_from_import_flagged(self):
        findings = check_at(
            ProtocolLayering, "src/repro/coordinator/membership.py", """
            from asyncio import get_running_loop
        """)
        assert [f.code for f in findings] == ["GEM010"]

    def test_live_runtime_import_flagged(self):
        findings = check_at(
            ProtocolLayering, "src/repro/recovery/worker.py", """
            from repro.live.kernel import LiveKernel
        """)
        assert [f.code for f in findings] == ["GEM010"]
        assert "repro.live" in findings[0].message

    def test_plain_live_import_flagged(self):
        findings = check_at(
            ProtocolLayering, "src/repro/cache/instance.py", """
            import repro.live.wire
        """)
        assert [f.code for f in findings] == ["GEM010"]

    def test_runtime_interfaces_are_the_sanctioned_dependency(self):
        findings = check_at(
            ProtocolLayering, "src/repro/client/client.py", """
            from repro.runtime import Kernel, Transport
            from repro.sim.core import SimGenerator
        """)
        assert findings == []

    def test_live_package_itself_is_out_of_scope(self):
        findings = check_at(
            ProtocolLayering, "src/repro/live/harness.py", """
            import asyncio
            from repro.live.kernel import LiveKernel
        """)
        assert findings == []

    def test_non_protocol_modules_are_out_of_scope(self):
        findings = check_at(
            ProtocolLayering, "src/repro/harness/cluster.py", """
            import asyncio
        """)
        assert findings == []
