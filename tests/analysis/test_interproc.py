"""Interprocedural summaries: the may-yield / lock fixpoint of the one
call graph (repro.analysis.flow), read per module."""

import ast

from repro.analysis.core import ModuleContext, op_of_call
from repro.analysis.flow import single_module_project


def summaries_of(source):
    tree = ast.parse(source)
    ctx = ModuleContext(path="t.py", source=source, tree=tree)
    return single_module_project(ctx)


def by_name(project, qualname):
    for func in project.functions:
        if func.qualname == qualname:
            return func
    raise AssertionError(f"no summary for {qualname}")


class TestMayYieldFixpoint:
    SOURCE = '''
class W:
    def leaf_yields(self):
        yield 1.0

    def leaf_plain(self):
        return 42

    def via_chain(self):
        yield from self.middle()

    def middle(self):
        yield from self.leaf_yields()

    def via_plain(self):
        yield from self.leaf_plain()

    def external(self):
        yield from some_module.helper()
'''

    def test_direct_yield(self):
        s = summaries_of(self.SOURCE)
        assert by_name(s, "W.leaf_yields").may_yield

    def test_plain_function_does_not_yield(self):
        s = summaries_of(self.SOURCE)
        assert not by_name(s, "W.leaf_plain").may_yield

    def test_propagates_through_yield_from_chain(self):
        s = summaries_of(self.SOURCE)
        assert by_name(s, "W.via_chain").may_yield
        assert by_name(s, "W.middle").may_yield

    def test_yield_from_into_non_yielding_helper(self):
        # Delegating into a generator with no suspension points runs it
        # synchronously: the delegator itself never parks.
        s = summaries_of(self.SOURCE)
        assert not by_name(s, "W.via_plain").may_yield

    def test_unresolvable_callee_is_conservative(self):
        s = summaries_of(self.SOURCE)
        assert by_name(s, "W.external").may_yield


class TestLockSummaries:
    SOURCE = '''
class W:
    def outer(self):
        yield self._lock.acquire()
        yield from self.inner()
        self._lock.release()

    def inner(self):
        yield self._gate.acquire()
        self._gate.release()

    def red(self, cfg):
        lease = yield self.network.call(
            "i", self._cfg(cfg, op="red_acquire"))
        yield self.network.call("i", self._cfg(cfg, op="red_release"))
'''

    def test_own_acquires_are_class_qualified(self):
        s = summaries_of(self.SOURCE)
        assert by_name(s, "W.inner").acquires == {"W._gate"}

    def test_acquires_flow_through_yield_from(self):
        s = summaries_of(self.SOURCE)
        assert by_name(s, "W.outer").acquires == {"W._lock", "W._gate"}

    def test_red_ops_count_as_the_shared_redlease(self):
        s = summaries_of(self.SOURCE)
        assert by_name(s, "W.red").acquires == {"redlease"}

    def test_lock_events_are_source_ordered(self):
        s = summaries_of(self.SOURCE)
        kinds = [kind for (_, __, kind, ___)
                 in by_name(s, "W.outer").lock_events]
        assert kinds == ["acquire", "call:inner", "release"]


class TestOpOfCall:
    def op_of(self, expr):
        call = ast.parse(expr, mode="eval").body
        assert isinstance(call, ast.Call)
        return op_of_call(call)

    def test_keyword_form(self):
        assert self.op_of('self._cfg(cfg, op="get_dirty")') == "get_dirty"
        assert self.op_of('CacheOp(op="red_acquire", fragment_id=1)') \
            == "red_acquire"

    def test_positional_session_form(self):
        assert self.op_of('self._op("get_dirty", cfg, key=k)') == "get_dirty"

    def test_positional_only_on_op_builders(self):
        # A stray first-positional string on some other call is not an op.
        assert self.op_of('self.network.call("cache-0", request)') is None

    def test_non_literal_is_none(self):
        assert self.op_of('self._op(op_name, cfg)') is None
