"""Fixture-level behaviour of the interleaving rules (GEM007-GEM009)."""

from repro.analysis.core import analyze_source
from repro.analysis.interleave import (CheckThenActOnMarkers,
                                       LockOrderInversion,
                                       StaleCaptureAcrossYield)


def gem007(source):
    return analyze_source(source, path="t.py",
                          rules=[StaleCaptureAcrossYield()])


def gem008(source):
    return analyze_source(source, path="t.py",
                          rules=[LockOrderInversion()])


def gem009(source):
    return analyze_source(source, path="t.py",
                          rules=[CheckThenActOnMarkers()])


class TestStaleCaptureAcrossYield:
    def test_capture_before_yielding_loop_fires(self):
        findings = gem007('''
class C:
    def read(self, key):
        fragment = self.cache.route(key)
        for attempt in range(3):
            value = yield self.network.call(fragment.primary, key)
            if value is not None:
                return value
''')
        assert [f.code for f in findings] == ["GEM007"]
        assert "'fragment'" in findings[0].message

    def test_capture_inside_loop_is_clean(self):
        assert gem007('''
class C:
    def read(self, key):
        for attempt in range(3):
            fragment = self.cache.route(key)
            value = yield self.network.call(fragment.primary, key)
            if value is not None:
                return value
''') == []

    def test_reassignment_inside_loop_is_clean(self):
        assert gem007('''
class C:
    def read(self, key):
        cfg = self.cache.config_id
        for attempt in range(3):
            yield self.network.call("a", cfg)
            cfg = self.cache.config_id
''') == []

    def test_non_yielding_loop_is_clean(self):
        # The loop never suspends, so the capture cannot go stale
        # mid-loop; the kernel runs it atomically.
        assert gem007('''
class C:
    def scan(self, keys):
        cfg = self.cache.config_id
        total = 0
        for key in keys:
            total += self.local_estimate(key, cfg)
        yield self.network.call("a", total)
''') == []

    def test_yield_from_into_non_yielding_helper_is_clean(self):
        # bookkeep delegates to an iterable with no suspension points:
        # the loop never parks, so the capture cannot go stale.
        assert gem007('''
class C:
    def read(self, key):
        cfg = self.cache.config_id
        for attempt in range(3):
            yield from self.bookkeep(cfg)

    def bookkeep(self, cfg):
        self.stats[cfg] = self.stats.get(cfg, 0) + 1
        return ()
''') == []

    def test_yield_from_into_yielding_helper_fires(self):
        findings = gem007('''
class C:
    def read(self, key):
        cfg = self.cache.config_id
        for attempt in range(3):
            yield from self.fetch(cfg)

    def fetch(self, cfg):
        yield self.network.call("a", cfg)
''')
        assert [f.code for f in findings] == ["GEM007"]

    def test_own_config_id_attribute_is_exempt(self):
        # self._config_id is the owner's field, guarded by its own
        # transition lock — only captures of *someone else's* state count.
        assert gem007('''
class Coordinator:
    def _tick(self):
        snapshot = self._config_id
        for address in self._instances:
            yield self.network.call(address, snapshot)
''') == []

    def test_dirty_discard_in_finally_fires(self):
        findings = gem007('''
class C:
    def _read_recovery(self, key, dirty):
        try:
            value = yield self.network.call("i", key)
        finally:
            dirty.discard(key)
''')
        assert [f.code for f in findings] == ["GEM007"]
        assert "dirty.discard" in findings[0].message

    def test_dirty_pop_in_except_fires(self):
        findings = gem007('''
class C:
    def _claim(self, key, dirty_view):
        try:
            yield self.network.call("i", key)
        except NetworkError:
            dirty_view.pop(key)
''')
        assert [f.code for f in findings] == ["GEM007"]

    def test_discard_after_successful_yield_is_clean(self):
        assert gem007('''
class C:
    def _claim(self, key, dirty):
        token = yield self.network.call("i", key)
        dirty.discard(key)
''') == []

    def test_non_dirty_cleanup_is_clean(self):
        assert gem007('''
class C:
    def _claim(self, key):
        try:
            yield self.network.call("i", key)
        finally:
            self.pending.discard(key)
''') == []


class TestLockOrderInversion:
    def test_opposite_order_across_methods_fires(self):
        findings = gem008('''
class W:
    def a(self):
        yield self._lock.acquire()
        yield self._gate.acquire()
        self._gate.release()
        self._lock.release()

    def b(self):
        yield self._gate.acquire()
        yield self._lock.acquire()
        self._lock.release()
        self._gate.release()
''')
        assert [f.code for f in findings] == ["GEM008"]
        assert "W._gate -> W._lock -> W._gate;" in findings[0].message

    def test_consistent_order_is_clean(self):
        assert gem008('''
class W:
    def a(self):
        yield self._lock.acquire()
        yield self._gate.acquire()
        self._gate.release()
        self._lock.release()

    def b(self):
        yield self._lock.acquire()
        yield self._gate.acquire()
        self._gate.release()
        self._lock.release()
''') == []

    def test_release_before_next_acquire_is_clean(self):
        assert gem008('''
class W:
    def a(self):
        yield self._lock.acquire()
        self._lock.release()
        yield self._gate.acquire()
        self._gate.release()

    def b(self):
        yield self._gate.acquire()
        self._gate.release()
        yield self._lock.acquire()
        self._lock.release()
''') == []

    def test_redlease_under_mutex_via_sibling_fires(self):
        findings = gem008('''
class W:
    def red_then_lock(self, cfg):
        lease = yield self.network.call(
            "i", self._cfg(cfg, op="red_acquire"))
        yield self._lock.acquire()
        self._lock.release()
        yield self.network.call("i", self._cfg(cfg, op="red_release"))

    def lock_then_red(self, cfg):
        yield self._lock.acquire()
        yield from self.take_red(cfg)
        self._lock.release()

    def take_red(self, cfg):
        lease = yield self.network.call(
            "i", self._cfg(cfg, op="red_acquire"))
''')
        assert [f.code for f in findings] == ["GEM008"]
        assert "redlease" in findings[0].message

    def test_direct_reacquire_while_held_fires(self):
        findings = gem008('''
class W:
    def twice(self):
        yield self._lock.acquire()
        yield self._lock.acquire()
        self._lock.release()
        self._lock.release()
''')
        assert [(f.code, f.line) for f in findings] == [("GEM008", 5)]
        assert "'W._lock' re-acquired while held" in findings[0].message
        assert "->" not in findings[0].message

    def test_reacquire_through_yield_from_fires(self):
        findings = gem008('''
class W:
    def outer(self, cfg):
        lease = yield self.network.call(
            "i", self._cfg(cfg, op="red_acquire"))
        yield from self.inner(cfg)
        yield self.network.call("i", self._cfg(cfg, op="red_release"))

    def inner(self, cfg):
        lease = yield self.network.call(
            "i", self._cfg(cfg, op="red_acquire"))
        yield self.network.call("i", self._cfg(cfg, op="red_release"))
''')
        assert [(f.code, f.line) for f in findings] == [("GEM008", 6)]
        assert "'redlease' re-acquired while held" in findings[0].message

    def test_same_attribute_on_different_classes_is_distinct(self):
        assert gem008('''
class A:
    def a(self):
        yield self._lock.acquire()
        yield self._gate.acquire()
        self._gate.release()
        self._lock.release()

class B:
    def b(self):
        yield self._gate.acquire()
        yield self._lock.acquire()
        self._lock.release()
        self._gate.release()
''') == []


class TestCheckThenActOnMarkers:
    def test_unchecked_dirty_page_fires(self):
        findings = gem009('''
class W:
    def _repair(self, cfg, fid):
        page = yield self.network.call(
            "s", self._cfg(cfg, op="get_dirty_page", fragment_id=fid))
        if page is CACHE_MISS:
            return
        return page.keys
''')
        assert [f.code for f in findings] == ["GEM009"]
        assert "'page'" in findings[0].message

    def test_checked_dirty_page_is_clean(self):
        assert gem009('''
class W:
    def _repair(self, cfg, fid):
        page = yield self.network.call(
            "s", self._cfg(cfg, op="get_dirty_page", fragment_id=fid))
        if page is CACHE_MISS or not page.complete:
            return
        return page.keys
''') == []

    def test_positional_op_form_fires(self):
        findings = gem009('''
class C:
    def _ensure(self, cfg):
        dirty_value = yield self.network.call(
            "s", self._op("get_dirty", cfg))
        return dirty_value.keys
''')
        assert [f.code for f in findings] == ["GEM009"]

    def test_other_ops_are_ignored(self):
        assert gem009('''
class C:
    def _get(self, cfg, key):
        value = yield self.network.call(
            "s", self._op("iqget", cfg, key=key))
        return value
''') == []

    def test_fresh_marker_outside_create_fires(self):
        findings = gem009('''
class X:
    def op_recreate_dirty(self, fid):
        self.lists[fid] = DirtyList(fid, marker=True)
''')
        assert [f.code for f in findings] == ["GEM009"]
        assert "op_create_dirty" in findings[0].message

    def test_marker_inside_op_create_dirty_is_clean(self):
        assert gem009('''
class X:
    def op_create_dirty(self, fid, marker):
        self.lists[fid] = DirtyList(fid, marker=True)
''') == []

    def test_dynamic_marker_is_clean(self):
        # marker=<expr> forwards a protocol decision instead of minting
        # a constant-True one.
        assert gem009('''
class X:
    def op_recreate_dirty(self, fid, preserved):
        self.lists[fid] = DirtyList(fid, marker=not preserved)
''') == []

    def test_suppression_with_reason_is_honoured(self):
        assert gem009('''
class X:
    def op_recreate(self, fid):
        self.lists[fid] = DirtyList(
            fid,
            marker=True)  # geminilint: disable=GEM009 -- test fixture
''') == []
