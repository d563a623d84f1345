"""Unit tests for dirty lists and the eviction-detection marker."""

from repro.cache.dirtylist import DIRTY_LIST_PREFIX, DirtyList, dirty_list_key


class TestDirtyListKey:
    def test_key_format(self):
        assert dirty_list_key(7) == f"{DIRTY_LIST_PREFIX}7"

    def test_distinct_fragments_distinct_keys(self):
        assert dirty_list_key(1) != dirty_list_key(2)


class TestDirtyList:
    def test_marker_set_by_coordinator_initialization(self):
        dirty = DirtyList(0, marker=True)
        assert dirty.complete

    def test_recreated_list_is_partial(self):
        """A client append after eviction recreates the list without the
        marker — the protocol must detect it as partial (Section 3.1)."""
        dirty = DirtyList(0, marker=False)
        dirty.append("k1")
        assert not dirty.complete

    def test_append_and_membership(self):
        dirty = DirtyList(0, marker=True)
        dirty.append("a")
        dirty.append("b")
        assert "a" in dirty and "b" in dirty and "c" not in dirty

    def test_append_deduplicates(self):
        dirty = DirtyList(0, marker=True)
        dirty.append("a")
        dirty.append("a")
        assert len(dirty) == 1

    def test_insertion_order_preserved(self):
        dirty = DirtyList(0, marker=True)
        for key in ("z", "a", "m"):
            dirty.append(key)
        assert dirty.keys() == ["z", "a", "m"]

    def test_size_grows_once_per_key(self):
        dirty = DirtyList(0, marker=True)
        empty_size = dirty.size
        dirty.append("some-key")
        assert dirty.size > empty_size
        size = dirty.size
        dirty.append("some-key")
        assert dirty.size == size

    def test_size_accounts_for_key_length(self):
        short = DirtyList(0, marker=True)
        short.append("k")
        long = DirtyList(0, marker=True)
        long.append("k" * 100)
        assert long.size > short.size

    def test_iteration(self):
        dirty = DirtyList(0, marker=True)
        for key in ("a", "b"):
            dirty.append(key)
        assert list(dirty) == ["a", "b"]

    def test_repr_flags_partial(self):
        assert "PARTIAL" in repr(DirtyList(3, marker=False))
        assert "complete" in repr(DirtyList(3, marker=True))


class TestDirtyPage:
    def _filled(self, count, marker=True):
        dirty = DirtyList(0, marker=marker)
        for index in range(count):
            dirty.append(f"k{index:04d}")
        return dirty

    def test_page_respects_limit_and_flags_more(self):
        dirty = self._filled(5)
        page = dirty.page(after=0, limit=3)
        assert list(page.keys) == ["k0000", "k0001", "k0002"]
        assert page.more

    def test_last_page_clears_more(self):
        dirty = self._filled(5)
        first = dirty.page(after=0, limit=3)
        last = dirty.page(after=first.cursor, limit=3)
        assert list(last.keys) == ["k0003", "k0004"]
        assert not last.more

    def test_exact_fit_flags_no_more(self):
        dirty = self._filled(3)
        page = dirty.page(after=0, limit=3)
        assert len(page.keys) == 3 and not page.more

    def test_empty_list_yields_empty_page(self):
        dirty = DirtyList(0, marker=True)
        page = dirty.page(after=0, limit=4)
        assert page.keys == () and not page.more

    def test_keys_appended_after_a_page_come_in_later_pages(self):
        dirty = self._filled(2)
        first = dirty.page(after=0, limit=2)
        dirty.append("late")
        second = dirty.page(after=first.cursor, limit=2)
        assert list(second.keys) == ["late"] and not second.more

    def test_reappend_keeps_original_position(self):
        """A key rewritten while the scan is past it must not reappear
        with a fresh sequence number (it would be repaired twice, or
        worse, paged forever)."""
        dirty = self._filled(4)
        page = dirty.page(after=0, limit=2)
        dirty.append("k0000")  # second write to an already-dirty key
        rest = dirty.page(after=page.cursor, limit=10)
        assert list(rest.keys) == ["k0002", "k0003"]

    def test_page_carries_completeness(self):
        assert self._filled(2, marker=True).page(0, 8).complete
        assert not self._filled(2, marker=False).page(0, 8).complete
