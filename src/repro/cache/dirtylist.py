"""Dirty lists: the write log a secondary replica keeps for a failed primary.

While a fragment is in transient mode, every write appends its key to the
fragment's dirty list (Section 3.1). The list is stored as an ordinary —
hence evictable — cache entry in the instance hosting the secondary
replica. Eviction is detected with a *marker*: the coordinator creates
the list with the marker set when the fragment enters transient mode; if
the instance later evicts it and a client's append recreates it, the
recreated list lacks the marker and is recognized as partial, forcing the
coordinator to discard the primary replica instead of trusting an
incomplete log.

Keys are kept in insertion order and deduplicated — deleting or
overwriting a dirty key once repairs it for all the writes it absorbed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Tuple

from repro.sim.sanitizer import active as _sanitizer_active

__all__ = ["DirtyList", "DirtyPage", "dirty_list_key", "DIRTY_LIST_PREFIX"]

DIRTY_LIST_PREFIX = "__gemini:dirty:"

#: Fixed bookkeeping cost of a dirty-list value.
_BASE_SIZE = 32
#: Per-key cost beyond the key bytes themselves.
_PER_KEY_OVERHEAD = 8


def dirty_list_key(fragment_id: int) -> str:
    """Cache key under which fragment ``fragment_id``'s dirty list lives."""
    return f"{DIRTY_LIST_PREFIX}{fragment_id}"


@dataclass(frozen=True)
class DirtyPage:
    """One chunk of a dirty list, fetched via ``op_get_dirty_page``.

    ``cursor`` is the sequence number of the last key in the page; passing
    it back as ``after`` resumes the scan there, and keys appended in the
    meantime (later sequence numbers) are fetched by the later pages.
    """

    keys: Tuple[str, ...]
    cursor: int
    more: bool
    complete: bool


class DirtyList:
    """An ordered, deduplicated set of dirty keys plus the eviction marker.

    Each key carries a monotonically increasing sequence number assigned
    at first insertion; :meth:`page` scans in sequence order, so a chunked
    fetch resumes from a cursor, and a key re-appended behind the cursor
    is not fetched twice.
    """

    __slots__ = ("fragment_id", "marker", "_keys", "_size", "_next_seq")

    def __init__(self, fragment_id: int, marker: bool) -> None:
        self.fragment_id = fragment_id
        self.marker = marker
        self._keys: Dict[str, int] = {}
        self._size = _BASE_SIZE
        self._next_seq = 0

    @property
    def complete(self) -> bool:
        """A list without the marker was recreated after an eviction."""
        return self.marker

    @property
    def size(self) -> int:
        """Bytes charged against the instance's memory budget."""
        return self._size

    def append(self, key: str) -> None:
        sanitizer = _sanitizer_active()
        if sanitizer is not None:
            sanitizer.record_write("dirty", f"fragment:{self.fragment_id}")
        if key not in self._keys:
            self._next_seq += 1
            self._keys[key] = self._next_seq
            self._size += len(key) + _PER_KEY_OVERHEAD

    def keys(self) -> List[str]:
        """Snapshot of the dirty keys in insertion order."""
        sanitizer = _sanitizer_active()
        if sanitizer is not None:
            sanitizer.record_read("dirty", f"fragment:{self.fragment_id}")
        return list(self._keys)

    def page(self, after: int, limit: int) -> DirtyPage:
        """Fetch up to ``limit`` keys with sequence numbers > ``after``.

        Insertion order equals sequence order (re-appends keep the
        original number), so a plain in-order scan suffices.
        """
        sanitizer = _sanitizer_active()
        if sanitizer is not None:
            sanitizer.record_read("dirty", f"fragment:{self.fragment_id}")
        keys: List[str] = []
        cursor = after
        more = False
        for key, seq in self._keys.items():
            if seq <= after:
                continue
            if len(keys) == limit:
                more = True
                break
            keys.append(key)
            cursor = seq
        return DirtyPage(keys=tuple(keys), cursor=cursor, more=more,
                         complete=self.complete)

    def __contains__(self, key: str) -> bool:
        return key in self._keys

    def __len__(self) -> int:
        return len(self._keys)

    def __iter__(self) -> Iterator[str]:
        return iter(self._keys)

    def __repr__(self) -> str:
        state = "complete" if self.marker else "PARTIAL"
        return f"DirtyList(fragment={self.fragment_id}, {state}, n={len(self)})"
