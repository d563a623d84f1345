"""Cache entries with Rejig validity tags.

Every entry records ``config_id`` — the id of the configuration under
which its value was written (Section 3.2.4). An entry is *valid* for a
fragment whose metadata says "last reassigned in configuration ``f``" iff
``config_id >= f``; otherwise it predates a reassignment the protocol
could not repair and must be treated as missing. This single integer
comparison is how Gemini discards millions of entries in O(1): the
coordinator bumps the fragment's id and the entries die lazily.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

__all__ = ["CacheEntry", "ENTRY_OVERHEAD_BYTES"]

#: Fixed per-entry bookkeeping cost charged against the memory budget
#: (pointers, LRU links, the config-id tag). Twemcached's item header is
#: in the same ballpark.
ENTRY_OVERHEAD_BYTES = 56


@dataclass
class CacheEntry:
    """One key/value pair stored by a cache instance."""

    key: str
    value: Any
    config_id: int
    key_size: int = 0
    value_size: int = 0

    @property
    def size(self) -> int:
        """Total memory charged for this entry."""
        return ENTRY_OVERHEAD_BYTES + self.key_size + self.value_size

    def is_valid_for(self, fragment_config_id: int) -> bool:
        """Rejig validity: written under this fragment assignment or later."""
        return self.config_id >= fragment_config_id
