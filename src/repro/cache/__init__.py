"""Persistent cache instance substrate (the paper's IQ-Twemcached).

* :mod:`repro.cache.entry` — cache entries carrying the configuration id
  that wrote them (the Rejig validity tag).
* :mod:`repro.cache.leases` — the IQ lease framework (Table 2) plus
  Redlease for dirty-list mutual exclusion.
* :mod:`repro.cache.dirtylist` — the dirty list stored as a cache entry,
  with the eviction-detection marker (Section 3.1).
* :mod:`repro.cache.instance` — the cache instance itself: a network node
  evicting in LRU order under a byte budget and speaking a memcached-like
  request protocol extended with IQ operations and configuration-id
  checks.
* :mod:`repro.cache.replication` — the Section 7 future-work extension:
  multiple replicas per fragment with mirrored evictions.
"""

from repro.cache.entry import CacheEntry
from repro.cache.leases import LeaseTable, Redlease, LeaseKind
from repro.cache.dirtylist import DirtyList, dirty_list_key
from repro.cache.instance import CacheInstance, CacheOp

__all__ = [
    "CacheEntry",
    "CacheInstance",
    "CacheOp",
    "DirtyList",
    "LeaseKind",
    "LeaseTable",
    "Redlease",
    "dirty_list_key",
]
