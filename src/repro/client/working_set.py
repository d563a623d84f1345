"""Client-side working-set-transfer accounting.

During recovery mode with +W policies, every primary miss triggers a
secondary lookup (Section 3.2.2). The tracker counts those lookups per
recovering instance; the coordinator's termination monitor reads them to
evaluate the m threshold (secondary miss ratio), standing in for the
client->coordinator feedback channel of a real deployment.

Counts are namespaced by *episode* — the cfg_id the coordinator stamped
when the fragment entered transient mode. A primary can fail, recover,
and fail again; the m-threshold decision for the second outage must
start from zero, not consume secondary-lookup counts left over from the
first. Keying by (primary, episode) makes stale episodes invisible to
the monitor without any reset protocol.
"""

from __future__ import annotations

from typing import Dict, Tuple

__all__ = ["WstTracker"]

_ZERO = {"hits": 0, "misses": 0}


class WstTracker:
    """hits/misses of secondary lookups, keyed by (primary, episode)."""

    def __init__(self) -> None:
        self._counts: Dict[Tuple[str, int], Dict[str, int]] = {}

    def observe(self, primary: str, episode: int, hit: bool) -> None:
        key = (primary, episode)
        counts = self._counts.get(key)
        if counts is None:
            counts = self._counts[key] = {"hits": 0, "misses": 0}
        counts["hits" if hit else "misses"] += 1

    def counts(self, primary: str, episode: int) -> Dict[str, int]:
        return dict(self._counts.get((primary, episode), _ZERO))

    def totals(self, primary: str) -> Dict[str, int]:
        """Counts summed over every episode of one primary — reporting
        only; the termination monitor must use :meth:`counts`."""
        total = {"hits": 0, "misses": 0}
        for (who, _episode), counts in self._counts.items():
            if who == primary:
                total["hits"] += counts["hits"]
                total["misses"] += counts["misses"]
        return total
