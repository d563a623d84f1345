"""Latency percentile tracking.

Figure 7.c plots the 90th-percentile read latency per second. Keeping
every sample would be unbounded, so each bucket holds a fixed-size
uniform reservoir (Vitter's algorithm R): percentiles stay accurate to a
couple of points with 512 samples, plenty for p90/p99 shape comparisons.
"""

from __future__ import annotations

import math
import random
from typing import Dict, List, Optional, Sequence, Tuple

from repro.metrics.bucketing import bucket_index

__all__ = ["percentile", "LatencyReservoir"]


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (q in [0, 100]) of a non-empty sequence."""
    if not samples:
        raise ValueError("percentile of empty sequence")
    if not 0 <= q <= 100:
        raise ValueError("q must be in [0, 100]")
    ordered = sorted(samples)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


class _Reservoir:
    __slots__ = ("samples", "seen")

    def __init__(self):
        self.samples: List[float] = []
        self.seen = 0


class LatencyReservoir:
    """Per-time-bucket latency reservoirs."""

    def __init__(self, bucket_width: float = 1.0, capacity: int = 512, *,
                 rng: random.Random):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.bucket_width = bucket_width
        self.capacity = capacity
        self._rng = rng
        self._buckets: Dict[int, _Reservoir] = {}
        self._all = _Reservoir()
        self._exact_sum = 0.0
        self._exact_count = 0

    def add(self, when: float, latency: float, *,
            bucket: Optional[int] = None) -> None:
        """Sample ``latency`` observed at ``when``; ``bucket`` is ``when``'s
        bucket index when the caller already computed it."""
        if bucket is None:
            bucket = bucket_index(when, self.bucket_width)
        reservoir = self._buckets.get(bucket)
        if reservoir is None:
            reservoir = self._buckets[bucket] = _Reservoir()
        self._observe(reservoir, latency)
        self._observe(self._all, latency)
        self._exact_sum += latency
        self._exact_count += 1

    def _observe(self, reservoir: _Reservoir, latency: float) -> None:
        reservoir.seen += 1
        if len(reservoir.samples) < self.capacity:
            reservoir.samples.append(latency)
            return
        slot = self._rng.randrange(reservoir.seen)
        if slot < self.capacity:
            reservoir.samples[slot] = latency

    def percentile_at(self, when: float, q: float) -> Optional[float]:
        reservoir = self._buckets.get(bucket_index(when, self.bucket_width))
        if reservoir is None or not reservoir.samples:
            return None
        return percentile(reservoir.samples, q)

    def percentile_series(self, q: float) -> List[Tuple[float, float]]:
        """(bucket start time, q-th percentile) — Figure 7.c's series."""
        out = []
        for bucket, reservoir in sorted(self._buckets.items()):
            if reservoir.samples:
                out.append((bucket * self.bucket_width,
                            percentile(reservoir.samples, q)))
        return out

    def overall_percentile(self, q: float) -> Optional[float]:
        if not self._all.samples:
            return None
        return percentile(self._all.samples, q)

    def overall_mean(self) -> Optional[float]:
        """Exact mean over every observation (not reservoir-sampled)."""
        if self._exact_count == 0:
            return None
        return self._exact_sum / self._exact_count

    def count(self) -> int:
        return self._all.seen
