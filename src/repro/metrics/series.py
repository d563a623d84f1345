"""Bucketed time series.

All of the paper's figures are per-second series (hit ratio, throughput,
stale reads). :class:`TimeSeries` accumulates values into fixed-width
buckets keyed by simulated time, bounded in memory no matter how many
events flow through.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.metrics.bucketing import bucket_index, bucket_start

__all__ = ["TimeSeries", "WindowedCounter"]


class TimeSeries:
    """Per-bucket accumulator: counts and sums, O(1) per observation."""

    def __init__(self, bucket_width: float = 1.0):
        if bucket_width <= 0:
            raise ValueError("bucket_width must be positive")
        self.bucket_width = bucket_width
        self._count: Dict[int, int] = {}
        self._sum: Dict[int, float] = {}

    def add(self, when: float, value: float = 1.0, *,
            bucket: Optional[int] = None) -> None:
        """Observe ``value`` at ``when``; ``bucket`` is ``when``'s bucket
        index when the caller already computed it."""
        if bucket is None:
            bucket = bucket_index(when, self.bucket_width)
        count, total = self._count, self._sum
        count[bucket] = count.get(bucket, 0) + 1
        total[bucket] = total.get(bucket, 0.0) + value

    def count_at(self, when: float) -> int:
        return self._count.get(bucket_index(when, self.bucket_width), 0)

    def counts(self) -> List[Tuple[float, int]]:
        """(bucket start time, observation count) sorted by time."""
        return [(b * self.bucket_width, c)
                for b, c in sorted(self._count.items())]

    def rates(self) -> List[Tuple[float, float]]:
        """(bucket start time, observations per second)."""
        return [(t, c / self.bucket_width) for t, c in self.counts()]

    def sums(self) -> List[Tuple[float, float]]:
        """(bucket start time, summed observed value)."""
        return [(b * self.bucket_width, s)
                for b, s in sorted(self._sum.items())]

    def means(self) -> List[Tuple[float, float]]:
        """(bucket start time, mean observed value)."""
        out = []
        for bucket, count in sorted(self._count.items()):
            out.append((bucket * self.bucket_width,
                        self._sum[bucket] / count))
        return out

    def total_count(self) -> int:
        return sum(self._count.values())

    def total_sum(self) -> float:
        return sum(self._sum.values())

    def __len__(self) -> int:
        return len(self._count)


class WindowedCounter:
    """Ratio of two co-bucketed series (e.g. hits vs lookups).

    ``ratio_series`` yields per-bucket numerator/denominator, the shape of
    Figure 6/7 hit-ratio curves.
    """

    def __init__(self, bucket_width: float = 1.0):
        self.bucket_width = bucket_width
        self._num: Dict[int, int] = {}
        self._den: Dict[int, int] = {}
        #: Latest observation time per bucket: lets first_time_reaching
        #: tell whether a bucket saw any traffic after a mid-bucket
        #: measurement start.
        self._last: Dict[int, float] = {}

    def observe(self, when: float, success: bool, *,
                bucket: Optional[int] = None) -> None:
        """Count one trial at ``when`` (``bucket`` as in TimeSeries.add)."""
        if bucket is None:
            bucket = bucket_index(when, self.bucket_width)
        den, last = self._den, self._last
        den[bucket] = den.get(bucket, 0) + 1
        if when >= last.get(bucket, when):
            last[bucket] = when
        if success:
            num = self._num
            num[bucket] = num.get(bucket, 0) + 1

    def ratio_at(self, when: float) -> Optional[float]:
        bucket = bucket_index(when, self.bucket_width)
        den = self._den.get(bucket, 0)
        if den == 0:
            return None
        return self._num.get(bucket, 0) / den

    def ratio_series(self) -> List[Tuple[float, float]]:
        out = []
        for bucket, den in sorted(self._den.items()):
            out.append((bucket * self.bucket_width,
                        self._num.get(bucket, 0) / den))
        return out

    def overall_ratio(self) -> float:
        den = sum(self._den.values())
        if den == 0:
            return 0.0
        return sum(self._num.values()) / den

    def first_time_reaching(self, threshold: float,
                            after: float = 0.0) -> Optional[float]:
        """Earliest time at/after ``after`` whose bucket reaches the
        threshold — the 'time to restore hit ratio' measurement of
        Figures 8–9.

        Every bucket from the one *containing* ``after`` (a mid-bucket
        ``after`` is honored; the returned time is clamped up to
        ``after``) through the last observed bucket is examined in
        order. A bucket only counts as evidence if it observed traffic
        at/after ``after``: zero-traffic gap buckets are *not restored*
        (no lookups means no evidence the ratio recovered, so a gap can
        never be reported as the restoration point), and the bucket
        containing ``after`` qualifies only if some of its traffic
        actually arrived at/after ``after`` — not on the strength of
        pre-``after`` observations alone.
        """
        if not self._den:
            return None
        first = bucket_index(after, self.bucket_width)
        last = max(self._den)
        for bucket in range(first, last + 1):
            den = self._den.get(bucket, 0)
            if den == 0:
                # Gap bucket: no traffic, no evidence of restoration.
                continue
            if self._last.get(bucket, after) < after:
                # Only pre-`after` traffic in the containing bucket.
                continue
            if self._num.get(bucket, 0) / den >= threshold:
                return max(after, bucket_start(bucket, self.bucket_width))
        return None
