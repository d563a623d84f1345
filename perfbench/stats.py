"""Order statistics that say how many samples back them.

A tail percentile is only reported when at least ``MIN_BEYOND`` samples
lie beyond it; with fewer, one slow operation moves the figure and two
runs of the same code disagree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

MIN_BEYOND = 10


@dataclass(frozen=True)
class Percentile:
    """A nearest-rank percentile and the samples behind it."""

    q: float
    value: float
    samples: int
    #: Samples ranked above the percentile's own sample.
    beyond: int

    @property
    def usable(self) -> bool:
        return self.beyond >= MIN_BEYOND


def percentile(samples: Sequence[float], q: float) -> Percentile:
    """The nearest-rank ``q``-th percentile of ``samples``."""
    if not samples:
        raise ValueError("percentile of no samples")
    if not 0 < q <= 100:
        raise ValueError(f"percentile rank {q} outside (0, 100]")
    ordered = sorted(samples)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return Percentile(q, ordered[rank - 1], len(ordered),
                      len(ordered) - rank)


def per_k(count: float, ops: int) -> float:
    """``count`` per thousand operations."""
    return 1000.0 * count / ops if ops else 0.0


def per_op(count: float, ops: int) -> float:
    return count / ops if ops else 0.0
