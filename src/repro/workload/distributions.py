"""Key-rank distributions.

The paper's workloads are "highly skewed Zipfian"; YCSB's default zipfian
constant is 0.99 but the paper quotes α = 100 (so skewed that a handful
of records dominate). We therefore implement a *general* zipfian —
P(rank k) ∝ 1/(k+1)^θ for any θ > 0 — by materializing the CDF (a
running sum of CPython's float ``**``, the platform libm's ``pow``) and
sampling by binary search. That is exact for any exponent (the Gray et
al. incremental algorithm used by YCSB only covers θ < 1) and costs
O(log n) per sample.

Rank 0 is the most popular item. Callers map ranks to keys through
:class:`repro.workload.keyspace.KeySpace`.
"""

from __future__ import annotations

import random
from array import array
from bisect import bisect_left
from itertools import accumulate, repeat
from operator import truediv
from typing import Iterator

from repro.errors import WorkloadError

__all__ = ["ZipfianGenerator", "UniformGenerator", "HotspotGenerator"]


def _inverse_powers(n: int, theta: float) -> Iterator[float]:
    """``1.0 / float(k) ** theta`` for k = 1..n.

    Where ``k ** theta`` overflows a float (θ = 100 from k = 1,210 on)
    the weight is 0.0, which is ``1 / inf``, as numpy's ``power`` gives.
    """
    ranks = iter(range(1, n + 1))
    try:
        yield from map(truediv, repeat(1.0),
                       map(pow, map(float, ranks), repeat(theta)))
    except OverflowError:
        # k ** theta grows with k: this rank and every later one overflow.
        yield 0.0
        for _rank in ranks:
            yield 0.0


class ZipfianGenerator:
    """Zipfian ranks over [0, n) with exponent ``theta``."""

    def __init__(self, n: int, theta: float = 0.99, *,
                 rng: random.Random):
        if n <= 0:
            raise WorkloadError("n must be positive")
        if theta <= 0:
            raise WorkloadError("theta must be positive")
        self.n = n
        self.theta = theta
        self.rng = rng
        cdf = list(accumulate(_inverse_powers(n, theta)))
        total = cdf[-1]
        #: A flat array of doubles (8 bytes a value), searched with
        #: ``bisect_left``: the index numpy's ``searchsorted(side="left")``
        #: finds over the same values.
        self._cdf = array("d", [value / total for value in cdf])

    def next(self) -> int:
        """Sample a rank; 0 is the hottest."""
        return bisect_left(self._cdf, self.rng.random())

    def probability(self, rank: int) -> float:
        """Exact probability of the given rank."""
        if not 0 <= rank < self.n:
            raise WorkloadError(f"rank {rank} out of range")
        low = self._cdf[rank - 1] if rank > 0 else 0.0
        return self._cdf[rank] - low


class UniformGenerator:
    """Uniform ranks over [0, n)."""

    def __init__(self, n: int, *, rng: random.Random):
        if n <= 0:
            raise WorkloadError("n must be positive")
        self.n = n
        self.rng = rng

    def next(self) -> int:
        return self.rng.randrange(self.n)


class HotspotGenerator:
    """A hot set of ``hot_fraction * n`` ranks receives ``hot_probability``
    of the accesses; the rest are uniform over the cold set."""

    def __init__(self, n: int, hot_fraction: float = 0.2,
                 hot_probability: float = 0.8, *, rng: random.Random):
        if n <= 0:
            raise WorkloadError("n must be positive")
        if not 0 < hot_fraction < 1:
            raise WorkloadError("hot_fraction must be in (0, 1)")
        if not 0 < hot_probability < 1:
            raise WorkloadError("hot_probability must be in (0, 1)")
        self.n = n
        self.hot_count = max(1, int(n * hot_fraction))
        self.hot_probability = hot_probability
        self.rng = rng

    def next(self) -> int:
        if self.rng.random() < self.hot_probability:
            return self.rng.randrange(self.hot_count)
        if self.hot_count >= self.n:
            return self.rng.randrange(self.n)
        return self.rng.randrange(self.hot_count, self.n)
