"""Key-rank distributions.

The paper's workloads are "highly skewed Zipfian"; YCSB's default zipfian
constant is 0.99 but the paper quotes α = 100 (so skewed that a handful
of records dominate). We therefore implement a *general* zipfian —
P(rank k) ∝ 1/(k+1)^θ for any θ > 0 — by materializing the CDF with
numpy and sampling by binary search. That is exact for any exponent (the
Gray et al. incremental algorithm used by YCSB only covers θ < 1) and
costs O(log n) per sample.

Rank 0 is the most popular item. Callers map ranks to keys through
:class:`repro.workload.keyspace.KeySpace`.
"""

from __future__ import annotations

import random
from array import array
from bisect import bisect_left

import numpy as np

from repro.errors import WorkloadError

__all__ = ["ZipfianGenerator", "UniformGenerator", "HotspotGenerator"]


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
        weights = 1.0 / np.power(np.arange(1, n + 1, dtype=np.float64), theta)
        cdf = np.cumsum(weights)
        cdf /= cdf[-1]
        #: As a flat array of doubles (8 bytes a value, as in numpy):
        #: ``bisect_left`` over it beats a numpy call on a scalar, and
        #: finds the index ``searchsorted(side="left")`` does.
        self._cdf = array("d", cdf)

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
