"""The synthetic Facebook-like workload of Section 5.1.

Atikoglu et al. (SIGMETRICS '12) publish statistical models of
Facebook's memcached traffic; the paper uses their means: 36-byte keys,
329-byte values, 19 µs inter-arrival times, 95 % reads, a highly skewed
popularity distribution, and a cache sized at 50 % of the database.

We model sizes with log-normal distributions matching those means
(Atikoglu et al. fit generalized-Pareto-like shapes; the log-normal keeps
the mean and the heavy right tail, which is what the memory accounting
cares about), inter-arrivals as exponential, and popularity as zipfian.
The generator is *open loop*: requests arrive on their own clock whether
or not earlier ones finished — exactly what makes the miss storm after a
mass failure pile onto the data store.
"""

from __future__ import annotations

import math
import random
from typing import Iterator, Optional

from repro.errors import WorkloadError
from repro.workload.distributions import ZipfianGenerator
from repro.workload.keyspace import KeySpace
from repro.workload.trace import TraceRecord

__all__ = ["FacebookWorkload"]

#: Published means from the Facebook workload analysis [5].
MEAN_KEY_SIZE = 36
MEAN_VALUE_SIZE = 329
MEAN_INTER_ARRIVAL = 19e-6
READ_FRACTION = 0.95


def _lognormal_params(mean: float, sigma: float) -> float:
    """mu such that a LogNormal(mu, sigma) has the requested mean."""
    return math.log(mean) - sigma * sigma / 2.0


class FacebookWorkload:
    """Open-loop Facebook-like request stream."""

    def __init__(self, record_count: int = 20_000, *, rng: random.Random,
                 read_fraction: float = READ_FRACTION,
                 mean_inter_arrival: float = 1e-4,
                 zipf_theta: float = 0.99,
                 value_sigma: float = 0.8,
                 keyspace: Optional[KeySpace] = None):
        if mean_inter_arrival <= 0:
            raise WorkloadError("mean_inter_arrival must be positive")
        self.rng = rng
        self.read_fraction = read_fraction
        self.mean_inter_arrival = mean_inter_arrival
        self.value_sigma = value_sigma
        self._value_mu = _lognormal_params(MEAN_VALUE_SIZE, value_sigma)
        self.keyspace = keyspace if keyspace is not None else KeySpace(
            record_count)
        self._zipf = ZipfianGenerator(self.keyspace.active_size,
                                      theta=zipf_theta, rng=self.rng)
        #: Record sizes are a property of the record, not of the request:
        #: memoize per record id so repeated reads agree.
        self._sizes = {}

    def value_size(self, key: str) -> int:
        size = self._sizes.get(key)
        if size is None:
            size = max(1, int(self.rng.lognormvariate(
                self._value_mu, self.value_sigma)))
            self._sizes[key] = size
        return size

    def populate(self, datastore) -> None:
        datastore.populate(self.keyspace.all_keys(), size_of=self.value_size)

    def generate(self, duration: float,
                 start_time: float = 0.0) -> Iterator[TraceRecord]:
        """Yield trace records covering ``duration`` seconds of arrivals."""
        now = start_time
        while True:
            now += self.rng.expovariate(1.0 / self.mean_inter_arrival)
            if now >= start_time + duration:
                return
            key = self.keyspace.key(self._zipf.next())
            if self.rng.random() < self.read_fraction:
                yield TraceRecord(time=now, op="read", key=key)
            else:
                yield TraceRecord(time=now, op="write", key=key,
                                  size=self.value_size(key))

    def mean_request_rate(self) -> float:
        return 1.0 / self.mean_inter_arrival
