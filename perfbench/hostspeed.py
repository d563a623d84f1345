"""The host's speed, so that host-time figures from different minutes
compare.

The benchmark gets two vCPUs of a shared machine, and their speed
drifts with what other tenants run: a fixed pure-Python loop pinned to
one vCPU took 1.13-1.76 ms per pass, averaged over a run, across eight
runs of the live workload in one quarter hour, and the live workload's
throughput moved with it. So the benchmark times that loop on the CPU
the measured work runs on, again and again while it runs, and scales
every host-time figure to a vCPU on which one pass takes
``REFERENCE_S``: a duration is multiplied by ``REFERENCE_S / t``, a
rate divided by it, where ``t`` is the median pass time measured.
"""

from __future__ import annotations

import statistics
import time
from typing import List

#: Pass time of the reference vCPU the figures are scaled to.
REFERENCE_S = 1e-3
#: Passes per sample; a sample is the fastest, so a pass that shared
#: the CPU with another runnable process does not count.
PASSES = 3


def reference_pass() -> float:
    """Seconds this thread takes for one pass of a fixed loop."""
    start = time.perf_counter()
    total = 0
    for i in range(20_000):
        total += i * i % 7
    return time.perf_counter() - start


class SpeedProbe:
    """Samples of the reference pass time, and the scale they give."""

    def __init__(self) -> None:
        self.samples: List[float] = []

    def sample(self) -> None:
        self.samples.append(min(reference_pass() for __ in range(PASSES)))

    @property
    def pass_s(self) -> float:
        """Median pass time over the samples."""
        if not self.samples:
            raise ValueError("the host's speed was never sampled")
        return statistics.median(self.samples)

    @property
    def slowdown(self) -> float:
        """How much slower than the reference vCPU the host ran: a
        host-time duration divided by this is the reference duration."""
        return self.pass_s / REFERENCE_S
