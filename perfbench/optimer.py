"""The benchmark's own timing of every client read and write.

Latencies are taken on the kernel clock: wall time on the live kernel,
simulated time on the sim kernel. Every sample is kept (no reservoir).
"""

from __future__ import annotations

from typing import Any, Callable, List


class OpTimer:
    """Wraps ``client.read``/``client.write`` of each attached client."""

    def __init__(self, clock: Callable[[], float]) -> None:
        self.clock = clock
        self.started = 0
        self.completed = 0
        self.failed = 0
        #: Latencies of operations completed while recording.
        self.reads: List[float] = []
        self.writes: List[float] = []
        self.recording = True

    @property
    def window_ops(self) -> int:
        return len(self.reads) + len(self.writes)

    def restart(self) -> None:
        """Drop recorded samples and record afresh."""
        self.reads.clear()
        self.writes.clear()
        self.recording = True

    def attach(self, client: Any) -> None:
        client.read = self._timed(client.read, self.reads)
        client.write = self._timed(client.write, self.writes)

    def _timed(self, inner: Callable[..., Any],
               samples: List[float]) -> Callable[..., Any]:
        def timed(*args: Any, **kwargs: Any) -> Any:
            self.started += 1
            start = self.clock()
            try:
                value = yield from inner(*args, **kwargs)
            except Exception:
                self.failed += 1
                raise
            self.completed += 1
            if self.recording:
                samples.append(self.clock() - start)
            return value
        return timed
