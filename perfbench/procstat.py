"""CPU time and peak memory of the harness and its node processes.

Read from ``/proc``: CPU is ``utime + stime`` of ``/proc/<pid>/stat``,
peak resident memory is ``VmHWM`` of ``/proc/<pid>/status``. Node
processes are the harness's direct children whose command line carries
``--role`` and ``--address`` (``python -m repro.live node ...``).
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path
from typing import AbstractSet, Dict, Optional, Tuple

CLOCK_TICKS = os.sysconf("SC_CLK_TCK")
HARNESS = ("harness", "harness")


def parse_stat(text: str) -> Tuple[int, float]:
    """``(ppid, cpu seconds)`` from the text of ``/proc/<pid>/stat``."""
    # The command name is parenthesised and may hold spaces or ')'.
    fields = text[text.rindex(")") + 2:].split()
    ppid = int(fields[1])
    utime, stime = int(fields[11]), int(fields[12])
    return ppid, (utime + stime) / CLOCK_TICKS


def parse_vmhwm_kb(text: str) -> int:
    """Peak resident set size in KiB from ``/proc/<pid>/status``."""
    for line in text.splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1])
    return 0


def node_label(cmdline: bytes) -> Optional[Tuple[str, str]]:
    """``(role, address)`` of a node process, from ``/proc/<pid>/cmdline``."""
    argv = cmdline.decode("utf-8", "replace").split("\0")
    try:
        role = argv[argv.index("--role") + 1]
        address = argv[argv.index("--address") + 1]
    except (ValueError, IndexError):
        return None
    return role, address


@dataclass
class _Entry:
    label: Tuple[str, str]
    base_cpu: float
    cpu: float
    hwm_kb: int


class ProcessLedger:
    """Per-process CPU used since :meth:`start`, and peak RSS.

    A process first seen after :meth:`start` (a restarted node) counts
    all of its CPU. Call :meth:`sample` just before killing a process:
    once it is dead its counters are gone.
    """

    def __init__(self, proc: str = "/proc", pid: Optional[int] = None) -> None:
        self.proc = Path(proc)
        self.pid = os.getpid() if pid is None else pid
        self.entries: Dict[int, _Entry] = {}

    def _read(self, pid: int, name: str) -> str:
        return (self.proc / str(pid) / name).read_text()

    def _processes(self) -> Dict[int, Tuple[str, str]]:
        found = {self.pid: HARNESS}
        for path in self.proc.iterdir():
            if not path.name.isdigit():
                continue
            try:
                ppid, __ = parse_stat((path / "stat").read_text())
                if ppid != self.pid:
                    continue
                label = node_label((path / "cmdline").read_bytes())
            except (OSError, ValueError):
                continue  # exited while we looked
            if label is not None:
                found[int(path.name)] = label
        return found

    def start(self) -> None:
        self.entries = {}
        self.sample(baseline=True)

    def sample(self, baseline: bool = False) -> None:
        for pid, label in self._processes().items():
            try:
                __, cpu = parse_stat(self._read(pid, "stat"))
                hwm = parse_vmhwm_kb(self._read(pid, "status"))
            except (OSError, ValueError):
                continue
            entry = self.entries.get(pid)
            if entry is None:
                entry = self.entries[pid] = _Entry(
                    label, cpu if baseline else 0.0, cpu, hwm)
            entry.cpu = cpu
            entry.hwm_kb = max(entry.hwm_kb, hwm)

    def cpu_by_role(self) -> Dict[str, float]:
        """CPU seconds used since :meth:`start`, summed per role."""
        out: Dict[str, float] = {}
        for entry in self.entries.values():
            role = entry.label[0]
            out[role] = out.get(role, 0.0) + entry.cpu - entry.base_cpu
        return out

    def pin(self, cpus: AbstractSet[int]) -> None:
        """Run every thread of the harness and its node processes on
        ``cpus`` only."""
        for pid in self._processes():
            try:
                tasks = [int(t.name) for t in
                         (self.proc / str(pid) / "task").iterdir()]
                for tid in tasks:
                    os.sched_setaffinity(tid, cpus)
            except OSError:
                continue  # exited while we looked

    def peak_rss_mb(self) -> float:
        """Sum over addresses of the largest peak RSS any incarnation had."""
        peaks: Dict[Tuple[str, str], int] = {}
        for entry in self.entries.values():
            peaks[entry.label] = max(peaks.get(entry.label, 0), entry.hwm_kb)
        return sum(peaks.values()) / 1024.0
