"""Readers for what live nodes leave in their workdir.

* ``cache-*.journal``: one wire-encoded record per line (see
  ``repro.live.node.PersistentCacheInstance``), decoded with
  ``repro.live.wire.decode``.
* ``<address>.events.jsonl``: ``{"wall": unix seconds, "event":
  wire-encoded ProtocolEvent}`` per line.

Phase times come from the coordinator's ``config_commit`` events, folded
with ``repro.obs.timeline``; the same code reads the sim's in-memory
event log.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path
from typing import Dict, Iterable, List, Optional

from repro.config.configuration import Configuration
from repro.live.wire import decode
from repro.obs.timeline import build_fragment_timelines
from repro.types import FragmentMode
from repro.verify.events import ProtocolEvent

JOURNALS = "cache-*.journal"
EVENT_LOGS = "*.events.jsonl"


def _complete_lines(data: bytes) -> List[bytes]:
    """Non-empty newline-terminated lines; a torn tail (a SIGKILL
    mid-write) is left out."""
    return [line for line in data.split(b"\n")[:-1] if line.strip()]


def file_sizes(workdir: Path, pattern: str) -> Dict[str, int]:
    return {path.name: path.stat().st_size
            for path in sorted(workdir.glob(pattern))}


def grown_bytes(before: Dict[str, int], after: Dict[str, int]) -> int:
    """Bytes appended between two :func:`file_sizes` snapshots; a file
    that shrank (a wiped journal) counts from zero."""
    total = 0
    for name, size in after.items():
        old = before.get(name, 0)
        total += size - old if size >= old else size
    return total


def journal_records(workdir: Path, before: Dict[str, int],
                    after: Dict[str, int]) -> int:
    """Journal records appended between two :func:`file_sizes`
    snapshots."""
    records = 0
    for name, end in after.items():
        with open(workdir / name, "rb") as handle:
            data = handle.read(end)
        start = before.get(name, 0)
        if start > end:
            start = 0
        for line in _complete_lines(data[start:]):
            decode(line)  # raises WireError on a malformed record
            records += 1
    return records


def read_events(path: Path, since: float = 0.0) -> List[ProtocolEvent]:
    """A node's event stream, each event re-stamped with its wall time
    so streams of different processes share one clock."""
    if not path.exists():
        return []
    events = []
    for line in _complete_lines(path.read_bytes()):
        record = json.loads(line)
        if record["wall"] < since:
            continue
        event = decode(json.dumps(record["event"]).encode("utf-8"))
        events.append(dataclasses.replace(event, time=record["wall"]))
    return events


def replayed_entries(events: Iterable[ProtocolEvent]) -> int:
    """Entries restored by journal replay (``journal_replayed`` events)."""
    return sum(int(e.data["entries"]) for e in events
               if e.kind == "journal_replayed")


@dataclasses.dataclass(frozen=True)
class Phases:
    """When one instance's outage moved through Figure 4's modes."""

    #: First commit putting one of the victim's fragments in TRANSIENT.
    detected_at: Optional[float]
    #: First commit handing one of them back in RECOVERY.
    recovery_at: Optional[float]
    #: Last ``dirty_done`` for them: dirty-list repair finished.
    repaired_at: Optional[float]
    #: First commit with working-set transfer off for all of them.
    wst_off_at: Optional[float]
    #: First commit with every fragment NORMAL and no transfer active.
    normal_at: Optional[float]
    commits: int


def _first_phase(timelines, fragment_ids, mode: str,
                 after: float) -> Optional[float]:
    starts = [phase.start for fid in fragment_ids
              for phase in timelines[fid].phases
              if phase.mode == mode and phase.start >= after]
    return min(starts) if starts else None


def recovery_phases(initial: Configuration,
                    events: Iterable[ProtocolEvent],
                    victim: str, failed_at: float) -> Phases:
    """Fold the event stream of one failure of ``victim`` into phase
    times, on the events' clock."""
    events = list(events)
    commits = [e for e in events if e.kind == "config_commit"]
    victims = {f.fragment_id for f in initial.fragments
               if f.primary == victim}
    horizon = max((e.time for e in events), default=failed_at)
    timelines = build_fragment_timelines(initial, commits, horizon)
    detected_at = _first_phase(timelines, victims,
                               FragmentMode.TRANSIENT.name, failed_at)
    recovery_at = _first_phase(timelines, victims,
                               FragmentMode.RECOVERY.name, failed_at)
    repaired_at = wst_off_at = normal_at = None
    if recovery_at is not None:
        done = [e.time for e in events
                if e.kind == "dirty_done" and e.time >= recovery_at
                and e.data["fragment_id"] in victims]
        repaired_at = max(done) if done else None
        for commit in commits:
            if commit.time < recovery_at:
                continue
            fragments = commit.data["config"].fragments
            if wst_off_at is None and not any(
                    f.wst_active for f in fragments
                    if f.fragment_id in victims):
                wst_off_at = commit.time
            if all(f.mode is FragmentMode.NORMAL and not f.wst_active
                   for f in fragments):
                normal_at = commit.time
                break
    return Phases(detected_at, recovery_at, repaired_at, wst_off_at,
                  normal_at, len(commits))


def since(start: Optional[float], end: Optional[float]) -> float:
    """``end - start``, or 0 when either phase never happened."""
    if start is None or end is None:
        return 0.0
    return end - start

