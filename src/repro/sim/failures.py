"""Failure/recovery scheduling for simulated nodes.

Experiments in the paper fail instances in two ways:

* **Emulated failure** (Section 5.2): the coordinator removes an instance
  from the configuration without powering it off, so its content stays
  intact — used for all YCSB experiments. Modelled by calling coordinator
  hooks directly.
* **Real crash**: the node stops answering; persistent content survives
  but the DRAM index is rebuilt on restart. Modelled by
  :meth:`RemoteNode.fail` / :meth:`RemoteNode.recover`.

:class:`FailureSchedule` describes *when*; :class:`FailureInjector`
executes the schedule against a set of nodes and invokes observer hooks
(the coordinator's failure detector in the harness).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.errors import SimulationError
from repro.sim.core import Simulator
from repro.sim.network import RemoteNode

__all__ = ["FailureSchedule", "FailureInjector", "check_overlap"]


@dataclass(frozen=True)
class FailureSchedule:
    """One planned outage: ``targets`` go down at ``at`` for ``duration``.

    ``duration=None`` means the outage is permanent (no recovery event).
    ``emulated=True`` reproduces the paper's coordinator-driven failure:
    the node object stays up (content intact, power undisturbed) and only
    the observers are notified.
    """

    at: float
    duration: Optional[float]
    targets: Sequence[str] = field(default_factory=tuple)
    emulated: bool = True

    def __post_init__(self) -> None:
        if self.at < 0:
            raise SimulationError("failure time must be non-negative")
        if self.duration is not None and self.duration <= 0:
            raise SimulationError("failure duration must be positive")
        if not self.targets:
            raise SimulationError("a failure schedule needs targets")

    @property
    def recovers_at(self) -> Optional[float]:
        if self.duration is None:
            return None
        return self.at + self.duration


def check_overlap(schedules: Sequence[FailureSchedule]) -> None:
    """Reject schedules whose outage windows overlap on the same target.

    Two outages of the same address with intersecting ``[at, recovers_at)``
    windows would make the injector's fail/recover pairing ambiguous (the
    first recovery would "revive" a node the second outage still holds
    down). A permanent outage (``duration=None``) overlaps everything at or
    after its start.
    """
    windows: Dict[str, List[Tuple[float, Optional[float]]]] = {}
    for schedule in schedules:
        for address in schedule.targets:
            windows.setdefault(address, []).append(
                (schedule.at, schedule.recovers_at))
    for address, spans in windows.items():
        spans.sort(key=lambda s: (s[0], s[1] is not None, s[1]))
        for (a_start, a_end), (b_start, _b_end) in zip(spans, spans[1:], strict=False):
            if a_end is None or b_start < a_end:
                raise SimulationError(
                    f"overlapping outages for {address!r}: "
                    f"[{a_start}, {a_end}) and one starting at {b_start}"
                )


class FailureInjector:
    """Executes :class:`FailureSchedule` entries against named nodes.

    Observers are ``(event, address)`` callbacks with ``event`` in
    ``{"fail", "recover"}`` — the harness registers the coordinator's
    failure detector here so that mode transitions happen exactly when the
    paper's emulated failures do.
    """

    def __init__(self, sim: Simulator,
                 nodes: Optional[Dict[str, RemoteNode]] = None) -> None:
        self.sim = sim
        self._nodes: Dict[str, RemoteNode] = dict(nodes or {})
        self._observers: List[Callable[[str, str], None]] = []
        self.log: List[Tuple[float, str, str]] = []
        self._down: Set[str] = set()

    def subscribe(self, observer: Callable[[str, str], None]) -> None:
        self._observers.append(observer)

    def is_down(self, address: str) -> bool:
        return address in self._down

    def apply(self, schedule: FailureSchedule) -> None:
        """Arm one outage; fail/recover callbacks fire at the right times."""
        for address in schedule.targets:
            self.sim.schedule_at(schedule.at, self._fail, address, schedule.emulated)
            if schedule.recovers_at is not None:
                self.sim.schedule_at(
                    schedule.recovers_at, self._recover, address, schedule.emulated
                )

    def apply_all(self, schedules: Sequence[FailureSchedule],
                  allow_overlap: bool = False) -> None:
        if not allow_overlap:
            check_overlap(schedules)
        for schedule in schedules:
            self.apply(schedule)

    def fail_now(self, address: str, emulated: bool = True) -> None:
        self._fail(address, emulated)

    def recover_now(self, address: str, emulated: bool = True) -> None:
        self._recover(address, emulated)

    def _fail(self, address: str, emulated: bool) -> None:
        if address in self._down:
            # Already down: a second fail must not re-notify observers (the
            # coordinator would start a second transient episode).
            self.log.append((self.sim.now, "fail-redundant", address))
            return
        self._down.add(address)
        self.log.append((self.sim.now, "fail", address))
        node = self._nodes.get(address)
        if node is not None and not emulated:
            node.fail()
        for observer in self._observers:
            observer("fail", address)

    def _recover(self, address: str, emulated: bool) -> None:
        if address not in self._down:
            self.log.append((self.sim.now, "recover-redundant", address))
            return
        self._down.discard(address)
        self.log.append((self.sim.now, "recover", address))
        node = self._nodes.get(address)
        if node is not None and not emulated:
            node.recover()
        for observer in self._observers:
            observer("recover", address)
