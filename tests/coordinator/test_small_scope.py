"""Exhaustive small-scope check of the coordinator's Figure-4 machine.

The real :class:`Coordinator` (not a second model of it) runs a
3-instance cluster with one fragment per instance. Every state reachable
within ``DEPTH`` lifecycle events is explored breadth-first:

* a state is a :meth:`Coordinator.snapshot_state`; to expand it, a fresh
  coordinator adopts it with :meth:`Coordinator.restore_state` and one
  event (fail/recover of an instance, dirty_done/dirty_lost of a
  fragment, wst_done of an instance) goes through ``on_event``;
* the instances are stubs, and every answer a stub can give is its own
  branch: ``get_dirty`` returns a complete list, a partial one (marker
  lost) or nothing; ``create_dirty`` certifies the list or not;
* states equal up to an order-preserving renaming of configuration ids
  are explored once.

Every commit feeds the chaos engine's :class:`MonotoneConfigInvariant`
and :class:`ConfigStructureInvariant` (whose ``_LEGAL`` table stays the
independent statement of Figure 4), and every transition process must
finish cleanly: one that dies would leave its exception unobserved.
Every state must also keep the coordinator's fallback dirty-list copies
to fragments in recovery mode, each taken in the fragment's current
episode (:func:`_dirty_copy_violations`).
"""

from __future__ import annotations

import random
from collections import deque
from typing import Any, Dict, List, Sequence, Set, Tuple

import pytest

from repro.coordinator.coordinator import Coordinator
from repro.config.configuration import Configuration
from repro.recovery.policies import GEMINI_O, GEMINI_O_W
from repro.sim.core import Simulator
from repro.sim.network import LatencyModel, Network, RemoteNode
from repro.types import CACHE_MISS, FragmentMode
from repro.verify.events import EventLog, ProtocolEvent
from repro.verify.invariants import (ConfigStructureInvariant, Invariant,
                                     MonotoneConfigInvariant)

INSTANCES = ("cache-0", "cache-1", "cache-2")
FRAGMENTS = (0, 1, 2)
DEPTH = 5
EVENTS = ([("fail", a) for a in INSTANCES]
          + [("recover", a) for a in INSTANCES]
          + [("dirty_done", f) for f in FRAGMENTS]
          + [("dirty_lost", f) for f in FRAGMENTS]
          + [("wst_done", a) for a in INSTANCES])
#: Simulated time one event gets to settle: every transition (and any
#: dirty_lost it cascades into) finishes in well under a millisecond,
#: and the WST monitor's first sample (``monitor_interval`` = 1 s) stays
#: out of reach, so only the explicit ``wst_done`` event ends a transfer.
SETTLE = 0.5
#: Jitter-free, so it never draws from its stream and every run can share it.
LATENCY = LatencyModel(random.Random(0), jitter=0.0)


class _Answers:
    """Replays a prefix of answer indices, then answers 0 and records
    how many answers each further branch point offered."""

    def __init__(self, prefix: Sequence[int]) -> None:
        self.prefix = prefix
        self.taken: List[int] = []
        self.widths: List[int] = []

    def pick(self, options: Sequence[Any]) -> Any:
        index = len(self.taken)
        choice = self.prefix[index] if index < len(self.prefix) else 0
        self.taken.append(choice)
        self.widths.append(len(options))
        return options[choice]


class _StubDirtyList:
    """The part of a fetched dirty list the coordinator reads."""

    def __init__(self, fragment_id: int, complete: bool) -> None:
        self.fragment_id = fragment_id
        self.complete = complete

    def keys(self) -> List[str]:
        return [f"key-{self.fragment_id}"]


class _StubInstance(RemoteNode):
    def __init__(self, sim: Simulator, address: str,
                 answers: _Answers) -> None:
        super().__init__(sim, address)
        self.answers = answers

    def handle_request(self, request: Any) -> Any:
        if request.op == "get_dirty":
            return self.answers.pick((
                _StubDirtyList(request.fragment_id, complete=True),
                _StubDirtyList(request.fragment_id, complete=False),
                CACHE_MISS))
        if request.op == "create_dirty":
            return self.answers.pick((True, False))
        return True  # set_config, delete_dirty, wipe


def _cluster(policy, answers: _Answers):
    sim = Simulator()
    network = Network(sim, LATENCY)
    for address in INSTANCES:
        network.register(_StubInstance(sim, address, answers))
    log = EventLog(clock=lambda: sim.now)
    coordinator = Coordinator(sim, network, list(INSTANCES),
                              len(FRAGMENTS), policy, event_log=log)
    network.register(coordinator)
    return sim, coordinator, log


def _run(policy, state: Dict[str, Any], event: Tuple[str, Any],
         prefix: Sequence[int]):
    """Apply one event to ``state``; returns the new state, the commits
    and the answer log that drove it."""
    answers = _Answers(prefix)
    sim, coordinator, log = _cluster(policy, answers)
    coordinator.restore_state(state)
    spawned = []
    spawn = sim.process

    def process(generator, name=""):
        spawned.append(spawn(generator, name))
        return spawned[-1]

    sim.process = process  # type: ignore[method-assign]
    coordinator.on_event(*event)
    sim.run(until=SETTLE)
    for proc in spawned:
        if proc.name.startswith("coord-"):
            assert proc.triggered and proc.ok, \
                f"{proc.name} did not finish cleanly after {event}"
    assert coordinator._lock.available == 1, \
        f"transition lock still held after {event}"
    recopied = {e.get("fragment_id") for e in log.of_kind("recovery_dirty")}
    return coordinator.snapshot_state(), log.of_kind("config_commit"), \
        answers, recopied


def _outcomes(policy, state, event):
    """Every (state, commits, re-copied fragments) one event can lead
    to, one per distinct sequence of stub answers."""
    pending: List[Tuple[int, ...]] = [()]
    while pending:
        prefix = pending.pop()
        after, commits, answers, recopied = _run(policy, state, event,
                                                 prefix)
        yield after, commits, recopied
        for depth in range(len(prefix), len(answers.taken)):
            for alternative in range(1, answers.widths[depth]):
                pending.append(tuple(answers.taken[:depth]) + (alternative,))


def _normalized(state: Dict[str, Any]) -> Tuple:
    """The state with configuration ids renamed to their rank."""
    config: Configuration = state["config"]
    ids = {state["config_id"], *state["pre_failure_cfg"].values()}
    for fragment in config.fragments:
        ids.update((fragment.cfg_id, fragment.episode))
    rank = {value: index for index, value in enumerate(sorted(ids))}
    return (
        rank[state["config_id"]],
        tuple((f.primary, f.secondary, f.mode.name, rank[f.cfg_id],
               f.wst_active, rank[f.episode]) for f in config.fragments),
        tuple(sorted(state["alive"])),
        tuple(sorted((k, rank[v])
                     for k, v in state["pre_failure_cfg"].items())),
        tuple(sorted(state["recoverable"].items())),
        tuple(sorted(state["dirty_done"])),
        tuple(sorted((k, tuple(v)) for k, v in state["dirty_copy"].items())),
    )


def _checkers(config: Configuration) -> List[Invariant]:
    """The two configuration checkers, positioned after ``config``.

    Each remembers only the last commit (per actor, per fragment), so
    one synthetic commit of the state's configuration puts them where
    the path that reached the state left them. What they find in it
    was reported when the commit that made the state was checked.
    """
    checkers = [MonotoneConfigInvariant(), ConfigStructureInvariant()]
    last = ProtocolEvent(0.0, "config_commit",
                         {"config": config, "actor": "coordinator"})
    for checker in checkers:
        checker.on_event(last)
    return checkers


def _dirty_copy_violations(before: Dict[str, Any], after: Dict[str, Any],
                           recopied: Set[int]) -> List[str]:
    """A fallback dirty copy exists only for a fragment in recovery mode,
    and only for its current episode: one that outlives a step without
    being re-taken (``recopied``) must have been in recovery mode, in
    the same episode, before the step too."""
    modes_before = {f.fragment_id: f for f in before["config"].fragments}
    out = []
    for fragment in after["config"].fragments:
        fid = fragment.fragment_id
        if fid not in after["dirty_copy"]:
            continue
        if fragment.mode is not FragmentMode.RECOVERY:
            out.append(f"dirty copy of fragment {fid} kept in "
                       f"{fragment.mode.name} mode")
            continue
        earlier = modes_before[fid]
        if fid in before["dirty_copy"] and fid not in recopied and (
                earlier.mode is not FragmentMode.RECOVERY
                or earlier.episode != fragment.episode):
            out.append(f"dirty copy of fragment {fid} carried from "
                       f"episode {earlier.episode} into {fragment.episode}")
    return out


def _explore(policy) -> Tuple[int, int, List[str]]:
    """Breadth-first over every event and answer to ``DEPTH``; returns
    (distinct states, commits checked, invariant violations)."""
    root = _cluster(policy, _Answers(()))[1].snapshot_state()
    seen = {_normalized(root)}
    frontier = deque([(root, 0)])
    commits_checked = 0
    violations: List[str] = []
    while frontier:
        state, depth = frontier.popleft()
        if depth == DEPTH:
            continue
        for event in EVENTS:
            for after, commits, recopied in _outcomes(policy, state, event):
                checkers = _checkers(state["config"])
                for commit in commits:
                    commits_checked += 1
                    for checker in checkers:
                        violations += [f"{event}: {v}"
                                       for v in checker.on_event(commit)]
                violations += [f"{event}: {v}" for v in
                               _dirty_copy_violations(state, after, recopied)]
                key = _normalized(after)
                if key not in seen:
                    seen.add(key)
                    frontier.append((after, depth + 1))
    return len(seen), commits_checked, violations


@pytest.mark.parametrize("policy", [GEMINI_O_W, GEMINI_O],
                         ids=lambda p: p.name)
def test_every_reachable_state_commits_legal_configurations(policy):
    states, commits, violations = _explore(policy)
    assert violations == []
    # The search reached the whole lifecycle, not just its first step.
    assert states > 50 and commits > states


def _walk_state(policy, *steps: Tuple[Tuple[str, Any], Sequence[int]]):
    """The coordinator state after ``steps``, each an event and its stub
    answers."""
    state = _cluster(policy, _Answers(()))[1].snapshot_state()
    for event, prefix in steps:
        state = _run(policy, state, event, prefix)[0]
    return state


def _walk(policy, *steps: Tuple[Tuple[str, Any], Sequence[int]]):
    """The fragments after ``steps`` (see _walk_state)."""
    state = _walk_state(policy, *steps)
    return {f.fragment_id: f for f in state["config"].fragments}


class TestFoundBySearch:
    """Paths the search found broken, pinned one by one."""

    def test_primary_failing_after_its_secondary_died_gets_a_new_one(self):
        # Fragment 0 recovers on cache-0 from cache-1's dirty list;
        # cache-1 dies mid-recovery (Section 3.3), then cache-0 fails
        # again. Nothing covers the second outage: the fragment must be
        # served by a fresh secondary, not sit in transient mode with
        # none (where a later dirty-lost promoted None to primary).
        fragments = _walk(GEMINI_O, (("fail", "cache-0"), ()),
                          (("recover", "cache-0"), ()),
                          (("fail", "cache-1"), ()),
                          (("fail", "cache-0"), ()))
        assert fragments[0].mode is FragmentMode.TRANSIENT
        assert fragments[0].secondary == "cache-2"

    def test_promoted_primary_takes_its_fragment_back(self):
        # cache-1 becomes fragment 0's primary when its dirty list is
        # lost (answer 1: create_dirty not certified). When cache-1
        # fails and recovers, it must take fragment 0 back: left in
        # transient mode, the fragment later got cache-1 as both its
        # primary and its replacement secondary.
        fragments = _walk(GEMINI_O, (("fail", "cache-0"), (1,)),
                          (("fail", "cache-1"), ()),
                          (("recover", "cache-1"), ()),
                          (("fail", "cache-2"), ()))
        assert fragments[0].primary == "cache-1"
        assert fragments[0].mode is FragmentMode.RECOVERY
        assert fragments[0].secondary is None

    def test_dirty_copy_dropped_when_recovery_is_cut_short(self):
        # Fragment 0 recovers on cache-0 from a complete list, so the
        # coordinator keeps a fallback copy of it. cache-0 fails again
        # and the new secondary cannot certify its list (answer 1), so
        # dirty_lost promotes it: fragment 0 is NORMAL, and the copy of
        # the finished episode must go with the recovery mode it served
        # (a later episode whose own get_dirty misses would hand it out).
        state = _walk_state(GEMINI_O, (("fail", "cache-0"), ()),
                            (("recover", "cache-0"), ()),
                            (("fail", "cache-0"), (1,)))
        fragment = state["config"].fragments[0]
        assert fragment.mode is FragmentMode.NORMAL
        assert fragment.primary != "cache-0"
        assert 0 not in state["dirty_copy"]
