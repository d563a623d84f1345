"""Interleaving rules: yield-point atomicity for the sim kernel.

GEM007-GEM009 are the static half of GeminiSan. They reason about what
can change *across a suspension point* — every ``yield`` hands control
to the scheduler, and any other process (or a crash) may run before the
generator resumes. All three rules codify bug classes this repo has
actually shipped:

* **GEM007** — a routing fact (fragment assignment, ``config_id``, a
  dirty-list view) captured once and then used inside a loop that
  suspends: by the second iteration the capture can be stale (the PR 1
  stale-config bug), and a dirty-view handle dropped in a ``finally``
  after a failed yield discards keys recovery still needs (the PR 3
  LeaseBackoff bug).
* **GEM008** — lock-order inversion over the module's acquisition-order
  graph (kernel mutexes/semaphores plus the Redlease, reached directly
  or through ``yield from`` into a sibling method).
* **GEM009** — check-then-act on eviction markers: a dirty-list page
  fetched across the network whose ``complete`` flag is never consulted,
  or a dirty list re-created with a fresh marker outside the one op
  allowed to mint one.

These rules read the per-function scan of the one call graph
(:class:`repro.analysis.flow.FlowProject`, built for the module alone):
the nodes each function owns, its may-yield and lock summaries. The
runtime sanitizer (:mod:`repro.sim.sanitizer`) checks the same
properties path-sensitively under chaos schedules.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.analysis.core import (Finding, ModuleContext, Rule, call_name,
                                 dotted_name, keyword_arg, op_of_call,
                                 register_rule)
from repro.analysis.flow import FlowFunction, single_module_project

__all__ = ["StaleCaptureAcrossYield", "LockOrderInversion",
           "CheckThenActOnMarkers"]

#: Calls whose result is a routing decision: stale after any suspension
#: once a reconfiguration can run.
ROUTING_CALL_SUFFIXES = (".route", ".fragment_for_key", ".fragment")

#: Ops that fetch a dirty-list page; their result carries ``complete``.
DIRTY_FETCH_OPS = frozenset({"get_dirty", "get_dirty_page"})

#: Names that look like a dirty-list view (GEM007's finally-drop check).
DIRTY_NAME_HINTS = ("dirty",)


def _generators(ctx: ModuleContext) -> List[FlowFunction]:
    """The module's plain ``def``s that have a ``yield`` of their own."""
    return [func for func in single_module_project(ctx).modules[0].functions
            if not func.is_async and func.is_generator]


def _owned_under(owned: Set[ast.AST], *roots: ast.AST) -> Set[ast.AST]:
    """The nodes of ``owned`` inside ``roots`` (the roots included)."""
    return {node for root in roots for node in ast.walk(root)
            if node in owned}


def _is_routing_value(value: ast.expr) -> bool:
    """Is this expression a routing fact worth tracking?

    Either a call to a router (``self.cache.route(key)``) or a read of a
    remote ``config_id`` attribute. ``self._config_id`` (two dotted
    parts) is the owner's own field — the coordinator mutates it under
    its transition lock — so only deeper paths like
    ``self.cache.config_id`` count as captures of someone else's state.
    """
    if isinstance(value, ast.Call):
        name = call_name(value)
        return (name is not None
                and name.endswith(ROUTING_CALL_SUFFIXES))
    if isinstance(value, ast.Attribute):
        name = dotted_name(value)
        return (name is not None and name.endswith(".config_id")
                and name.count(".") >= 2)
    return False


@register_rule
class StaleCaptureAcrossYield(Rule):
    """GEM007: routing state captured once, used across suspensions.

    Two shapes:

    (a) ``x = <routing expr>`` outside a loop, where some loop in the
        same generator both suspends (a ``yield``, or ``yield from``
        into a may-yield method) and reads ``x`` without reassigning it.
        Each suspension is a reconfiguration window; by the next
        iteration ``x`` may route to the wrong instance. The fix that
        shipped for the PR 1 bug moved the capture inside the loop.

    (b) a dirty-view mutation (``dirty.discard(...)`` / ``.pop`` /
        ``.remove``) in a ``finally`` or ``except`` of a ``try`` whose
        body suspends: when the yield fails mid-flight the handler drops
        a key from a view that no longer matches the authoritative list
        (the PR 3 LeaseBackoff drop).
    """

    code = "GEM007"
    summary = "routing state captured before a yielding loop goes stale"

    def check(self, ctx: ModuleContext) -> List[Finding]:
        findings: List[Finding] = []
        for func in _generators(ctx):
            owned = set(func.nodes)
            findings.extend(self._stale_captures(ctx, func, owned))
            findings.extend(self._finally_drops(ctx, func, owned))
        return findings

    # -- (a) captures ---------------------------------------------------

    def _stale_captures(self, ctx: ModuleContext, func: FlowFunction,
                        owned: Set[ast.AST]) -> Iterator[Finding]:
        loops = [node for node in func.nodes
                 if isinstance(node, (ast.For, ast.While))]
        if not loops:
            return
        bodies = {loop: _owned_under(owned, loop) for loop in loops}
        for node in func.nodes:
            if (not isinstance(node, ast.Assign)
                    or len(node.targets) != 1
                    or not isinstance(node.targets[0], ast.Name)
                    or not _is_routing_value(node.value)):
                continue
            name = node.targets[0].id
            for loop in loops:
                body = bodies[loop]
                if node in body:
                    continue  # re-captured every iteration: fine
                if not any(func.suspends(inner) for inner in body):
                    continue
                if self._reassigned_in(body, name):
                    continue
                if any(isinstance(inner, ast.Name) and inner.id == name
                       and isinstance(inner.ctx, ast.Load)
                       for inner in body):
                    yield self.finding(
                        ctx, node,
                        f"'{name}' is captured once but read inside a "
                        f"loop that yields; every suspension is a "
                        f"reconfiguration window, so re-capture it "
                        f"inside the loop (GEM007)")
                    break

    @staticmethod
    def _reassigned_in(body: Set[ast.AST], name: str) -> bool:
        for node in body:
            if (isinstance(node, ast.Assign)
                    and any(isinstance(t, ast.Name) and t.id == name
                            for t in node.targets)):
                return True
            if (isinstance(node, ast.For)
                    and isinstance(node.target, ast.Name)
                    and node.target.id == name):
                return True
        return False

    # -- (b) finally drops ----------------------------------------------

    def _finally_drops(self, ctx: ModuleContext, func: FlowFunction,
                       owned: Set[ast.AST]) -> Iterator[Finding]:
        for node in func.nodes:
            if not isinstance(node, ast.Try):
                continue
            if not any(func.suspends(inner)
                       for inner in _owned_under(owned, *node.body)):
                continue
            cleanup: List[ast.stmt] = list(node.finalbody)
            for handler in node.handlers:
                cleanup.extend(handler.body)
            for stmt in cleanup:
                for call in ast.walk(stmt):
                    if not isinstance(call, ast.Call):
                        continue
                    name = call_name(call)
                    if name is None:
                        continue
                    parts = name.split(".")
                    if (len(parts) == 2
                            and parts[1] in ("discard", "pop", "remove")
                            and any(h in parts[0].lower()
                                    for h in DIRTY_NAME_HINTS)):
                        yield self.finding(
                            ctx, call,
                            f"'{name}' drops from a dirty view in "
                            f"cleanup of a try whose body yields; a "
                            f"failed yield lands here with a stale "
                            f"view, discarding keys recovery still "
                            f"needs (GEM007)")


@register_rule
class LockOrderInversion(Rule):
    """GEM008: cyclic lock-acquisition order across the module.

    Builds an acquisition-order graph from each function's lexical lock
    events (kernel ``.acquire()`` yields, Redlease RPC ops, plus the
    locks reached through ``yield from`` into sibling methods while
    something is held) and reports any cycle: two processes entering
    the cycle from different edges deadlock the cooperative kernel —
    nothing preempts a parked generator.

    A lock acquired again while it is held, directly or through
    ``yield from``, is not an edge: it is reported once per lock as a
    re-acquisition. A non-reentrant lock then waits on its own holder,
    and two Redleases nested in one pass are an ordering hazard
    (:data:`repro.analysis.flow.RED_LOCK`).
    """

    code = "GEM008"
    summary = "lock-order inversion or a lock re-acquired while held"

    def check(self, ctx: ModuleContext) -> List[Finding]:
        project = single_module_project(ctx)
        module = project.modules[0]
        edges: Dict[str, Set[str]] = {}
        anchor: Dict[Tuple[str, str], Tuple[int, int]] = {}
        reacquired: Dict[str, Tuple[int, int]] = {}

        def acquire(held: List[str], lock: str,
                    site: Tuple[int, int]) -> None:
            for prior in held:
                if prior == lock:
                    reacquired.setdefault(lock, site)
                else:
                    anchor.setdefault((prior, lock), site)
                    edges.setdefault(prior, set()).add(lock)

        for owner in module.functions:
            if owner.is_async:
                continue
            cls = module.classes.get(owner.class_name)
            held: List[str] = []
            for line, col, kind, lock in owner.lock_events:
                if kind == "acquire":
                    acquire(held, lock, (line, col))
                    held.append(lock)
                elif kind == "release":
                    if lock in held:
                        held.remove(lock)
                elif kind.startswith("call:") and held and cls is not None:
                    target = project.resolve_method(cls, kind[len("call:"):])
                    if target is None:
                        continue
                    for inner in target.acquires:
                        acquire(held, inner, (line, col))
        findings = self._report_cycles(ctx, edges, anchor)
        for lock, (line, col) in sorted(reacquired.items()):
            findings.append(Finding(
                code=self.code,
                message=(f"'{lock}' re-acquired while held: a "
                         f"non-reentrant lock waits on its own holder, "
                         f"and two processes nesting it deadlock the "
                         f"kernel (GEM008)"),
                path=ctx.path, line=line, col=col))
        return findings

    def _report_cycles(self, ctx: ModuleContext,
                       edges: Dict[str, Set[str]],
                       anchor: Dict[Tuple[str, str], Tuple[int, int]],
                       ) -> List[Finding]:
        findings: List[Finding] = []
        reported: Set[frozenset] = set()
        for src, dsts in sorted(edges.items()):
            for dst in sorted(dsts):
                path = self._path(edges, dst, src)
                if path is None:
                    continue
                cycle = frozenset(path) | {src}
                if cycle in reported:
                    continue
                reported.add(cycle)
                line, col = anchor[(src, dst)]
                order = " -> ".join([src] + path)
                findings.append(Finding(
                    code=self.code,
                    message=(f"lock-order inversion: {order}; another "
                             f"process acquiring in the opposite order "
                             f"deadlocks the kernel (GEM008)"),
                    path=ctx.path, line=line, col=col))
        return findings

    @staticmethod
    def _path(edges: Dict[str, Set[str]], start: str,
              goal: str) -> Optional[List[str]]:
        """DFS path start -> goal, or None."""
        stack: List[Tuple[str, List[str]]] = [(start, [start])]
        seen: Set[str] = set()
        while stack:
            node, path = stack.pop()
            if node == goal:
                return path
            if node in seen:
                continue
            seen.add(node)
            for nxt in sorted(edges.get(node, ())):
                stack.append((nxt, path + [nxt]))
        return None


@register_rule
class CheckThenActOnMarkers(Rule):
    """GEM009: non-atomic check-then-act on eviction markers.

    (a) a dirty-list page fetched over the network
        (``x = yield ...get_dirty[_page]...``) whose ``complete`` flag
        is never read in the same function: an evicted entry silently
        truncates the list, and acting on the truncated page without
        checking the marker repairs only part of the fragment (the
        shipped recovery-read bug dropped exactly this check).

    (b) ``DirtyList(..., marker=True)`` minted outside
        ``op_create_dirty``: only the coordinator-driven create path may
        declare a list complete; re-creating one mid-outage with a fresh
        marker forges completeness the protocol never established.
    """

    code = "GEM009"
    summary = "check-then-act on eviction markers"

    def check(self, ctx: ModuleContext) -> List[Finding]:
        findings: List[Finding] = []
        for func in _generators(ctx):
            findings.extend(self._unchecked_pages(ctx, func))
        findings.extend(self._fresh_markers(ctx))
        return findings

    def _unchecked_pages(self, ctx: ModuleContext,
                         func: FlowFunction) -> Iterator[Finding]:
        for node in func.nodes:
            if (not isinstance(node, ast.Assign)
                    or len(node.targets) != 1
                    or not isinstance(node.targets[0], ast.Name)
                    or not isinstance(node.value, ast.Yield)
                    or node.value.value is None):
                continue
            op = self._carried_op(node.value.value)
            if op not in DIRTY_FETCH_OPS:
                continue
            name = node.targets[0].id
            if not any(isinstance(read, ast.Attribute)
                       and read.attr == "complete"
                       and isinstance(read.value, ast.Name)
                       and read.value.id == name
                       for read in func.nodes):
                yield self.finding(
                    ctx, node,
                    f"'{name}' holds a {op} page but '.complete' is "
                    f"never checked; an eviction truncates the list "
                    f"and partial repair passes silently (GEM009)")

    @staticmethod
    def _carried_op(value: ast.expr) -> Optional[str]:
        for node in ast.walk(value):
            if isinstance(node, ast.Call):
                op = op_of_call(node)
                if op is not None:
                    return op
        return None

    def _fresh_markers(self, ctx: ModuleContext) -> Iterator[Finding]:
        minted = {node
                  for func in single_module_project(ctx).modules[0].functions
                  if not func.is_async and func.node.name == "op_create_dirty"
                  for node in func.nodes}
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call) or node in minted:
                continue
            name = call_name(node)
            if name is None or name.split(".")[-1] != "DirtyList":
                continue
            marker = keyword_arg(node, "marker")
            if not (isinstance(marker, ast.Constant)
                    and marker.value is True):
                continue
            yield self.finding(
                ctx, marker,
                "DirtyList(marker=True) outside op_create_dirty forges "
                "a completeness marker the coordinator never granted "
                "(GEM009)")
