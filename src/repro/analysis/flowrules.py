"""GeminiFlow rules: the live runtime's crash-model disciplines.

Four rules built on :mod:`repro.analysis.flow`:

* **GEM011** exception-flow closure — every exception that can escape an
  RPC-serving ``handle_request`` must be in the wire codec's closed
  exception registry, and every registered class must be constructible
  from its wire form.
* **GEM012** journal-before-ack — a journaling cache must append to the
  journal synchronously inside every persistent-state mutation hook, so
  the record is durable before ``NodeServer`` writes the reply.
* **GEM013** asyncio discipline — no blocking calls on the event loop,
  no fire-and-forget tasks whose exceptions vanish, no transport RPC
  without an armed timeout, no lock held across an ``await`` without
  ``try/finally`` release.
* **GEM014** wire-schema drift — the codec's registries must match the
  committed ``ci/wire-schema.json`` snapshot, and every dataclass
  constructed directly at a ``Transport.call`` site must be in the
  codec's dataclass registry.

Like the GEM001-GEM010 rules these are lexical and anchor on structural
markers (an ``_ERRORS`` registry literal, a ``_journal_record`` method)
so they fire identically on fixtures and on minimally reverted
historical bugs.
"""

from __future__ import annotations

import ast
import json
from pathlib import Path
from typing import Any, Dict, List, NamedTuple, Optional, Set, Tuple

from repro.analysis.core import (
    Finding,
    ModuleContext,
    Rule,
    call_name,
    keyword_arg,
    register_rule,
)
from repro.analysis.flow import (
    EXEMPT_ESCAPES,
    FlowClass,
    FlowFunction,
    FlowModule,
    FlowProject,
    _disk_context,
    enclosing_callable,
    find_source_root,
    project_for_context,
    single_module_project,
)
from repro.analysis.rules import _in_package

__all__ = [
    "ExceptionFlowClosure",
    "JournalBeforeAck",
    "AsyncioDiscipline",
    "WireSchemaDrift",
    "SchemaDrift",
    "schema_drift",
    "wire_schema",
]

_ASYNC_SCOPE = "repro/live"


# ---------------------------------------------------------------------------
# lexical codec extraction: GEM011, GEM014 and tools/wire_schema.py

def _const_str(node: ast.AST) -> Optional[str]:
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


def _module_assign(ctx: ModuleContext, name: str) -> Optional[ast.Assign]:
    for node in ctx.tree.body:
        if isinstance(node, ast.Assign):
            targets = [t.id for t in node.targets
                       if isinstance(t, ast.Name)]
            if name in targets:
                return node
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            if isinstance(node.target, ast.Name) and node.target.id == name:
                assign = ast.Assign(targets=[node.target], value=node.value)
                ast.copy_location(assign, node)
                return assign
    return None


def _error_registry(
        ctx: ModuleContext
) -> Optional[Tuple[ast.Assign, Dict[str, Tuple[str, Tuple[str, ...]]]]]:
    """The ``_ERRORS`` literal: name -> (class name, ctor attrs)."""
    assign = _module_assign(ctx, "_ERRORS")
    if assign is None or not isinstance(assign.value, ast.Dict):
        return None
    out: Dict[str, Tuple[str, Tuple[str, ...]]] = {}
    for key, value in zip(assign.value.keys, assign.value.values):
        name = _const_str(key) if key is not None else None
        if name is None or not isinstance(value, ast.Tuple):
            continue
        if len(value.elts) != 2:
            continue
        cls_node, attrs_node = value.elts
        cls_name = None
        if isinstance(cls_node, ast.Name):
            cls_name = cls_node.id
        elif isinstance(cls_node, ast.Attribute):
            cls_name = cls_node.attr
        attrs: List[str] = []
        if isinstance(attrs_node, ast.Tuple):
            for elt in attrs_node.elts:
                attr = _const_str(elt)
                if attr is not None:
                    attrs.append(attr)
        if cls_name is not None:
            out[name] = (cls_name, tuple(attrs))
    return assign, out


def _dataclass_registry(
        ctx: ModuleContext) -> Optional[Tuple[ast.Assign, Tuple[str, ...]]]:
    """The ``_DATACLASSES`` names, from either registry idiom:
    a dict comprehension over a tuple of classes, or a dict literal."""
    assign = _module_assign(ctx, "_DATACLASSES")
    if assign is None:
        return None
    value = assign.value
    names: List[str] = []
    if isinstance(value, ast.DictComp) and value.generators:
        iterable = value.generators[0].iter
        if isinstance(iterable, (ast.Tuple, ast.List)):
            for elt in iterable.elts:
                if isinstance(elt, ast.Name):
                    names.append(elt.id)
                elif isinstance(elt, ast.Attribute):
                    names.append(elt.attr)
    elif isinstance(value, ast.Dict):
        for key in value.keys:
            name = _const_str(key) if key is not None else None
            if name is not None:
                names.append(name)
    else:
        return None
    return assign, tuple(names)


def _int_constant(ctx: ModuleContext, name: str) -> Optional[int]:
    assign = _module_assign(ctx, name)
    if assign is None:
        return None
    return _eval_int(assign.value)


def _eval_int(node: ast.AST) -> Optional[int]:
    """Evaluate small constant integer arithmetic (``16 * 1024 * 1024``)."""
    if isinstance(node, ast.Constant) and isinstance(node.value, int):
        return node.value
    if isinstance(node, ast.BinOp):
        left = _eval_int(node.left)
        right = _eval_int(node.right)
        if left is None or right is None:
            return None
        if isinstance(node.op, ast.Mult):
            return left * right
        if isinstance(node.op, ast.Add):
            return left + right
        if isinstance(node.op, ast.Sub):
            return left - right
        if isinstance(node.op, ast.Pow):
            return left ** right
        if isinstance(node.op, ast.LShift):
            return left << right
    return None


def _str_list_constant(ctx: ModuleContext, name: str) -> Optional[List[str]]:
    assign = _module_assign(ctx, name)
    if assign is None or not isinstance(assign.value, (ast.Tuple, ast.List)):
        return None
    out: List[str] = []
    for elt in assign.value.elts:
        value = _const_str(elt)
        if value is not None:
            out.append(value)
    return out


def _dataclass_fields(project: FlowProject, module: FlowModule,
                      name: str) -> Optional[List[str]]:
    """Field names of dataclass ``name`` as :func:`dataclasses.fields`
    orders them (base classes first), or None when the class cannot be
    found in the project."""
    cls = project._resolve_class(module, name)
    if cls is None:
        return None
    fields: List[str] = []
    for info in reversed(project._mro(cls)):
        for stmt in info.node.body:
            if (isinstance(stmt, ast.AnnAssign)
                    and isinstance(stmt.target, ast.Name)
                    and stmt.target.id not in fields):
                fields.append(stmt.target.id)
    return fields


def wire_schema(ctx: ModuleContext) -> Optional[Dict[str, Any]]:
    """The codec's schema — the form ``ci/wire-schema.json`` records —
    read from the source of the wire module ``ctx``; None when ``ctx``
    defines no codec registries.

    Dataclass fields come from the class definitions the registry names,
    looked up in the cross-module project around ``ctx``; a class that
    cannot be found has fields None (unknown, never drift).
    """
    errors = _error_registry(ctx)
    dataclasses = _dataclass_registry(ctx)
    if errors is None or dataclasses is None:
        return None
    project = project_for_context(ctx)
    module = next(m for m in project.modules if m.ctx is ctx)
    return {
        "wire_version": _int_constant(ctx, "WIRE_VERSION"),
        "max_frame": _int_constant(ctx, "MAX_FRAME"),
        "envelope_kinds": _str_list_constant(ctx, "ENVELOPE_KINDS"),
        "envelope_fields": _str_list_constant(ctx, "ENVELOPE_FIELDS"),
        "special_forms": _str_list_constant(ctx, "WIRE_SPECIAL_FORMS"),
        "dataclasses": {name: _dataclass_fields(project, module, name)
                        for name in sorted(dataclasses[1])},
        "errors": {name: {"class": cls_name, "attrs": list(attrs)}
                   for name, (cls_name, attrs) in sorted(errors[1].items())},
    }


class SchemaDrift(NamedTuple):
    """One difference between the codec and a committed snapshot."""

    #: "new" (codec only), "removed" (snapshot only) or "changed".
    kind: str
    #: "dataclass", "error", or a scalar snapshot key ("max_frame", ...).
    section: str
    #: Registry entry name; "" for scalar keys.
    name: str
    #: Codec side (None when absent).
    here: Any
    #: Snapshot side (None when absent).
    there: Any


#: Scalar snapshot keys, with the wire-module constant each records.
SCHEMA_SCALARS = (("max_frame", "MAX_FRAME"),
                  ("special_forms", "WIRE_SPECIAL_FORMS"),
                  ("envelope_kinds", "ENVELOPE_KINDS"),
                  ("envelope_fields", "ENVELOPE_FIELDS"))


def schema_drift(here: Dict[str, Any],
                 there: Dict[str, Any]) -> List[SchemaDrift]:
    """Every difference between two schemas except ``wire_version`` (the
    version is what a drift must be accompanied by, not drift itself).
    A dataclass whose fields are unknown on either side matches any
    field list."""
    drift: List[SchemaDrift] = []
    for key, section in (("dataclasses", "dataclass"), ("errors", "error")):
        ours: Dict[str, Any] = here.get(key) or {}
        theirs: Dict[str, Any] = there.get(key) or {}
        for name in sorted(set(ours) - set(theirs)):
            drift.append(SchemaDrift("new", section, name, ours[name], None))
        for name in sorted(set(theirs) - set(ours)):
            drift.append(
                SchemaDrift("removed", section, name, None, theirs[name]))
        for name in sorted(set(ours) & set(theirs)):
            if None not in (ours[name], theirs[name]) \
                    and ours[name] != theirs[name]:
                drift.append(SchemaDrift("changed", section, name,
                                         ours[name], theirs[name]))
    for key, _ in SCHEMA_SCALARS:
        if here.get(key) != there.get(key):
            drift.append(SchemaDrift("changed", key, "", here.get(key),
                                     there.get(key)))
    return drift


# ---------------------------------------------------------------------------
# GEM011

@register_rule
class ExceptionFlowClosure(Rule):
    """Exceptions escaping an RPC surface must be wire-registered, and
    registered classes must decode back into real instances."""

    code = "GEM011"
    summary = ("wire exception registry must cover every exception "
               "escaping an RPC surface, constructibly")

    def check(self, ctx: ModuleContext) -> List[Finding]:
        registry = _error_registry(ctx)
        if registry is None:
            return []
        anchor, entries = registry
        project = project_for_context(ctx)
        findings: List[Finding] = []
        findings.extend(self._check_escapes(ctx, anchor, entries, project))
        findings.extend(
            self._check_constructible(ctx, anchor, entries, project))
        return findings

    # -- escape closure ---------------------------------------------------

    def _check_escapes(self, ctx: ModuleContext, anchor: ast.Assign,
                       entries: Dict[str, Tuple[str, Tuple[str, ...]]],
                       project: FlowProject) -> List[Finding]:
        findings: List[Finding] = []
        registered = set(entries)
        for served in self._served_classes(ctx, project):
            surface = project.resolve_method(served, "handle_request")
            if surface is None:
                continue
            for exc in sorted(surface.raise_set):
                if exc in registered or exc in EXEMPT_ESCAPES:
                    continue
                witness = project.raise_witness.get(exc, "?")
                findings.append(self.finding(
                    ctx, anchor,
                    f"{exc} (raised in {witness}) can escape "
                    f"{served.name}.handle_request but is not in the wire "
                    f"exception registry; remote callers would see an "
                    f"opaque ReproError instead of {exc}"))
        return findings

    def _served_classes(self, ctx: ModuleContext,
                        project: FlowProject) -> List[FlowClass]:
        """Classes whose ``handle_request`` is served over the wire:
        arguments of ``NodeServer(...)`` constructions, falling back to
        every class defining ``handle_request`` in the anchor module."""
        served: Dict[int, FlowClass] = {}
        for module in project.modules:
            if "NodeServer" not in module.classes:
                continue
            for node in ast.walk(module.ctx.tree):
                if not isinstance(node, ast.Call):
                    continue
                if not (isinstance(node.func, ast.Name)
                        and node.func.id == "NodeServer"):
                    continue
                if not node.args:
                    continue
                cls = self._class_of_arg(module.ctx, project, module,
                                         node.args[0])
                if cls is not None:
                    served.setdefault(id(cls), cls)
        if served:
            return list(served.values())
        anchor = next((m for m in project.modules if m.ctx is ctx), None)
        if anchor is None:
            return []
        return [cls for cls in anchor.classes.values()
                if "handle_request" in cls.methods]

    @staticmethod
    def _class_of_arg(ctx: ModuleContext, project: FlowProject,
                      module: Any, arg: ast.expr) -> Optional[FlowClass]:
        name: Optional[str] = None
        if isinstance(arg, ast.Call) and isinstance(arg.func, ast.Name):
            name = arg.func.id
        elif isinstance(arg, ast.Name):
            # Walk the enclosing function for ``arg = SomeClass(...)``.
            owner = enclosing_callable(ctx, arg)
            scope = owner if owner is not None else ctx.tree
            for node in ast.walk(scope):
                if not isinstance(node, ast.Assign):
                    continue
                if not any(isinstance(t, ast.Name) and t.id == arg.id
                           for t in node.targets):
                    continue
                if isinstance(node.value, ast.Call) and \
                        isinstance(node.value.func, ast.Name):
                    name = node.value.func.id
        if name is None:
            return None
        return project._resolve_class(module, name)

    # -- constructibility -------------------------------------------------

    def _check_constructible(
            self, ctx: ModuleContext, anchor: ast.Assign,
            entries: Dict[str, Tuple[str, Tuple[str, ...]]],
            project: FlowProject) -> List[Finding]:
        findings: List[Finding] = []
        anchor_module = next(
            (m for m in project.modules if m.ctx is ctx), None)
        if anchor_module is None:
            return findings
        for reg_name, (cls_name, attrs) in sorted(entries.items()):
            cls = project._resolve_class(anchor_module, cls_name)
            if cls is None:
                findings.append(self.finding(
                    ctx, anchor,
                    f"registered wire error {reg_name!r} names class "
                    f"{cls_name} which is not defined or imported here — "
                    f"decode would fail on the first such error frame"))
                continue
            problem = self._ctor_problem(project, cls, attrs)
            if problem is not None:
                findings.append(self.finding(
                    ctx, anchor,
                    f"registered wire error {reg_name!r} is not "
                    f"constructible from its wire form: {problem}"))
        return findings

    @staticmethod
    def _ctor_problem(project: FlowProject, cls: FlowClass,
                      attrs: Tuple[str, ...]) -> Optional[str]:
        """Why ``cls(*attrs, message=msg)`` / ``cls(msg)`` would break."""
        init = project.resolve_method(cls, "__init__")
        if init is None:
            # Plain Exception.__init__(*args) accepts the message form
            # but silently drops a ``message`` keyword? No — it raises.
            if attrs:
                return (f"no __init__ found for {cls.name}, so decode's "
                        f"{cls.name}(*{list(attrs)}, message=...) call "
                        f"would not bind the registered attributes")
            return None
        args = init.node.args
        params = [a.arg for a in args.args[1:]]
        kwonly = [a.arg for a in args.kwonlyargs]
        if attrs:
            expected = list(attrs)
            if params[:len(attrs)] != expected:
                return (f"__init__ positional parameters {params} do not "
                        f"start with the registered attributes {expected}")
            tail = params[len(attrs):]
            if "message" not in tail and "message" not in kwonly \
                    and args.kwarg is None:
                return (f"__init__ accepts no 'message' keyword, but "
                        f"decode always passes one")
            return None
        required = len(args.args[1:]) - len(args.defaults)
        if required > 1:
            return (f"__init__ requires {required} positional arguments "
                    f"but the wire form supplies only the message")
        return None


# ---------------------------------------------------------------------------
# GEM012

@register_rule
class JournalBeforeAck(Rule):
    """Persistent-entry mutations must hit the journal synchronously,
    before NodeServer can write the reply (the paper's persist-before-
    expose ordering)."""

    code = "GEM012"
    summary = ("journaling cache must append to the journal inside every "
               "mutation hook, before the reply")

    #: The storage hooks through which every persistent-entry mutation
    #: flows; each must be overridden and journaled.
    REQUIRED_HOOKS = ("_store", "_remove", "_recharge")

    def check(self, ctx: ModuleContext) -> List[Finding]:
        findings: List[Finding] = []
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ClassDef):
                methods = {
                    item.name: item for item in node.body
                    if isinstance(item, (ast.FunctionDef,
                                         ast.AsyncFunctionDef))}
                if "_journal_record" in methods:
                    findings.extend(self._check_class(ctx, node, methods))
        return findings

    def _check_class(self, ctx: ModuleContext, cls: ast.ClassDef,
                     methods: Dict[str, ast.AST]) -> List[Finding]:
        findings: List[Finding] = []
        for hook in self.REQUIRED_HOOKS:
            method = methods.get(hook)
            if method is None:
                findings.append(self.finding(
                    ctx, cls,
                    f"journaling cache {cls.name} does not override "
                    f"{hook!r}: the inherited mutation would change "
                    f"persistent entry state without a journal append"))
            elif not self._journals(ctx, method):
                findings.append(self.finding(
                    ctx, method,
                    f"{cls.name}.{hook} mutates persistent entry state "
                    f"without a synchronous self._journal_record(...) "
                    f"append — after a crash the acked write is gone"))
        handler = methods.get("handle_request")
        if handler is not None and not self._journals(ctx, handler):
            findings.append(self.finding(
                ctx, handler,
                f"{cls.name}.handle_request observes configuration state "
                f"but never journals it; a replayed node would regress "
                f"known_config_id"))
        wipe = methods.get("wipe")
        if wipe is not None and not self._touches_journal(ctx, wipe):
            findings.append(self.finding(
                ctx, wipe,
                f"{cls.name}.wipe clears entries but leaves the journal "
                f"intact — replay after the next crash would resurrect "
                f"wiped entries"))
        findings.extend(self._check_deferral(ctx, cls))
        return findings

    @staticmethod
    def _journals(ctx: ModuleContext, method: ast.AST) -> bool:
        for node in ast.walk(method):
            if isinstance(node, ast.Call) and \
                    call_name(node) == "self._journal_record":
                return True
        return False

    @staticmethod
    def _touches_journal(ctx: ModuleContext, method: ast.AST) -> bool:
        for node in ast.walk(method):
            if isinstance(node, ast.Attribute) and \
                    node.attr in ("_journal", "_journal_record"):
                return True
        return False

    def _check_deferral(self, ctx: ModuleContext,
                        cls: ast.ClassDef) -> List[Finding]:
        """``self._journal_record`` passed as a callback (scheduled,
        deferred to a task) runs after the reply: the ack-before-persist
        bug, statically."""
        findings: List[Finding] = []
        for node in ast.walk(cls):
            if not isinstance(node, ast.Attribute):
                continue
            if node.attr != "_journal_record":
                continue
            parent = ctx.parent(node)
            if isinstance(parent, ast.Call) and parent.func is node:
                continue  # a direct, synchronous call — fine
            findings.append(self.finding(
                ctx, node,
                f"{cls.name} hands self._journal_record to a scheduler or "
                f"callback instead of calling it: the journal append "
                f"would run after the reply is sent, breaking "
                f"journal-before-ack"))
        return findings


# ---------------------------------------------------------------------------
# GEM013

@register_rule
class AsyncioDiscipline(Rule):
    """Event-loop hygiene for the live runtime."""

    code = "GEM013"
    summary = ("repro.live event-loop discipline: no blocking calls, "
               "orphaned tasks, unarmed RPCs, or locks across await")

    _TASK_FACTORIES = ("create_task", "ensure_future")

    def check(self, ctx: ModuleContext) -> List[Finding]:
        if not _in_package(ctx.path, _ASYNC_SCOPE):
            return []
        project = single_module_project(ctx)
        module = project.modules[0]
        findings: List[Finding] = []
        reachable = project.async_reachable()
        for func in project.functions:
            entry = reachable.get(func)
            if entry is not None:
                findings.extend(
                    self._check_blocking(ctx, project, module, func, entry))
            findings.extend(
                self._check_fire_and_forget(ctx, project, func))
            findings.extend(self._check_unarmed(ctx, func))
            if func.is_async:
                findings.extend(self._check_locks(ctx, func))
        return findings

    # -- (a) blocking calls on the loop ----------------------------------

    def _check_blocking(self, ctx: ModuleContext, project: FlowProject,
                        module: Any, func: FlowFunction,
                        entry: str) -> List[Finding]:
        findings: List[Finding] = []
        for site in func.call_sites:
            if site.node is None:
                continue
            primitive = project.blocking_primitive(module, site)
            if primitive is None:
                continue
            where = (f"async {func.qualname}" if func.is_async
                     else f"{func.qualname}, reached from async {entry}")
            findings.append(self.finding(
                ctx, site.node,
                f"blocking call {primitive}(...) runs on the event loop "
                f"({where}); every connection served by this process "
                f"stalls behind it"))
        return findings

    # -- (b) fire-and-forget tasks ---------------------------------------

    def _check_fire_and_forget(self, ctx: ModuleContext,
                               project: FlowProject,
                               func: FlowFunction) -> List[Finding]:
        findings: List[Finding] = []
        for site in func.call_sites:
            node = site.node
            if node is None or site.name is None:
                continue
            tail = site.name.split(".")[-1]
            if tail not in self._TASK_FACTORIES:
                continue
            if not self._is_orphaned(ctx, func, node):
                continue
            escaping = self._coroutine_escapes(project, func, node)
            if escaping is None:
                findings.append(self.finding(
                    ctx, node,
                    f"fire-and-forget {tail}(...) on an unresolvable "
                    f"coroutine: any exception it raises is silently "
                    f"dropped — await it, retain the task, or add a "
                    f"done-callback"))
            elif escaping:
                names = ", ".join(sorted(escaping))
                findings.append(self.finding(
                    ctx, node,
                    f"fire-and-forget {tail}(...): {names} escaping the "
                    f"coroutine would be silently dropped — await the "
                    f"task, retain it, or add a done-callback"))
        return findings

    def _is_orphaned(self, ctx: ModuleContext, func: FlowFunction,
                     node: ast.Call) -> bool:
        parent = ctx.parent(node)
        if isinstance(parent, ast.Expr):
            return True
        if isinstance(parent, ast.Assign):
            targets = parent.targets
            if len(targets) == 1 and isinstance(targets[0], ast.Name):
                # Retained only if the name is ever read again.
                name = targets[0].id
                for other in ast.walk(func.node):
                    if isinstance(other, ast.Name) and other.id == name \
                            and isinstance(other.ctx, ast.Load):
                        return False
                return True
            return False  # attribute/tuple target: retained
        return False  # awaited, passed along, or otherwise observed

    def _coroutine_escapes(self, project: FlowProject, func: FlowFunction,
                           node: ast.Call) -> Optional[Set[str]]:
        if not node.args:
            return None
        coro = node.args[0]
        if not isinstance(coro, ast.Call):
            return None
        site = next((s for s in func.call_sites if s.node is coro), None)
        if site is None or not site.targets:
            return None
        escaping: Set[str] = set()
        for target in site.targets:
            escaping |= target.raise_set
        return escaping - EXEMPT_ESCAPES

    # -- (c) unarmed transport futures -----------------------------------

    def _check_unarmed(self, ctx: ModuleContext,
                       func: FlowFunction) -> List[Finding]:
        findings: List[Finding] = []
        for site in func.call_sites:
            node = site.node
            if node is None or site.name is None:
                continue
            segments = site.name.split(".")
            if segments[-1] == "call" and len(segments) > 1:
                base = segments[-2].lower()
                if ("transport" in base or "network" in base) and \
                        not self._has_timeout(node):
                    findings.append(self.finding(
                        ctx, node,
                        f"transport RPC {site.name}(...) without an armed "
                        f"timeout: a dead peer parks this caller forever "
                        f"instead of failing with RequestTimeout"))
            if site.name in ("asyncio.open_connection", "open_connection") \
                    and not self._under_wait_for(ctx, func, node):
                findings.append(self.finding(
                    ctx, node,
                    "await asyncio.open_connection(...) without "
                    "asyncio.wait_for: an unresponsive endpoint hangs "
                    "the connect path indefinitely"))
        return findings

    @staticmethod
    def _has_timeout(node: ast.Call) -> bool:
        return keyword_arg(node, "timeout") is not None or len(node.args) >= 3

    @staticmethod
    def _under_wait_for(ctx: ModuleContext, func: FlowFunction,
                        node: ast.AST) -> bool:
        current = ctx.parent(node)
        while current is not None and current is not func.node:
            if isinstance(current, ast.Call):
                name = call_name(current)
                if name is not None and name.split(".")[-1] == "wait_for":
                    return True
            current = ctx.parent(current)
        return False

    # -- (d) locks across await ------------------------------------------

    def _check_locks(self, ctx: ModuleContext,
                     func: FlowFunction) -> List[Finding]:
        findings: List[Finding] = []
        acquires: List[Tuple[str, ast.Call]] = []
        for site in func.call_sites:
            node = site.node
            if node is None or site.name is None:
                continue
            if site.name.endswith(".acquire"):
                acquires.append((site.name[: -len(".acquire")], node))
        if not acquires:
            return findings
        awaits = [n for n in func.nodes if isinstance(n, ast.Await)]
        for lock, node in acquires:
            if self._released_in_finally(ctx, func, lock, node):
                continue
            releases = [
                n.lineno for n in ast.walk(func.node)
                if isinstance(n, ast.Call)
                and call_name(n) == f"{lock}.release"]
            horizon = min(releases) if releases else float("inf")
            held_across = [a for a in awaits
                           if node.lineno < a.lineno <= horizon]
            if held_across:
                findings.append(self.finding(
                    ctx, node,
                    f"{lock} held across an await without try/finally "
                    f"release: cancellation at the suspension point "
                    f"leaks the lock forever"))
        return findings

    @staticmethod
    def _released_in_finally(ctx: ModuleContext, func: FlowFunction,
                             lock: str, node: ast.AST) -> bool:
        def releases(try_node: ast.Try) -> bool:
            for stmt in try_node.finalbody:
                for inner in ast.walk(stmt):
                    if isinstance(inner, ast.Call) and \
                            call_name(inner) == f"{lock}.release":
                        return True
            return False

        current = ctx.parent(node)
        while current is not None and current is not func.node:
            if isinstance(current, ast.Try) and releases(current):
                return True
            current = ctx.parent(current)
        # Canonical idiom: ``await lock.acquire()`` immediately followed
        # by ``try: ... finally: lock.release()`` — the try is a sibling
        # of the acquire, not an ancestor.
        return any(isinstance(n, ast.Try) and n.lineno >= node.lineno
                   and releases(n) for n in ast.walk(func.node))


# ---------------------------------------------------------------------------
# GEM014

def _wire_dataclass_names(ctx: ModuleContext) -> Optional[Tuple[str, ...]]:
    """Dataclass registry of the wire module governing ``ctx``: the
    module itself if it defines the registries, else the tree's
    ``repro/live/wire.py``."""
    if _error_registry(ctx) is None or _dataclass_registry(ctx) is None:
        root = find_source_root(ctx.path)
        wire = (_disk_context(root / "repro" / "live" / "wire.py")
                if root is not None else None)
        if wire is None or _error_registry(wire) is None:
            return None
        ctx = wire
    registry = _dataclass_registry(ctx)
    return registry[1] if registry is not None else None


def _locate_snapshot(ctx: ModuleContext) -> Optional[Path]:
    try:
        resolved = Path(ctx.path).resolve()
    except OSError:  # pragma: no cover - exotic filesystems
        return None
    for ancestor in resolved.parents:
        candidate = ancestor / "ci" / "wire-schema.json"
        if candidate.is_file():
            return candidate
    return None


@register_rule
class WireSchemaDrift(Rule):
    """The codec registries, the committed schema snapshot, and the
    wire version must move together."""

    code = "GEM014"
    summary = ("wire codec registries must match ci/wire-schema.json; "
               "schema changes require a version bump")

    def check(self, ctx: ModuleContext) -> List[Finding]:
        findings: List[Finding] = []
        findings.extend(self._check_snapshot(ctx))
        findings.extend(self._check_call_sites(ctx))
        return findings

    # -- codec vs snapshot ------------------------------------------------

    def _check_snapshot(self, ctx: ModuleContext) -> List[Finding]:
        schema = wire_schema(ctx)
        if schema is None:
            return []  # not a wire module
        registry = _error_registry(ctx)
        assert registry is not None
        anchor = registry[0]
        snapshot_path = _locate_snapshot(ctx)
        if snapshot_path is None:
            if _in_package(ctx.path, "repro/live"):
                return [self.finding(
                    ctx, anchor,
                    "no ci/wire-schema.json snapshot found for this codec; "
                    "generate one with 'python tools/wire_schema.py "
                    "--write'")]
            return []
        try:
            snapshot = json.loads(
                snapshot_path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return [self.finding(
                ctx, anchor,
                f"unreadable wire-schema snapshot {snapshot_path}; "
                f"regenerate it with 'python tools/wire_schema.py "
                f"--write'")]
        findings: List[Finding] = []
        drift = schema_drift(schema, snapshot)
        version = schema["wire_version"]
        snap_version = snapshot.get("wire_version")
        if drift:
            details = "; ".join(self._describe(d) for d in drift)
            if version == snap_version:
                findings.append(self.finding(
                    ctx, anchor,
                    f"wire codec drifted from ci/wire-schema.json "
                    f"({details}) without a WIRE_VERSION bump — bump the "
                    f"version and regenerate the snapshot with 'python "
                    f"tools/wire_schema.py --write'"))
            else:
                findings.append(self.finding(
                    ctx, anchor,
                    f"wire codec drifted from ci/wire-schema.json "
                    f"({details}); regenerate the snapshot with 'python "
                    f"tools/wire_schema.py --write'"))
        elif version is not None and snap_version is not None \
                and version != snap_version:
            findings.append(self.finding(
                ctx, anchor,
                f"WIRE_VERSION is {version} but ci/wire-schema.json "
                f"records {snap_version}; regenerate the snapshot with "
                f"'python tools/wire_schema.py --write'"))
        return findings

    @staticmethod
    def _describe(drift: SchemaDrift) -> str:
        kind, section, name, here, there = drift
        if not name:
            constant = dict(SCHEMA_SCALARS)[section]
            return f"{constant} {here} != snapshot {there}"
        if kind == "new":
            return f"{section} {name} missing from snapshot"
        if kind == "removed":
            return f"{section} {name} gone from codec"
        if section == "dataclass":
            return f"dataclass {name} fields {here} != snapshot {there}"
        if here["class"] != there.get("class"):
            return (f"error {name} class {here['class']} != snapshot "
                    f"{there.get('class')}")
        return (f"error {name} attrs {here['attrs']} != snapshot "
                f"{there.get('attrs', [])}")

    # -- dataclasses reaching Transport.call ------------------------------

    def _check_call_sites(self, ctx: ModuleContext) -> List[Finding]:
        findings: List[Finding] = []
        names = None
        loaded = False
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            name = call_name(node)
            if name is None or name.split(".")[-1] != "call":
                continue
            if len(node.args) < 2:
                continue
            request = node.args[1]
            if not (isinstance(request, ast.Call)
                    and isinstance(request.func, ast.Name)):
                continue
            type_name = request.func.id
            if not type_name[:1].isupper():
                continue
            if not loaded:
                names = _wire_dataclass_names(ctx)
                loaded = True
            if names is None:
                return findings  # no governing wire module: nothing to say
            if type_name not in names:
                findings.append(self.finding(
                    ctx, request,
                    f"{type_name} crosses Transport.call but is not in "
                    f"the wire codec's dataclass registry; the RPC would "
                    f"die with WireError('cannot encode ...') at runtime"))
        return findings
