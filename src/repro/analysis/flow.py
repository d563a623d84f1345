"""GeminiFlow: the one call graph behind every interprocedural rule.

A :class:`FlowProject` is built from one or more parsed modules. Calls
are resolved through ``self``/``super()`` (walking base classes across
modules), module-level names, imported names, and a class-hierarchy-
analysis fallback for other attribute calls (every known method of that
name is a candidate). One scan per function records what each rule
family needs, and two fixpoints run over the resolved call sites:

* **may-raise sets** — which exception classes can escape a function,
  with ``try/except`` filtering, so GEM011 can close the RPC error
  surface over the wire registry. Unresolvable callees are assumed to
  raise nothing — optimistic, which is the right bias for a closed-world
  escape check: the registry must cover what *our* code deliberately
  raises; stdlib surprises are server bugs that surface as generic error
  envelopes, which ``NodeServer`` already handles.
* **yield/lock summaries** — whether a function *may suspend* (a direct
  ``yield``, or a ``yield from self.<m>()`` into a may-yield method) and
  which locks it acquires (kernel ``.acquire()`` calls and Redlease RPCs,
  also through ``yield from self.<m>()``), for GEM007-GEM009. A ``yield
  from`` into anything but a resolvable ``self`` method conservatively
  may suspend.

The scan is also the one answer to "which nodes belong to this
function": :attr:`FlowFunction.nodes` lists them (a nested ``def`` or
``async def`` is listed, its body belongs to the nested function), and
the per-function rules (GEM002-GEM009, GEM013) read that list instead
of walking the AST themselves. A rule that wants closures folded in
iterates :meth:`FlowFunction.within`.

The graph also answers **may-block** questions (which functions reach a
blocking primitive from the event loop, GEM013) and gives GEM003 its
``self.<m>()`` edges.

Like everything in geminilint the pass is lexical: only explicit
``raise SomeError(...)`` statements seed the may-raise sets, and a
summary describes the function's source, not a path-sensitive
execution. The runtime sanitizer owns the dynamic version.
"""

from __future__ import annotations

import ast
import builtins
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import (Dict, Iterable, Iterator, List, Optional, Sequence, Set,
                    Tuple, Union)

from repro.analysis.core import (CALLABLE_DEFS, ModuleContext, call_name,
                                 enclosing_callable, op_of_call)

__all__ = [
    "FlowFunction",
    "FlowClass",
    "FlowModule",
    "FlowProject",
    "DEFAULT_PROJECT_MODULES",
    "enclosing_callable",
    "project_for_context",
    "single_module_project",
]

#: Escapes that are never wire-registry material: contract violations
#: and control-flow exceptions, not protocol errors a caller retries on.
EXEMPT_ESCAPES = frozenset({
    "NotImplementedError", "AssertionError", "KeyboardInterrupt",
    "SystemExit", "StopIteration", "StopAsyncIteration", "GeneratorExit",
    "CancelledError",
})

#: Modules loaded (relative to the source root) when a project is built
#: for the real tree: the live runtime plus every protocol layer its RPC
#: surfaces dispatch into. Missing files are skipped so the analysis
#: degrades gracefully on partial checkouts.
DEFAULT_PROJECT_MODULES: Tuple[str, ...] = (
    "repro/errors.py",
    "repro/types.py",
    "repro/live/wire.py",
    "repro/live/node.py",
    "repro/live/transport.py",
    "repro/live/kernel.py",
    "repro/cache/instance.py",
    "repro/cache/leases.py",
    "repro/cache/dirtylist.py",
    "repro/config/configuration.py",
    "repro/coordinator/coordinator.py",
    "repro/coordinator/membership.py",
    "repro/coordinator/shadow.py",
    "repro/datastore/store.py",
    "repro/recovery/policies.py",
    "repro/verify/events.py",
)

#: Marker for a bare ``except:`` (catches everything).
CATCH_ALL = "*"

#: Calls that block the thread they run on. Bare names are builtins;
#: dotted names are matched after expanding import aliases.
_BLOCKING_CALLS = frozenset({
    "open", "input", "time.sleep", "os.system", "os.popen",
    "socket.create_connection", "urllib.request.urlopen",
})
_BLOCKING_PREFIXES = ("subprocess.",)

#: RPC ops that acquire / release the Redlease. All Redleases share one
#: lock node: two leases on different fragments are interchangeable
#: instances of the same lock class, so nesting any two of them is an
#: ordering hazard regardless of which fragments they cover.
RED_ACQUIRE_OPS = frozenset({"red_acquire"})
RED_RELEASE_OPS = frozenset({"red_release"})
RED_LOCK = "redlease"

#: One lock event: (line, col, kind, lock). ``kind`` is "acquire",
#: "release", or "call:<method>" for ``yield from self.<method>()``.
LockEvent = Tuple[int, int, str, str]


@dataclass(eq=False)
class FlowFunction:
    """One ``def``/``async def`` plus its flow summary."""

    qualname: str
    module: "FlowModule"
    class_name: str
    node: Union[ast.FunctionDef, ast.AsyncFunctionDef]
    is_async: bool = False
    #: Functions defined directly inside this one.
    inner: List["FlowFunction"] = field(default_factory=list)
    #: Every node this function owns, in :func:`ast.walk` order: a
    #: nested ``def``/``async def`` is listed, its insides are not.
    nodes: List[ast.AST] = field(default_factory=list)
    #: ``(exception name, guards)`` for each explicit raise; guards are
    #: the handler-name tuples of every enclosing ``try`` body.
    direct_raises: List[Tuple[str, Tuple[Tuple[str, ...], ...]]] = field(
        default_factory=list)
    call_sites: List["CallSite"] = field(default_factory=list)
    #: A literal ``yield <expr>`` (always a suspension point).
    direct_yield: bool = False
    #: Each ``yield from``, with the call site of its ``self.<m>(...)``
    #: callee (None for any other delegation target).
    yield_froms: Dict[ast.YieldFrom, Optional["CallSite"]] = field(
        default_factory=dict)
    #: Lock events in source order.
    lock_events: List[LockEvent] = field(default_factory=list)
    #: Post-fixpoint: exception names that may escape this function.
    raise_set: Set[str] = field(default_factory=set)
    #: Post-fixpoint: the function may suspend.
    may_yield: bool = False
    #: Post-fixpoint: every lock this function (or a method it enters
    #: via ``yield from self.<m>()``) acquires.
    acquires: Set[str] = field(default_factory=set)

    @property
    def is_generator(self) -> bool:
        """True when the function has a ``yield`` of its own."""
        return self.direct_yield or bool(self.yield_froms)

    def within(self) -> Iterator["FlowFunction"]:
        """This function and every function nested inside it."""
        yield self
        for inner in self.inner:
            yield from inner.within()

    def suspends(self, node: ast.AST) -> bool:
        """Does this ``yield``/``yield from`` (one of :attr:`nodes`) suspend?

        A bare ``yield`` always does. ``yield from self.m()`` suspends
        only if ``m`` may yield — delegating into a non-yielding helper
        runs it to completion synchronously.
        """
        if isinstance(node, ast.Yield):
            return True
        if isinstance(node, ast.YieldFrom):
            site = self.yield_froms.get(node)
            return site is None or not site.targets or any(
                target.may_yield for target in site.targets)
        return False


@dataclass
class CallSite:
    """One call expression, with resolution filled in project-wide.

    ``node`` is None for implicit edges (the getattr dispatch inside
    ``handle_request``) that have no single source location.
    """

    node: Optional[ast.Call]
    name: Optional[str]
    guards: Tuple[Tuple[str, ...], ...]
    targets: List[FlowFunction] = field(default_factory=list)

    @property
    def self_method(self) -> Optional[str]:
        """``m`` for a ``self.m(...)`` call, else None."""
        if self.name is not None and self.name.startswith("self.") \
                and self.name.count(".") == 1:
            return self.name[len("self."):]
        return None


@dataclass(eq=False)
class FlowClass:
    """One class definition and its method table (the ``def``s and
    ``async def``s written in its body; the first of a name wins)."""

    name: str
    module: "FlowModule"
    node: ast.ClassDef
    bases: List[str] = field(default_factory=list)
    methods: Dict[str, FlowFunction] = field(default_factory=dict)


class FlowModule:
    """Per-module symbol tables feeding a :class:`FlowProject`."""

    def __init__(self, ctx: ModuleContext) -> None:
        self.ctx = ctx
        self.path = ctx.path
        self.classes: Dict[str, FlowClass] = {}
        self.funcs: Dict[str, FlowFunction] = {}
        self.functions: List[FlowFunction] = []
        self.by_node: Dict[ast.AST, FlowFunction] = {}
        #: ``from X import Y as Z`` -> {"Z": "Y"} (original name).
        self.imports: Dict[str, str] = {}
        #: ``import X as Y`` -> {"Y": "X"} (dotted module).
        self.module_aliases: Dict[str, str] = {}
        self._collect()

    def _collect(self) -> None:
        callables: List[ast.AST] = []
        for node in ast.walk(self.ctx.tree):
            if isinstance(node, CALLABLE_DEFS):
                callables.append(node)
            elif isinstance(node, ast.ImportFrom) and node.module:
                for alias in node.names:
                    self.imports[alias.asname or alias.name] = alias.name
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    self.module_aliases[
                        alias.asname or alias.name.split(".")[0]] = alias.name
            elif isinstance(node, ast.ClassDef):
                info = FlowClass(name=node.name, module=self, node=node)
                for base in node.bases:
                    name = _last_segment(base)
                    if name:
                        info.bases.append(name)
                self.classes[node.name] = info
        for node in callables:
            cls = self.ctx.enclosing_class(node)
            class_name = cls.name if cls is not None else ""
            qualname = (f"{class_name}.{node.name}" if class_name
                        else node.name)
            func = FlowFunction(
                qualname=qualname, module=self, class_name=class_name,
                node=node, is_async=isinstance(node, ast.AsyncFunctionDef))
            self.functions.append(func)
            self.by_node[node] = func
            outer = enclosing_callable(self.ctx, node)
            if outer is not None:
                self.by_node[outer].inner.append(func)
            if cls is not None and self.ctx.parent(node) is cls:
                self.classes[class_name].methods.setdefault(node.name, func)
            elif not class_name and outer is None:
                self.funcs.setdefault(node.name, func)

    def expand(self, name: str) -> str:
        """Expand import aliases at the front of a dotted name."""
        head, _, rest = name.partition(".")
        if head in self.module_aliases:
            head = self.module_aliases[head]
        elif head in self.imports:
            head = self.imports[head]
        return f"{head}.{rest}" if rest else head


class FlowProject:
    """Cross-module call graph with may-raise / may-block fixpoints."""

    def __init__(self, contexts: Sequence[ModuleContext]) -> None:
        self.modules: List[FlowModule] = [FlowModule(c) for c in contexts]
        self.class_index: Dict[str, FlowClass] = {}
        self.global_funcs: Dict[str, List[FlowFunction]] = {}
        self.methods_by_name: Dict[str, List[FlowFunction]] = {}
        #: class name -> base-class names, for the catch-subsumption test.
        self.class_bases: Dict[str, Tuple[str, ...]] = {}
        #: exception name -> qualname of one function that raises it.
        self.raise_witness: Dict[str, str] = {}
        self._supers_cache: Dict[str, Set[str]] = {}
        for module in self.modules:
            for name, cls in module.classes.items():
                self.class_index.setdefault(name, cls)
                self.class_bases.setdefault(name, tuple(cls.bases))
                for mname, func in cls.methods.items():
                    self.methods_by_name.setdefault(mname, []).append(func)
            for name, func in module.funcs.items():
                self.global_funcs.setdefault(name, []).append(func)
        self.functions: List[FlowFunction] = [
            f for m in self.modules for f in m.functions]
        for func in self.functions:
            self._scan(func)
        for func in self.functions:
            self._resolve_sites(func)
        self._add_dispatch_edges()
        self._fixpoint_raises()
        self._fixpoint_yields()

    # -- scanning ---------------------------------------------------------

    def _scan(self, func: FlowFunction) -> None:
        todo = deque(ast.iter_child_nodes(func.node))
        while todo:
            node = todo.popleft()
            func.nodes.append(node)
            if not isinstance(node, CALLABLE_DEFS):
                todo.extend(ast.iter_child_nodes(node))
        yield_froms: List[ast.YieldFrom] = []
        for node in func.nodes:
            if isinstance(node, ast.Raise):
                self._scan_raise(func, node)
            elif isinstance(node, ast.Call):
                func.call_sites.append(CallSite(
                    node=node, name=call_name(node),
                    guards=self._guards(func, node)))
                event = _lock_event(node, func.class_name)
                if event is not None:
                    func.lock_events.append(
                        (node.lineno, node.col_offset) + event)
            elif isinstance(node, ast.Yield):
                func.direct_yield = True
            elif isinstance(node, ast.YieldFrom):
                yield_froms.append(node)
        sites = {site.node: site for site in func.call_sites}
        for node in yield_froms:
            site = (sites.get(node.value)
                    if isinstance(node.value, ast.Call) else None)
            callee = site.self_method if site is not None else None
            func.yield_froms[node] = site if callee is not None else None
            if callee is not None:
                func.lock_events.append(
                    (node.lineno, node.col_offset, f"call:{callee}", ""))
        func.lock_events.sort(key=lambda e: (e[0], e[1]))

    def _scan_raise(self, func: FlowFunction, node: ast.Raise) -> None:
        guards = self._guards(func, node)
        names: List[str] = []
        exc = node.exc
        if exc is None:
            # Bare ``raise`` re-raises whatever the enclosing handler
            # caught; its guard walk already excludes that handler's own
            # ``try`` (the raise sits in the handler body, not the try
            # body), so outer handlers still filter it.
            handler = self._enclosing_handler(func, node)
            if handler is not None:
                names = [n for n in _handler_type_names(handler)
                         if n != CATCH_ALL]
        else:
            target = exc.func if isinstance(exc, ast.Call) else exc
            name = _last_segment(target)
            if name and name[:1].isupper():
                names = [name]
            elif name:
                # ``raise err`` re-raising a captured variable: treat it
                # as the catching handler's types if we can see them.
                handler = self._enclosing_handler(func, node)
                if handler is not None and handler.name == name:
                    names = [n for n in _handler_type_names(handler)
                             if n != CATCH_ALL]
        for name in names:
            func.direct_raises.append((name, guards))
            self.raise_witness.setdefault(name, func.qualname)

    def _guards(self, func: FlowFunction,
                node: ast.AST) -> Tuple[Tuple[str, ...], ...]:
        """Handler-name tuples of every ``try`` whose *body* holds node."""
        ctx = func.module.ctx
        guards: List[Tuple[str, ...]] = []
        child: ast.AST = node
        current = ctx.parent(node)
        while current is not None and current is not func.node:
            if isinstance(current, ast.Try) and \
                    any(child is stmt for stmt in current.body):
                names = _try_handler_names(current)
                if names:
                    guards.append(names)
            child = current
            current = ctx.parent(current)
        return tuple(guards)

    def _enclosing_handler(self, func: FlowFunction,
                           node: ast.AST) -> Optional[ast.ExceptHandler]:
        ctx = func.module.ctx
        current = ctx.parent(node)
        while current is not None and current is not func.node:
            if isinstance(current, ast.ExceptHandler):
                return current
            current = ctx.parent(current)
        return None

    # -- resolution -------------------------------------------------------

    def _resolve_sites(self, func: FlowFunction) -> None:
        for site in func.call_sites:
            site.targets = self._resolve_call(func, site)

    def _add_dispatch_edges(self) -> None:
        """Implicit call edges for the getattr op dispatch.

        ``handle_request`` dispatches via ``getattr(self, f"op_{..}")``,
        which no lexical resolution sees. For every class, resolve its
        ``handle_request`` along the MRO; when that body really contains
        a ``getattr`` dispatch, link it to every ``op_*`` method the
        class can reach — including subclass overrides, since ``self``
        may be any subclass at runtime. A class whose ``handle_request``
        calls its ops lexically gets no synthetic edges (the lexical
        sites, with their try/except guards, already cover it).
        """
        for module in self.modules:
            for cls in module.classes.values():
                surface = self.resolve_method(cls, "handle_request")
                if surface is None:
                    continue
                guards = self._dispatch_guards(surface)
                if guards is None:
                    continue
                existing = {id(t) for s in surface.call_sites
                            for t in s.targets}
                for target in self._op_methods(cls):
                    if id(target) in existing:
                        continue
                    surface.call_sites.append(CallSite(
                        node=None, name=f"self.{target.node.name}",
                        guards=guards, targets=[target]))

    def _dispatch_guards(
            self, func: FlowFunction
    ) -> Optional[Tuple[Tuple[str, ...], ...]]:
        """The try/except context of the ``getattr(self, ...)`` dispatch
        site, so a handler-side catch around the dispatch filters op
        escapes like any other call; None when the body has no getattr
        dispatch at all."""
        for node in ast.walk(func.node):
            if isinstance(node, ast.Call) and \
                    isinstance(node.func, ast.Name) and \
                    node.func.id == "getattr":
                return self._guards(func, node)
        return None

    def _op_methods(self, cls: FlowClass) -> List[FlowFunction]:
        out: Dict[str, FlowFunction] = {}
        for info in self._mro(cls):
            for name, func in info.methods.items():
                if name.startswith("op_"):
                    out.setdefault(name, func)
        return list(out.values())

    def _mro(self, cls: FlowClass) -> List[FlowClass]:
        """Approximate linearization: BFS over declared bases."""
        out: List[FlowClass] = []
        seen: Set[int] = set()
        queue = [cls]
        while queue:
            info = queue.pop(0)
            if id(info) in seen:
                continue
            seen.add(id(info))
            out.append(info)
            for base in info.bases:
                resolved = self._resolve_class(info.module, base)
                if resolved is not None:
                    queue.append(resolved)
        return out

    def _resolve_class(self, module: FlowModule,
                       name: str) -> Optional[FlowClass]:
        if name in module.classes:
            return module.classes[name]
        original = module.imports.get(name, name)
        return self.class_index.get(original.split(".")[-1])

    def resolve_method(self, cls: FlowClass,
                       name: str) -> Optional[FlowFunction]:
        """First definition of ``name`` along the (approximate) MRO."""
        for info in self._mro(cls):
            if name in info.methods:
                return info.methods[name]
        return None

    def _resolve_call(self, func: FlowFunction,
                      site: CallSite) -> List[FlowFunction]:
        node = site.node
        # super().m(...): start the lookup at the base classes.
        if (isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Call)
                and isinstance(node.func.value.func, ast.Name)
                and node.func.value.func.id == "super"):
            owner = func.module.classes.get(func.class_name)
            if owner is None:
                return []
            for base in owner.bases:
                resolved = self._resolve_class(func.module, base)
                if resolved is not None:
                    target = self.resolve_method(resolved, node.func.attr)
                    if target is not None:
                        return [target]
            return []
        name = site.name
        if name is None:
            return []
        method = site.self_method
        if method is not None:
            owner = func.module.classes.get(func.class_name)
            if owner is None:
                return []
            target = self.resolve_method(owner, method)
            return [target] if target is not None else []
        segments = name.split(".")
        if len(segments) == 1:
            return self._resolve_bare(func.module, segments[0])
        # Attribute call on something we cannot type: class-hierarchy
        # analysis over every known method (and module function) of that
        # name. Dunder noise is excluded.
        attr = segments[-1]
        if attr.startswith("__"):
            return []
        candidates = list(self.methods_by_name.get(attr, ()))
        candidates.extend(self.global_funcs.get(attr, ()))
        return candidates

    def _resolve_bare(self, module: FlowModule,
                      name: str) -> List[FlowFunction]:
        if name in module.funcs:
            return [module.funcs[name]]
        cls = self._resolve_class(module, name)
        if cls is not None:
            init = self.resolve_method(cls, "__init__")
            return [init] if init is not None else []
        original = module.imports.get(name)
        if original is not None:
            return list(self.global_funcs.get(original.split(".")[-1], ()))
        return []

    # -- may-raise fixpoint ----------------------------------------------

    def _fixpoint_raises(self) -> None:
        for func in self.functions:
            func.raise_set = {
                name for name, guards in func.direct_raises
                if not self._caught(name, guards)}
        changed = True
        while changed:
            changed = False
            for func in self.functions:
                for site in func.call_sites:
                    incoming: Set[str] = set()
                    for target in site.targets:
                        incoming |= target.raise_set
                    escaped = {name for name in incoming
                               if not self._caught(name, site.guards)}
                    if not escaped <= func.raise_set:
                        func.raise_set |= escaped
                        changed = True

    def _caught(self, exc: str,
                guards: Tuple[Tuple[str, ...], ...]) -> bool:
        for handler_names in guards:
            if CATCH_ALL in handler_names:
                return True
            supers = self._supers(exc)
            if any(name in supers for name in handler_names):
                return True
        return False

    def _supers(self, exc: str) -> Set[str]:
        """``exc`` plus every ancestor class name (project + builtin)."""
        cached = self._supers_cache.get(exc)
        if cached is not None:
            return cached
        seen: Set[str] = set()
        stack = [exc]
        while stack:
            name = stack.pop()
            if name in seen:
                continue
            seen.add(name)
            if name in self.class_bases:
                stack.extend(self.class_bases[name])
            else:
                resolved = getattr(builtins, name, None)
                if isinstance(resolved, type):
                    seen.update(c.__name__ for c in resolved.__mro__)
        if seen == {exc} and exc not in self.class_bases:
            # Unknown class: assume an ordinary Exception subclass so a
            # broad handler still counts as catching it.
            seen |= {"Exception", "BaseException"}
        self._supers_cache[exc] = seen
        return seen

    # -- may-yield / lock fixpoint ----------------------------------------

    def _fixpoint_yields(self) -> None:
        """Propagate may-yield and acquired locks up ``yield from
        self.<m>()`` edges; any other ``yield from`` may suspend."""
        for func in self.functions:
            func.may_yield = func.direct_yield or any(
                site is None or not site.targets
                for site in func.yield_froms.values())
            func.acquires = {lock for (_, __, kind, lock) in func.lock_events
                             if kind == "acquire"}
        changed = True
        while changed:
            changed = False
            for func in self.functions:
                for site in func.yield_froms.values():
                    for target in site.targets if site is not None else ():
                        if target.may_yield and not func.may_yield:
                            func.may_yield = True
                            changed = True
                        if not target.acquires <= func.acquires:
                            func.acquires |= target.acquires
                            changed = True

    # -- may-block --------------------------------------------------------

    def blocking_primitive(self, module: FlowModule,
                           site: CallSite) -> Optional[str]:
        """The blocking call this site performs directly, or None."""
        if site.name is None:
            return None
        expanded = module.expand(site.name)
        if expanded in _BLOCKING_CALLS:
            return expanded
        if expanded.startswith(_BLOCKING_PREFIXES):
            return expanded
        if expanded.endswith(".open") and not expanded.startswith("self."):
            return expanded
        return None

    def async_reachable(self) -> Dict[FlowFunction, str]:
        """Functions that run on the event loop: every ``async def``
        plus everything reachable from one through resolvable calls.
        Maps each function to the qualname of an async entry point."""
        reached: Dict[FlowFunction, str] = {
            f: f.qualname for f in self.functions if f.is_async}
        frontier = list(reached)
        while frontier:
            func = frontier.pop()
            entry = reached[func]
            for site in func.call_sites:
                for target in site.targets:
                    if target not in reached:
                        reached[target] = entry
                        frontier.append(target)
        return reached


# ---------------------------------------------------------------------------
# project construction helpers

#: Parsed disk modules, keyed by absolute path (stable within one run).
_DISK_CACHE: Dict[str, ModuleContext] = {}


def _disk_context(path: Path) -> Optional[ModuleContext]:
    key = str(path)
    if key in _DISK_CACHE:
        return _DISK_CACHE[key]
    try:
        source = path.read_text(encoding="utf-8")
        tree = ast.parse(source, filename=key)
    except (OSError, SyntaxError):
        return None
    ctx = ModuleContext(path=key, source=source, tree=tree)
    _DISK_CACHE[key] = ctx
    return ctx


def find_source_root(path: str) -> Optional[Path]:
    """The directory containing ``repro/errors.py``, walking up from
    ``path``; None when the file is not inside a real source tree."""
    try:
        resolved = Path(path).resolve()
    except OSError:  # pragma: no cover - exotic filesystems
        return None
    for ancestor in resolved.parents:
        if (ancestor / "repro" / "errors.py").is_file():
            return ancestor
    return None


def single_module_project(ctx: ModuleContext) -> FlowProject:
    """A project over just ``ctx`` (fixtures, per-module rules)."""
    cached = getattr(ctx, "_flow_single", None)
    if cached is None:
        cached = FlowProject([ctx])
        ctx._flow_single = cached  # type: ignore[attr-defined]
    return cached


def project_for_context(
        ctx: ModuleContext,
        modules: Iterable[str] = DEFAULT_PROJECT_MODULES) -> FlowProject:
    """The cross-module project anchored at ``ctx``.

    When ``ctx`` sits inside a real source tree, the default module set
    is loaded from disk around it — except the anchor module itself,
    whose (possibly modified) in-memory source wins, so historical-bug
    reverts analyze the reverted text against the real tree. Outside a
    tree this degrades to a single-module project.
    """
    cached = getattr(ctx, "_flow_project", None)
    if cached is not None:
        return cached
    root = find_source_root(ctx.path)
    contexts: List[ModuleContext] = [ctx]
    if root is not None:
        try:
            anchor = Path(ctx.path).resolve()
        except OSError:  # pragma: no cover - exotic filesystems
            anchor = Path(ctx.path)
        for relative in modules:
            path = root / relative
            if path == anchor:
                continue
            loaded = _disk_context(path)
            if loaded is not None:
                contexts.append(loaded)
    project = FlowProject(contexts)
    ctx._flow_project = project  # type: ignore[attr-defined]
    return project


# ---------------------------------------------------------------------------
# small AST helpers

def _lock_event(call: ast.Call, class_name: str) -> Optional[Tuple[str, str]]:
    """``(kind, lock)`` when ``call`` acquires or releases a lock.

    ``self._lock.acquire()`` inside class C becomes lock ``C._lock`` so
    the same attribute on different classes stays distinct; Redlease
    RPCs all map to the one :data:`RED_LOCK`.
    """
    op = op_of_call(call)
    if op in RED_ACQUIRE_OPS:
        return "acquire", RED_LOCK
    if op in RED_RELEASE_OPS:
        return "release", RED_LOCK
    name = call_name(call)
    if name is None:
        return None
    base, _, kind = name.rpartition(".")
    if not base or kind not in ("acquire", "release"):
        return None
    if base.startswith("self."):
        base = f"{class_name}.{base[len('self.'):]}"
    return kind, base


def _last_segment(node: ast.AST) -> Optional[str]:
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


def _handler_type_names(handler: ast.ExceptHandler) -> Tuple[str, ...]:
    if handler.type is None:
        return (CATCH_ALL,)
    if isinstance(handler.type, ast.Tuple):
        names = [_last_segment(e) for e in handler.type.elts]
        return tuple(n for n in names if n)
    name = _last_segment(handler.type)
    return (name,) if name else (CATCH_ALL,)


def _try_handler_names(node: ast.Try) -> Tuple[str, ...]:
    names: List[str] = []
    for handler in node.handlers:
        names.extend(_handler_type_names(handler))
    return tuple(names)
