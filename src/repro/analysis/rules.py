"""The GEM rule set.

Each rule encodes a discipline this repository has already paid for
violating (CHANGES.md): GEM004 is PR 1's cross-replica stale-read
resurrection (an unstamped Rejig config id on an RPC path), GEM005 is
PR 2's split-brain (a coordinator callback mutating state without a
liveness check), GEM001/GEM002 are what keep the deterministic sim
kernel deterministic, GEM003 is the Redlease discipline recovery
workers rely on, and GEM006 keeps the chaos engine's invariant
checkers fed.

Rules are lexical/AST-level by design: they gate on structural markers
(class names, helper-method shapes, op-name string constants) so the
same rule fires on fixture snippets and on minimally reverted versions
of the historical bugs (tests/analysis/test_historical_bugs.py).
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, List, Optional, Set, Tuple

from repro.analysis.core import (
    Finding,
    ModuleContext,
    Rule,
    call_name,
    dotted_name,
    op_of_call,
    register_rule,
    walk_in_function,
)
from repro.analysis.flow import single_module_project

__all__ = [
    "WallClockAndGlobalRandomness",
    "UnawaitedSimPrimitive",
    "UnguardedDirtyMutation",
    "SessionConfigStamp",
    "LivenessGuard",
    "MissingProtocolEvent",
    "ProtocolLayering",
    "DanglingAllowance",
    "WALL_CLOCK_ALLOWED",
    "ALLOWANCES",
]

#: Packages exempt from the GEM001 wall-clock ban, with the justification
#: an inline suppression would otherwise carry per call site. Keep this
#: list short and argued: an entry here hands a whole package the right
#: to real time.
WALL_CLOCK_ALLOWED: Dict[str, str] = {
    "repro/live": (
        "the wall-clock half of the dual runtime: real timers, sockets "
        "and epoch stamps are its contract, and GEM010 keeps it from "
        "leaking back into protocol code"),
    "tests": (
        "unit tests seed local Randoms and stamp wall time deliberately "
        "(timeouts, tmp files); determinism is enforced on src/ where "
        "the kernel lives"),
}

#: Per-rule package allowances, applied centrally by the driver after
#: rules run (:func:`repro.analysis.core.analyze_source`). The outer key
#: is the rule code; the inner map is ``package fragment -> why the
#: whole package is exempt``. Same contract as WALL_CLOCK_ALLOWED (which
#: is the GEM001 entry): keep entries few and argued, and delete them
#: when the package goes away — GEM000 reports dangling entries.
ALLOWANCES: Dict[str, Dict[str, str]] = {
    "GEM001": WALL_CLOCK_ALLOWED,
    "GEM002": {
        "tests/sim": (
            "kernel unit tests construct events/timeouts to probe their "
            "state machines, not to wait on them"),
    },
    "GEM008": {
        "tests/sim": (
            "sanitizer tests mint deliberately inverted acquisition "
            "orders as the unit under test"),
        "tests/cache": (
            "lease tests drive acquire/release sequences out of order "
            "on purpose to assert the conflict paths"),
    },
    "GEM009": {
        "tests/cache": (
            "dirty-list tests construct marked lists directly as the "
            "unit under test; there is no protocol episode to scope "
            "them to"),
    },
}


def _in_package(path: str, package: str) -> bool:
    """Is ``path`` inside ``package`` (a posix fragment like
    ``repro/live``)? Robust to absolute paths, ``src/`` prefixes, and
    Windows separators."""
    normalized = "/" + path.replace("\\", "/")
    return f"/{package}/" in normalized


def _method_map(cls: ast.ClassDef) -> Dict[str, ast.FunctionDef]:
    return {node.name: node for node in cls.body
            if isinstance(node, ast.FunctionDef)}


# ----------------------------------------------------------------------
@register_rule
class WallClockAndGlobalRandomness(Rule):
    """GEM001: no wall-clock time, no global/module-level randomness.

    Simulated components must take time from ``sim.now`` and randomness
    from an injected :class:`random.Random` stream handed out by
    :class:`~repro.sim.rng.RngRegistry`. Calling the ``random`` module's
    functions consumes the interpreter-global stream (perturbed by
    import order and unrelated consumers), and constructing
    ``random.Random(...)`` ad hoc scatters seed derivation across the
    tree — both break the byte-for-byte TrialResult fingerprints the
    chaos engine's replay files depend on (docs/DETERMINISM.md).
    """

    code = "GEM001"
    summary = ("wall-clock time or global randomness in simulated code "
               "(use the sim clock / RngRegistry streams)")

    _CLOCK_MODULES = {"time", "datetime"}
    _CLOCK_CALLS = {
        "time.time", "time.monotonic", "time.perf_counter",
        "time.process_time", "time.time_ns", "time.monotonic_ns",
        "time.sleep",
        "datetime.now", "datetime.utcnow", "datetime.today",
        "datetime.datetime.now", "datetime.datetime.utcnow",
        "date.today", "datetime.date.today",
    }
    #: random-module functions that draw from the global stream.
    _GLOBAL_RANDOM = {
        "random", "randint", "randrange", "choice", "choices", "shuffle",
        "sample", "uniform", "seed", "getrandbits", "expovariate",
        "lognormvariate", "gauss", "normalvariate", "betavariate",
        "triangular", "vonmisesvariate", "paretovariate", "weibullvariate",
        "randbytes",
    }

    def check(self, ctx: ModuleContext) -> List[Finding]:
        if any(_in_package(ctx.path, package)
               for package in WALL_CLOCK_ALLOWED):
            return []
        findings: List[Finding] = []
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    root = alias.name.split(".")[0]
                    if root in self._CLOCK_MODULES:
                        findings.append(self.finding(
                            ctx, node,
                            f"import of wall-clock module {alias.name!r}; "
                            f"simulated code must take time from the "
                            f"simulator clock (sim.now)"))
            elif isinstance(node, ast.ImportFrom):
                root = (node.module or "").split(".")[0]
                if root in self._CLOCK_MODULES:
                    findings.append(self.finding(
                        ctx, node,
                        f"import from wall-clock module {node.module!r}; "
                        f"simulated code must take time from the "
                        f"simulator clock (sim.now)"))
            elif isinstance(node, ast.Call):
                findings.extend(self._check_call(ctx, node))
        return findings

    def _check_call(self, ctx: ModuleContext,
                    node: ast.Call) -> List[Finding]:
        name = call_name(node)
        if name is None:
            return []
        if name in self._CLOCK_CALLS:
            return [self.finding(
                ctx, node,
                f"wall-clock call {name}(); use the simulator clock")]
        parts = name.split(".")
        if parts[0] != "random" or len(parts) != 2:
            return []
        if parts[1] in self._GLOBAL_RANDOM:
            return [self.finding(
                ctx, node,
                f"global randomness {name}(); draw from an injected "
                f"random.Random stream (RngRegistry.stream)")]
        if parts[1] in ("Random", "SystemRandom"):
            return [self.finding(
                ctx, node,
                f"ad-hoc {name}(...) construction; streams must come "
                f"from RngRegistry so seeds derive from the experiment "
                f"seed")]
        return []


# ----------------------------------------------------------------------
@register_rule
class UnawaitedSimPrimitive(Rule):
    """GEM002: a sim waitable created but never consumed.

    ``sim.timeout(...)``, ``sim.event()``, ``sim.all_of/any_of(...)``
    (or the bare ``Timeout``/``Event``/``AllOf``/``AnyOf`` constructors)
    and RPCs issued via ``network.call(...)`` return events that do
    nothing until a process yields them. Creating one as a bare
    statement — or binding it to a variable that is never read — is a
    silently dropped wait: the code continues immediately and the
    intended delay/response is lost. ``sim.process(...)`` is exempt
    (spawning is fire-and-forget by design).
    """

    code = "GEM002"
    summary = "sim primitive / RPC created but never yielded or used"

    _FACTORY_ATTRS = {"timeout", "event", "all_of", "any_of"}
    _CONSTRUCTORS = {"Timeout", "Event", "AllOf", "AnyOf"}

    def _is_waitable_factory(self, call: ast.Call) -> Optional[str]:
        name = call_name(call)
        if name is None:
            return None
        parts = name.split(".")
        if name in self._CONSTRUCTORS:
            return name
        if len(parts) >= 2 and parts[-1] in self._FACTORY_ATTRS \
                and "sim" in parts[:-1]:
            return name
        if parts[-1] == "call" and any("network" in p for p in parts[:-1]):
            return name
        return None

    def check(self, ctx: ModuleContext) -> List[Finding]:
        findings: List[Finding] = []
        for func in single_module_project(ctx).modules[0].functions:
            if isinstance(func.node, ast.FunctionDef):
                findings.extend(self._check_function(ctx, func.node))
        return findings

    def _check_function(self, ctx: ModuleContext,
                        func: ast.FunctionDef) -> List[Finding]:
        findings: List[Finding] = []
        # (a) bare expression statements dropping a waitable
        for stmt in walk_in_function(func, (ast.Expr,)):
            assert isinstance(stmt, ast.Expr)
            if isinstance(stmt.value, ast.Call):
                name = self._is_waitable_factory(stmt.value)
                if name is not None:
                    findings.append(self.finding(
                        ctx, stmt,
                        f"result of {name}(...) is discarded; yield it "
                        f"(or store and wait on it) — as written the "
                        f"wait silently never happens"))
        # (b) assigned to a name that is never read again
        loads: Set[str] = set()
        for node in ast.walk(func):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loads.add(node.id)
        for stmt in walk_in_function(func, (ast.Assign,)):
            assert isinstance(stmt, ast.Assign)
            if not isinstance(stmt.value, ast.Call):
                continue
            name = self._is_waitable_factory(stmt.value)
            if name is None:
                continue
            if len(stmt.targets) != 1 or not isinstance(
                    stmt.targets[0], ast.Name):
                continue
            target = stmt.targets[0].id
            if target not in loads:
                findings.append(self.finding(
                    ctx, stmt,
                    f"{target!r} holds the result of {name}(...) but is "
                    f"never yielded or read; the wait silently never "
                    f"happens"))
        return findings


# ----------------------------------------------------------------------
@register_rule
class UnguardedDirtyMutation(Rule):
    """GEM003: recovery-worker mutations outside the Redlease guard.

    A recovery pass must hold the fragment's Redlease while it repairs
    (exactly one worker per fragment, Section 3.3). Lexically: any
    worker method that issues a store/dirty-list-mutating cache op must
    be reachable *only* through a method that acquires the Redlease
    (contains an ``op="red_acquire"`` RPC). Applies to modules named
    ``worker.py`` or defining a ``*Worker`` class.
    """

    code = "GEM003"
    summary = "store/dirty-list mutation outside a Redlease-guarded pass"

    _MUTATING_OPS = {
        "mdelete", "batch_iset", "batch_iqset", "delete_dirty",
        "iset", "iqset",
    }

    def _applies(self, ctx: ModuleContext, cls: ast.ClassDef) -> bool:
        return ("Worker" in cls.name
                or ctx.path.replace("\\", "/").endswith("worker.py"))

    def check(self, ctx: ModuleContext) -> List[Finding]:
        findings: List[Finding] = []
        for node in ctx.tree.body:
            if isinstance(node, ast.ClassDef) and self._applies(ctx, node):
                findings.extend(self._check_class(ctx, node))
        return findings

    def _check_class(self, ctx: ModuleContext,
                     cls: ast.ClassDef) -> List[Finding]:
        module = single_module_project(ctx).modules[0]
        # A method's calls include those of closures defined inside it.
        methods = {node.name: list(module.by_node[node].within())
                   for node in cls.body if isinstance(node, ast.FunctionDef)}
        ops = {name: {op for func in funcs for site in func.call_sites
                      if site.node is not None
                      and (op := op_of_call(site.node)) is not None}
               for name, funcs in methods.items()}
        guards = {name for name, issued in ops.items()
                  if "red_acquire" in issued}
        callers: Dict[str, Set[str]] = {name: set() for name in methods}
        for name, funcs in methods.items():
            for func in funcs:
                for site in func.call_sites:
                    callee = site.self_method
                    if callee is not None and callee in callers:
                        callers[callee].add(name)

        # A method is unguarded-reachable when some caller chain reaches
        # an entry point without passing a guard-establishing method.
        cache: Dict[str, bool] = {}

        def unguarded(name: str, visiting: Tuple[str, ...]) -> bool:
            if name in guards:
                return False
            if name in cache:
                return cache[name]
            if name in visiting:
                return False  # cycle without an entry point
            ups = callers.get(name, set())
            if not ups:
                result = True  # an entry point itself
            else:
                result = any(up not in guards
                             and unguarded(up, visiting + (name,))
                             for up in ups)
            cache[name] = result
            return result

        findings: List[Finding] = []
        for name, funcs in methods.items():
            mutating = ops[name] & self._MUTATING_OPS
            if not mutating:
                continue
            if name in guards:
                continue  # mutates inside the acquire/release bracket
            if unguarded(name, ()):
                findings.append(self.finding(
                    ctx, funcs[0].node,
                    f"{cls.name}.{name} issues mutating op(s) "
                    f"{sorted(mutating)} but is reachable without passing "
                    f"through a red_acquire-guarded pass"))
        return findings


# ----------------------------------------------------------------------
@register_rule
class SessionConfigStamp(Rule):
    """GEM004: Rejig config-id discipline (the PR 1 stamping bug).

    (a) A request dispatcher for ops carrying ``client_cfg_id`` must
    perform the freshness comparison (``_check_config_id``) before
    dispatching — otherwise stale sessions never bounce.

    (b) Session code (classes with an ``_op``/``_cfg`` stamping helper)
    must stamp ops with the config id *captured when the session
    routed* — a local name — never live state such as
    ``self.cache.config_id``/``self.config.config_id``. Stamping live
    state lets a session that straddles a configuration change complete
    against superseded routing (PR 1: a recovery-mode reader resurrected
    a pre-write value into the primary).
    """

    code = "GEM004"
    summary = "missing/incorrect session config-id comparison (Rejig)"

    _CFG_PARAMS = {"cfg", "cfg_id", "config_id", "client_cfg_id"}

    def check(self, ctx: ModuleContext) -> List[Finding]:
        findings: List[Finding] = []
        defines_cfg_carrier = self._module_defines_cfg_carrier(ctx)
        for node in ctx.tree.body:
            if not isinstance(node, ast.ClassDef):
                continue
            if defines_cfg_carrier:
                findings.extend(self._check_dispatcher(ctx, node))
            findings.extend(self._check_stamping(ctx, node))
        return findings

    @staticmethod
    def _module_defines_cfg_carrier(ctx: ModuleContext) -> bool:
        """Does this module define a request type with client_cfg_id?"""
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.AnnAssign) \
                    and isinstance(node.target, ast.Name) \
                    and node.target.id == "client_cfg_id":
                return True
        return False

    def _check_dispatcher(self, ctx: ModuleContext,
                          cls: ast.ClassDef) -> List[Finding]:
        methods = _method_map(cls)
        handler = methods.get("handle_request")
        if handler is None:
            return []
        if not any(name.startswith("op_") for name in methods):
            return []
        for node in ast.walk(handler):
            if isinstance(node, ast.Call):
                name = call_name(node) or ""
                if "check_config" in name:
                    return []
        return [self.finding(
            ctx, handler,
            f"{cls.name}.handle_request dispatches ops carrying "
            f"client_cfg_id without a config-id freshness check "
            f"(_check_config_id): stale sessions will never bounce")]

    def _check_stamping(self, ctx: ModuleContext,
                        cls: ast.ClassDef) -> List[Finding]:
        methods = _method_map(cls)
        helpers: Dict[str, int] = {}
        for helper_name in ("_op", "_cfg"):
            helper = methods.get(helper_name)
            if helper is None:
                continue
            params = [arg.arg for arg in helper.args.args
                      if arg.arg != "self"]
            for index, param in enumerate(params):
                if param in self._CFG_PARAMS:
                    helpers[helper_name] = index
                    break
        if not helpers:
            return []
        findings: List[Finding] = []
        for method in methods.values():
            for node in ast.walk(method):
                if not isinstance(node, ast.Call):
                    continue
                name = call_name(node)
                if name is None or not name.startswith("self."):
                    continue
                helper_name = name.split(".", 1)[1]
                index = helpers.get(helper_name)
                if index is None:
                    continue
                value = self._stamp_argument(node, index)
                if value is None or isinstance(value, ast.Name):
                    continue
                rendered = ast.unparse(value)
                findings.append(self.finding(
                    ctx, value,
                    f"{cls.name}.{method.name} stamps {rendered!r} into "
                    f"self.{helper_name}(...); stamp the session-captured "
                    f"config id (a local name bound when the session "
                    f"routed) — stamping live state re-introduces the "
                    f"PR 1 stale-read resurrection"))
        return findings

    @staticmethod
    def _stamp_argument(call: ast.Call, index: int) -> Optional[ast.expr]:
        for keyword in call.keywords:
            if keyword.arg in SessionConfigStamp._CFG_PARAMS:
                return keyword.value
        if index < len(call.args):
            return call.args[index]
        return None


# ----------------------------------------------------------------------
@register_rule
class LivenessGuard(Rule):
    """GEM005: callback handlers must guard on ``self.up`` (PR 2 bug).

    RPC handlers are protected by the network layer (a down node never
    receives requests), but direct callback entries — injector
    subscriptions (``on_*``) and notification entry points
    (``notify_*``) — fire regardless. A failed-over coordinator that
    keeps committing configurations from such a path is exactly PR 2's
    split-brain. Any ``on_*``/``notify_*`` method of a RemoteNode
    subclass that mutates state or spawns work must check ``self.up``.
    """

    code = "GEM005"
    summary = "state-mutating callback handler without a self.up guard"

    _NODE_BASES = {"RemoteNode", "Coordinator", "CacheInstance"}

    def check(self, ctx: ModuleContext) -> List[Finding]:
        findings: List[Finding] = []
        for node in ctx.tree.body:
            if isinstance(node, ast.ClassDef) and self._is_node(node):
                findings.extend(self._check_class(ctx, node))
        return findings

    def _is_node(self, cls: ast.ClassDef) -> bool:
        for base in cls.bases:
            name = dotted_name(base)
            if name is not None and name.split(".")[-1] in self._NODE_BASES:
                return True
        return False

    @staticmethod
    def _mutates(method: ast.FunctionDef) -> bool:
        """Does the handler change state or spawn work?"""
        for node in ast.walk(method):
            if isinstance(node, (ast.Assign, ast.AugAssign)):
                for target in (node.targets
                               if isinstance(node, ast.Assign)
                               else [node.target]):
                    name = dotted_name(target)
                    if name is not None and name.startswith("self."):
                        return True
            elif isinstance(node, ast.Call):
                name = call_name(node) or ""
                if name.startswith("self.") and not name.endswith(".get"):
                    return True
        return False

    @staticmethod
    def _references_up(method: ast.FunctionDef) -> bool:
        for node in ast.walk(method):
            if isinstance(node, ast.Attribute) and node.attr == "up":
                if isinstance(node.value, ast.Name) \
                        and node.value.id == "self":
                    return True
        return False

    def _check_class(self, ctx: ModuleContext,
                     cls: ast.ClassDef) -> List[Finding]:
        findings: List[Finding] = []
        for method in cls.body:
            if not isinstance(method, ast.FunctionDef):
                continue
            if not (method.name.startswith("on_")
                    or method.name.startswith("notify_")):
                continue
            if not self._mutates(method):
                continue
            if self._references_up(method):
                continue
            findings.append(self.finding(
                ctx, method,
                f"{cls.name}.{method.name} mutates state or spawns work "
                f"from a direct callback without checking self.up — a "
                f"dead node acting on callbacks is the PR 2 split-brain"))
        return findings


# ----------------------------------------------------------------------
@register_rule
class MissingProtocolEvent(Rule):
    """GEM006: mutating protocol methods must emit a protocol event.

    The chaos engine's invariant checkers are only as complete as the
    event stream they watch (:mod:`repro.verify.events`). Every method
    on the protocol surface below must contain an ``_emit``/
    ``event_log.emit`` call; dropping one silently blinds a checker.
    """

    code = "GEM006"
    summary = "protocol-surface method no longer emits its protocol event"

    #: class name -> methods that must emit.
    _SURFACE: Dict[str, Set[str]] = {
        "CacheInstance": {
            "op_create_dirty", "op_append_dirty", "op_delete_dirty",
            "op_red_acquire", "op_red_release", "fail", "wipe",
        },
        "Coordinator": {
            "_commit", "_handle_failure", "_handle_recovery",
            "_handle_dirty_done", "_handle_dirty_lost",
        },
        "GeminiClient": {"_adopt", "_write_attempt"},
        "RecoveryWorker": {"on_config"},
    }

    def check(self, ctx: ModuleContext) -> List[Finding]:
        findings: List[Finding] = []
        for node in ctx.tree.body:
            if not isinstance(node, ast.ClassDef):
                continue
            surface = self._SURFACE.get(node.name)
            if not surface:
                continue
            for method in node.body:
                if not isinstance(method, ast.FunctionDef):
                    continue
                if method.name not in surface:
                    continue
                if not self._emits(method):
                    findings.append(self.finding(
                        ctx, method,
                        f"{node.name}.{method.name} is on the protocol "
                        f"surface but emits no verify.events protocol "
                        f"event; the invariant checkers go blind"))
        return findings

    @staticmethod
    def _emits(method: ast.FunctionDef) -> bool:
        for node in ast.walk(method):
            if isinstance(node, ast.Call):
                name = call_name(node) or ""
                last = name.split(".")[-1]
                if last in ("_emit", "emit"):
                    return True
        return False


# ----------------------------------------------------------------------
@register_rule
class ProtocolLayering(Rule):
    """GEM010: protocol code must stay runtime-agnostic.

    The protocol packages below run *unmodified* on either kernel —
    the deterministic simulator or the wall-clock live runtime. That
    only holds while they depend exclusively on the structural
    interfaces in :mod:`repro.runtime` (``Kernel``/``Transport``): an
    import of :mod:`repro.live` or of ``asyncio`` from protocol code
    hard-wires it to one runtime, silently desimulates it (asyncio
    schedules on the wall clock, invisible to chaos replay and the
    sanitizer), and inverts the dependency the dual-runtime design
    rests on.
    """

    code = "GEM010"
    summary = ("protocol code importing the live runtime or asyncio "
               "(depend on repro.runtime's Kernel/Transport instead)")

    #: The runtime-agnostic protocol layer.
    _PROTOCOL_PACKAGES = (
        "repro/client", "repro/coordinator", "repro/cache",
        "repro/recovery",
    )

    def check(self, ctx: ModuleContext) -> List[Finding]:
        if not any(_in_package(ctx.path, package)
                   for package in self._PROTOCOL_PACKAGES):
            return []
        findings: List[Finding] = []
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    findings.extend(self._check_module(
                        ctx, node, alias.name))
            elif isinstance(node, ast.ImportFrom):
                findings.extend(self._check_module(
                    ctx, node, node.module or ""))
        return findings

    def _check_module(self, ctx: ModuleContext, node: ast.AST,
                      module: str) -> List[Finding]:
        if module == "asyncio" or module.startswith("asyncio."):
            return [self.finding(
                ctx, node,
                "protocol code importing 'asyncio' binds it to the "
                "wall-clock runtime; take the kernel as a "
                "repro.runtime.Kernel argument instead")]
        if module == "repro.live" or module.startswith("repro.live."):
            return [self.finding(
                ctx, node,
                f"protocol code importing {module!r} inverts the "
                f"runtime layering; the live runtime hosts protocol "
                f"components, never the other way around")]
        return []


@register_rule
class DanglingAllowance(Rule):
    """Allowance hygiene: a package allowance must name a live package.

    Package allowances (``WALL_CLOCK_ALLOWED``, the ``ALLOWANCES``
    registry) silently switch rules off for whole subtrees, so a stale
    entry — one naming a package that was renamed or deleted — is a
    standing hole nobody is using deliberately. Any module-level
    ``*_ALLOWED`` dict literal, and any dict literal inside an
    ``ALLOWANCES`` registry, is checked: every package key must exist as
    a directory somewhere above the module that declares it.

    The rule shares GEM000 with the driver's unjustified-suppression
    report: both are suppression-hygiene findings.
    """

    code = "GEM000"
    summary = ("suppression hygiene: justified inline disables, no "
               "dangling package allowances")

    def check(self, ctx: ModuleContext) -> List[Finding]:
        roots = self._search_roots(ctx)
        if roots is None:
            return []  # fixture source with no real file: nothing to judge
        findings: List[Finding] = []
        for node in ctx.tree.body:
            if not isinstance(node, ast.Assign):
                continue
            for target in node.targets:
                if not isinstance(target, ast.Name):
                    continue
                if target.id.endswith("_ALLOWED"):
                    findings.extend(self._check_dict(
                        ctx, roots, target.id, node.value))
                elif target.id == "ALLOWANCES" and \
                        isinstance(node.value, ast.Dict):
                    for value in node.value.values:
                        findings.extend(self._check_dict(
                            ctx, roots, target.id, value))
        return findings

    @staticmethod
    def _search_roots(ctx: ModuleContext) -> Optional[List[Path]]:
        try:
            resolved = Path(ctx.path).resolve()
        except OSError:  # pragma: no cover - exotic filesystems
            return None
        if not resolved.is_file():
            return None
        return list(resolved.parents)

    def _check_dict(self, ctx: ModuleContext, roots: List[Path],
                    name: str, value: ast.expr) -> List[Finding]:
        if not isinstance(value, ast.Dict):
            return []  # a Name alias of another table, checked at its own
            # definition site
        findings: List[Finding] = []
        for key in value.keys:
            if not (isinstance(key, ast.Constant)
                    and isinstance(key.value, str)):
                continue
            package = key.value
            if any((root / package).is_dir() for root in roots):
                continue
            findings.append(self.finding(
                ctx, key,
                f"allowance in {name} names package {package!r}, which "
                f"is no longer a directory anywhere above this module — "
                f"delete the stale entry"))
        return findings
