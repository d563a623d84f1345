"""Visitor core, rule registry, and suppression handling for geminilint.

A :class:`Rule` inspects one parsed module at a time through a
:class:`ModuleContext` (source text, AST with parent links, relative
path) and reports :class:`Finding` records. The driver applies every
registered rule to every file, then drops findings covered by an inline
suppression comment::

    something_flagged()  # geminilint: disable=GEM001 -- why it is fine

The justification after ``--`` is mandatory: a bare ``disable`` does not
suppress — it is itself reported as a ``GEM000`` finding, so suppressions
stay auditable. Suppressions match the *physical line* of the finding
(or the preceding line, for statements that do not fit one line).
"""

from __future__ import annotations

import ast
import re
import tokenize
from dataclasses import dataclass, field
from io import StringIO
from pathlib import Path
from typing import (Dict, Iterable, List, Optional, Sequence, Tuple, Type,
                    Union, cast)

__all__ = [
    "Finding",
    "Rule",
    "ModuleContext",
    "AnalysisResult",
    "register_rule",
    "all_rules",
    "analyze_source",
    "analyze_file",
    "analyze_paths",
    "CALLABLE_DEFS",
    "enclosing_callable",
    "op_of_call",
]

#: Node types that open a new function scope.
CALLABLE_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef)

#: Matches an inline suppression comment: the marker, one or more GEM
#: codes, and an optional ``-- reason`` tail (mandatory in practice; see
#: _apply_suppressions). Worded to not match this comment itself.
_SUPPRESS_RE = re.compile(
    r"#\s*geminilint:\s*disable=(?P<codes>GEM\d{3}(?:\s*,\s*GEM\d{3})*)"
    r"(?:\s*--\s*(?P<reason>.*\S))?"
)


@dataclass(frozen=True)
class Finding:
    """One rule violation at a source location."""

    code: str
    message: str
    path: str
    line: int
    col: int = 0

    def location(self) -> str:
        return f"{self.path}:{self.line}:{self.col + 1}"

    def __str__(self) -> str:
        return f"{self.location()}: {self.code} {self.message}"


@dataclass(frozen=True)
class Suppression:
    """One inline ``# geminilint: disable=...`` comment."""

    codes: Tuple[str, ...]
    line: int
    reason: Optional[str]


class ModuleContext:
    """Everything a rule needs to inspect one module."""

    def __init__(self, path: str, source: str, tree: ast.Module) -> None:
        self.path = path
        self.source = source
        self.tree = tree
        #: ``child -> parent`` links for every AST node.
        self.parents: Dict[ast.AST, ast.AST] = {}
        for parent in ast.walk(tree):
            for child in ast.iter_child_nodes(parent):
                self.parents[child] = parent
        self.suppressions: List[Suppression] = _collect_suppressions(source)

    # -- convenience ---------------------------------------------------
    def parent(self, node: ast.AST) -> Optional[ast.AST]:
        return self.parents.get(node)

    def enclosing(self, node: ast.AST,
                  kinds: Union[type, Tuple[type, ...]]) -> Optional[ast.AST]:
        """Innermost ancestor of ``node`` that is an instance of ``kinds``."""
        current = self.parents.get(node)
        while current is not None:
            if isinstance(current, kinds):
                return current
            current = self.parents.get(current)
        return None

    def enclosing_class(self, node: ast.AST) -> Optional[ast.ClassDef]:
        return cast(Optional[ast.ClassDef], self.enclosing(node, ast.ClassDef))


class Rule:
    """Base class: subclass, set ``code``/``summary``, implement check."""

    code = "GEM000"
    summary = ""

    def check(self, ctx: ModuleContext) -> List[Finding]:
        raise NotImplementedError

    def finding(self, ctx: ModuleContext, node: ast.AST,
                message: str) -> Finding:
        return Finding(code=self.code, message=message, path=ctx.path,
                       line=getattr(node, "lineno", 0),
                       col=getattr(node, "col_offset", 0))


_REGISTRY: Dict[str, Type[Rule]] = {}


def register_rule(cls: Type[Rule]) -> Type[Rule]:
    """Class decorator adding a rule to the global registry."""
    if cls.code in _REGISTRY:
        raise ValueError(f"duplicate rule code {cls.code}")
    _REGISTRY[cls.code] = cls
    return cls


def all_rules() -> Dict[str, Type[Rule]]:
    """Registered rules by code (importing .rules populates this)."""
    import repro.analysis.flowrules  # noqa: F401  - registration side effect
    import repro.analysis.interleave  # noqa: F401  - registration side effect
    import repro.analysis.rules  # noqa: F401  - registration side effect
    return dict(_REGISTRY)


# ----------------------------------------------------------------------
# Suppressions
# ----------------------------------------------------------------------
def _collect_suppressions(source: str) -> List[Suppression]:
    """Parse inline suppression comments via the tokenizer (so strings
    containing the magic text do not count)."""
    suppressions: List[Suppression] = []
    try:
        tokens = tokenize.generate_tokens(StringIO(source).readline)
        for token in tokens:
            if token.type != tokenize.COMMENT:
                continue
            match = _SUPPRESS_RE.search(token.string)
            if match is None:
                continue
            codes = tuple(code.strip()
                          for code in match.group("codes").split(","))
            suppressions.append(Suppression(
                codes=codes, line=token.start[0],
                reason=match.group("reason")))
    except tokenize.TokenizeError:
        pass  # unparseable comment structure: nothing to suppress
    return suppressions


def _apply_suppressions(ctx: ModuleContext,
                        findings: List[Finding]) -> List[Finding]:
    """Drop findings covered by a justified suppression on the same (or
    the immediately preceding) line; report unjustified suppressions."""
    kept: List[Finding] = []
    by_line: Dict[int, List[Suppression]] = {}
    for suppression in ctx.suppressions:
        by_line.setdefault(suppression.line, []).append(suppression)
    for finding in findings:
        suppressed = False
        for line in (finding.line, finding.line - 1):
            for suppression in by_line.get(line, ()):
                if finding.code in suppression.codes and suppression.reason:
                    suppressed = True
        if not suppressed:
            kept.append(finding)
    for suppression in ctx.suppressions:
        if not suppression.reason:
            kept.append(Finding(
                code="GEM000",
                message=("suppression without justification: write "
                         "'# geminilint: disable=CODE -- reason'"),
                path=ctx.path, line=suppression.line))
    return kept


# ----------------------------------------------------------------------
# Drivers
# ----------------------------------------------------------------------
@dataclass
class AnalysisResult:
    """Findings plus bookkeeping from one analysis run."""

    findings: List[Finding] = field(default_factory=list)
    files_checked: int = 0
    errors: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.findings and not self.errors

    def counts_by_code(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for finding in self.findings:
            out[finding.code] = out.get(finding.code, 0) + 1
        return dict(sorted(out.items()))


def analyze_source(
    source: str, path: str = "<string>",
    rules: Optional[Sequence[Rule]] = None,
) -> List[Finding]:
    """Run rules over one source string (fixtures and tests use this)."""
    tree = ast.parse(source, filename=path)
    ctx = ModuleContext(path=path, source=source, tree=tree)
    active: Iterable[Rule] = (rules if rules is not None
                              else [cls() for cls in all_rules().values()])
    findings: List[Finding] = []
    for rule in active:
        findings.extend(rule.check(ctx))
    findings = _apply_allowances(ctx, findings)
    findings = _apply_suppressions(ctx, findings)
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.code))
    return findings


def _apply_allowances(ctx: ModuleContext,
                      findings: List[Finding]) -> List[Finding]:
    """Drop findings whose rule grants the whole package an allowance
    (:data:`repro.analysis.rules.ALLOWANCES`). Rules may also consult
    their own allowance table up front as a fast path; this central
    filter is what makes the contract uniform across rules."""
    # Imported lazily: rules.py imports this module at load time.
    from repro.analysis.rules import ALLOWANCES, _in_package
    kept: List[Finding] = []
    for finding in findings:
        allowed = ALLOWANCES.get(finding.code, {})
        if any(_in_package(ctx.path, package) for package in allowed):
            continue
        kept.append(finding)
    return kept


def analyze_file(path: Path, root: Optional[Path] = None,
                 rules: Optional[Sequence[Rule]] = None) -> List[Finding]:
    relative = str(path.relative_to(root)) if root else str(path)
    source = path.read_text(encoding="utf-8")
    return analyze_source(source, path=relative, rules=rules)


def iter_python_files(paths: Sequence[str]) -> List[Tuple[Path, Path]]:
    """Expand files/directories into (file, display-root) pairs."""
    out: List[Tuple[Path, Path]] = []
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            for file in sorted(path.rglob("*.py")):
                out.append((file, path.parent if path.parent != Path(".")
                            else Path(".")))
        elif path.suffix == ".py":
            out.append((path, path.parent))
    return out


def analyze_paths(
    paths: Sequence[str],
    rules: Optional[Sequence[Rule]] = None,
    select: Optional[Sequence[str]] = None,
) -> AnalysisResult:
    """Analyze every ``.py`` file under ``paths``; the CLI entry point."""
    if rules is None:
        registry = all_rules()
        codes = select if select else sorted(registry)
        unknown = [code for code in codes if code not in registry]
        if unknown:
            raise ValueError(f"unknown rule code(s): {', '.join(unknown)}")
        rules = [registry[code]() for code in codes]
    result = AnalysisResult()
    for file, __ in iter_python_files(paths):
        result.files_checked += 1
        try:
            result.findings.extend(analyze_file(file, root=None, rules=rules))
        except SyntaxError as exc:
            result.errors.append(f"{file}: {exc}")
    result.findings.sort(key=lambda f: (f.path, f.line, f.col, f.code))
    return result


# ----------------------------------------------------------------------
# Shared AST helpers for rules
# ----------------------------------------------------------------------
def dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for Name/Attribute chains, else None."""
    parts: List[str] = []
    current = node
    while isinstance(current, ast.Attribute):
        parts.append(current.attr)
        current = current.value
    if isinstance(current, ast.Name):
        parts.append(current.id)
        return ".".join(reversed(parts))
    return None


def call_name(node: ast.Call) -> Optional[str]:
    return dotted_name(node.func)


def keyword_arg(node: ast.Call, name: str) -> Optional[ast.expr]:
    for keyword in node.keywords:
        if keyword.arg == name:
            return keyword.value
    return None


def op_of_call(call: ast.Call) -> Optional[str]:
    """The protocol op a call carries, across both op-building idioms.

    ``CacheOp(op="get_dirty", ...)`` / ``self._cfg(cfg, op="...")`` pass
    the op as a keyword; client sessions use ``self._op("get_dirty",
    cfg, ...)`` with the op as the first positional argument.
    """
    value = keyword_arg(call, "op")
    if isinstance(value, ast.Constant) and isinstance(value.value, str):
        return value.value
    name = call_name(call)
    if name is not None and name.split(".")[-1] == "_op" and call.args:
        first = call.args[0]
        if isinstance(first, ast.Constant) and isinstance(first.value, str):
            return first.value
    return None


def enclosing_callable(ctx: ModuleContext,
                       node: ast.AST) -> Optional[ast.AST]:
    """Innermost ``def`` or ``async def`` containing ``node``."""
    return ctx.enclosing(node, CALLABLE_DEFS)
