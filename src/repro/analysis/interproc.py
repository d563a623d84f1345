"""Yield/lock summaries for the GeminiSan static rules.

The interleaving rules (GEM007-GEM009, :mod:`repro.analysis.interleave`)
need two module-level facts about every generator ``def``:

* **yield summaries** — whether a function *may suspend* (a direct
  ``yield``, or a ``yield from`` into a may-yield method). In this
  kernel a plain call can never suspend; only ``yield``/``yield from``
  can, and ``yield from`` suspends only if the callee does.
* **lock summaries** — which locks a function acquires/releases, both
  kernel semaphores (``yield x.acquire()``) and Redleases (RPCs
  carrying ``op="red_acquire"``), including acquisitions reached through
  ``yield from`` into sibling methods.

Both are fixpoints over the one call graph,
:class:`repro.analysis.flow.FlowProject` (built for the module alone);
this module is the query view the rules read them through.

Everything here is lexical: a summary describes the function's source,
not a path-sensitive execution. That is the right fidelity for lint —
the runtime half of GeminiSan (:mod:`repro.sim.sanitizer`) owns the
path-sensitive version of the same questions.
"""

from __future__ import annotations

import ast
from typing import Dict

from repro.analysis.core import ModuleContext, op_of_call
from repro.analysis.flow import FlowFunction, single_module_project

__all__ = [
    "ModuleSummaries",
    "build_summaries",
    "op_of_call",
]


class ModuleSummaries:
    """Yield/lock summaries of every plain ``def`` in one module."""

    def __init__(self, ctx: ModuleContext) -> None:
        self.ctx = ctx
        project = single_module_project(ctx)
        module = project.modules[0]
        self.by_node: Dict[ast.AST, FlowFunction] = {
            func.node: func for func in module.functions
            if not func.is_async}
        #: class name -> method name -> the definition ``self.<name>``
        #: resolves to (inherited methods included).
        self.methods: Dict[str, Dict[str, FlowFunction]] = {}
        for name, cls in module.classes.items():
            table: Dict[str, FlowFunction] = {}
            for info in reversed(project._mro(cls)):
                table.update(info.methods)
            self.methods[name] = table

    def summary(self, node: ast.AST) -> FlowFunction:
        return self.by_node[node]

    def suspends(self, node: ast.AST, owner: FlowFunction) -> bool:
        """Does this ``Yield``/``YieldFrom`` actually suspend?

        A bare ``yield`` always does. ``yield from self.m()`` suspends
        only if ``m`` may yield — delegating into a non-yielding helper
        runs it to completion synchronously.
        """
        if isinstance(node, ast.Yield):
            return True
        if isinstance(node, ast.YieldFrom):
            site = owner.yield_froms.get(node)
            return site is None or not site.targets or any(
                target.may_yield for target in site.targets)
        return False


def build_summaries(ctx: ModuleContext) -> ModuleSummaries:
    return ModuleSummaries(ctx)
