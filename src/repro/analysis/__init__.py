"""geminilint: protocol-aware static analysis for the Gemini reproduction.

The chaos engine (PR 2) finds protocol bugs by *running* randomized
schedules; this package finds a complementary class of bugs by *reading*
the source. Every rule is derived from a bug this repository actually
shipped (see CHANGES.md) or from a discipline the simulator's determinism
depends on:

========  ============================================================
GEM001    No wall-clock time or global randomness inside ``src/repro``
          — all time flows from the simulator clock and all randomness
          from named :class:`~repro.sim.rng.RngRegistry` streams, which
          is what keeps chaos TrialResult fingerprints byte-for-byte
          reproducible (docs/DETERMINISM.md).
GEM002    Unawaited sim primitive: a ``Timeout``/``Event``/composite or
          an RPC created inside a generator but never ``yield``-ed is a
          silently dropped wait.
GEM003    Store/dirty-list mutations in ``recovery/worker.py`` must be
          reachable only through a lexically Redlease-guarded pass
          (``red_acquire`` … ``red_release``).
GEM004    Session config-id stamping discipline (the PR 1 Rejig bug):
          ops must stamp the id captured when the session routed, never
          live ``*.config_id`` state; the instance dispatcher must keep
          its freshness check.
GEM005    State-mutating coordinator/instance callback handlers must
          guard on ``self.up`` (the PR 2 split-brain bug).
GEM006    Public mutating protocol methods must emit a
          :mod:`repro.verify.events` protocol event so the invariant
          checkers stay complete.
GEM007    Stale capture across a yield: routing/config state captured
          once but read inside a loop that suspends (the PR 1 stale
          fragment-route bug), or dirty-view entries dropped in the
          cleanup of a try whose body yields (the PR 3 recovery-read
          bug).
GEM008    Lock-order inversion: two cooperative processes acquiring the
          same locks (including the Redlease) in opposite orders can
          deadlock the kernel; a lock re-acquired while held is
          reported too.
GEM009    Non-atomic check-then-act on completeness markers: a fetched
          dirty page must have ``.complete`` consulted before use, and
          ``DirtyList(marker=True)`` may be forged only by
          ``op_create_dirty``.
GEM010    Runtime layering: protocol packages (``repro.client`` /
          ``repro.coordinator`` / ``repro.cache`` / ``repro.recovery``)
          may depend on :mod:`repro.runtime`'s ``Kernel``/``Transport``
          interfaces but never import :mod:`repro.live` or ``asyncio``
          — they must run unmodified on either runtime. ``repro.live``
          itself carries a justified package-level GEM001 allowance
          (``repro.analysis.rules.WALL_CLOCK_ALLOWED``): wall-clock
          time is its contract.
GEM011    Wire exception-flow closure: every exception type that can
          escape a live request handler must be registered in
          ``repro.live.wire._ERRORS`` and be reconstructible from its
          declared attributes — otherwise a remote peer sees a
          degraded ``ReproError`` instead of the real type.
GEM012    Journal-before-ack: ``PersistentCacheInstance`` mutation
          hooks must append their journal record synchronously, before
          the handler returns the reply frame; deferring the append to
          a scheduler or callback acknowledges un-persisted state.
GEM013    Asyncio discipline in ``repro.live``: no blocking primitives
          on the event loop, no fire-and-forget tasks with unobserved
          exceptions, no transport await without a timeout, no lock
          held across an ``await`` without try/finally release.
GEM014    Wire-schema drift: the codec surface of
          ``repro.live.wire`` must match the committed
          ``ci/wire-schema.json`` snapshot; any divergence demands a
          ``WIRE_VERSION`` bump plus regeneration via
          ``tools/wire_schema.py --write`` in the same change.
========  ============================================================

Every rule that looks inside functions reads one call graph,
:class:`repro.analysis.flow.FlowProject`, whose one scan per function
decides which nodes that function owns (``FlowFunction.nodes``; closures
through ``FlowFunction.within()``). GEM002-GEM006 read that scan and the
class method tables; GEM003 also walks its ``self`` call sites;
GEM007-GEM009 read its yield/lock fixpoint, so a helper reached via
``yield from`` contributes its suspension points and lock acquisitions
to its callers; GEM011-GEM014 (:mod:`repro.analysis.flowrules`) read its
may-raise fixpoint and, for the wire-schema contract, its cross-module
class table.

Run with ``python -m repro.analysis src/``; suppress a finding with an
inline ``# geminilint: disable=GEMxxx -- justification`` comment (the
justification is mandatory). See docs/STATIC_ANALYSIS.md.
"""

from repro.analysis.core import (
    AnalysisResult,
    Finding,
    Rule,
    all_rules,
    analyze_file,
    analyze_paths,
    analyze_source,
    register_rule,
)
from repro.analysis.reporters import render_json, render_text

__all__ = [
    "AnalysisResult",
    "Finding",
    "Rule",
    "all_rules",
    "analyze_file",
    "analyze_paths",
    "analyze_source",
    "register_rule",
    "render_json",
    "render_text",
]
