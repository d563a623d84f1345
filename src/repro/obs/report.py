"""The ``python -m repro.obs`` report CLI.

Runs a traced single-failure experiment (the Figure 7 setup, scaled
down), reconstructs per-fragment phase timelines and per-request
critical paths, verifies the trace, and writes artifacts:

* ``spans.jsonl`` — every span, one JSON object per line;
* ``chrome_trace.json`` — load at ``chrome://tracing`` / Perfetto;
* ``timeline.txt`` — the human-readable report printed to stdout.

Verification is the point, not a side effect: the command exits
non-zero unless (a) the trace is structurally well-formed and (b) the
tracer's config-commit spans match the coordinator's ``config_commit``
protocol events *exactly* — same configuration ids at the same
simulated times. The two streams are produced independently (protocol
code vs tracer), so agreement is evidence the reconstruction is real.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

from repro.harness.scenarios import LOW_LOAD_THREADS, YcsbScenario, \
    build_ycsb_experiment
from repro.obs.export import write_chrome_trace, write_spans_jsonl
from repro.obs.profile import format_profile, kernel_profile
from repro.obs.timeline import (FragmentTimeline, build_critical_paths,
                                build_fragment_timelines,
                                crosscheck_commits)
from repro.obs.trace import Tracer
from repro.obs.wellformed import check_trace
from repro.recovery.policies import policy_by_name

__all__ = ["main"]


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="GeminiTrace: trace a single-failure run, rebuild "
                    "its timelines, and verify the trace.")
    parser.add_argument("--policy", default="Gemini-O+W",
                        help="recovery policy name (default Gemini-O+W)")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--records", type=int, default=1500,
                        help="YCSB record count (scaled-down Figure 7)")
    parser.add_argument("--fail-at", type=float, default=10.0)
    parser.add_argument("--outage", type=float, default=10.0)
    parser.add_argument("--tail", type=float, default=15.0)
    parser.add_argument("--out", type=Path, default=None,
                        help="directory for spans.jsonl / "
                             "chrome_trace.json / timeline.txt")
    parser.add_argument("--max-paths", type=int, default=5,
                        help="critical paths shown (slowest first)")
    return parser


def _format_timeline(timeline: FragmentTimeline) -> List[str]:
    lines = [f"fragment {timeline.fragment_id}:"]
    for phase in timeline.phases:
        secondary = f" secondary={phase.secondary}" if phase.secondary \
            else ""
        lines.append(
            f"  [{phase.start:9.3f} .. {phase.end:9.3f}] "
            f"{phase.mode.lower():9s} cfg={phase.config_id} "
            f"primary={phase.primary}{secondary}")
    return lines


def main(argv: Optional[List[str]] = None) -> int:
    args = _parser().parse_args(argv)
    scenario = YcsbScenario(
        policy=policy_by_name(args.policy), update_fraction=0.01,
        threads=LOW_LOAD_THREADS, records=args.records, zipf_theta=0.8,
        seed=args.seed, fail_at=args.fail_at, outage=args.outage,
        tail=args.tail)
    cluster, __, experiment = build_ycsb_experiment(scenario)
    initial_config = cluster.coordinator.current
    tracer = Tracer(cluster.sim)
    tracer.install()
    try:
        result = experiment.run()
        spans = tracer.finish()
    finally:
        tracer.uninstall()
    events = cluster.events.events

    out: List[str] = []
    failed = False

    # -- verification ---------------------------------------------------
    problems = check_trace(spans, dropped=tracer.dropped)
    if problems:
        failed = True
        out.append(f"TRACE NOT WELL-FORMED ({len(problems)} problems):")
        out.extend(f"  {p.describe()}" for p in problems[:20])
    else:
        out.append(f"trace well-formed: {len(spans)} spans "
                   f"({tracer.dropped} dropped)")
    mismatches = crosscheck_commits(spans, events)
    if mismatches:
        failed = True
        out.append("COMMIT SPANS DISAGREE WITH config_commit EVENTS:")
        out.extend(f"  {m}" for m in mismatches[:20])
    else:
        commits = sum(1 for s in spans if s.kind == "commit")
        out.append(f"config-commit spans match protocol events exactly "
                   f"({commits} commits)")

    # -- per-fragment phase timelines -----------------------------------
    timelines = build_fragment_timelines(initial_config, events,
                                         horizon=result.duration)
    changed = [t for t in sorted(timelines.values(),
                                 key=lambda t: t.fragment_id)
               if len(t.phases) > 1]
    out.append("")
    out.append(f"{len(changed)} of {len(timelines)} fragments changed "
               "phase during the run")
    for timeline in changed[:10]:
        out.extend(_format_timeline(timeline))
    if len(changed) > 10:
        out.append(f"  ... and {len(changed) - 10} more")

    # -- critical paths -------------------------------------------------
    paths = build_critical_paths(spans)
    paths.sort(key=lambda p: -p.session.duration)
    out.append("")
    out.append(f"slowest sessions (of {len(paths)} traced):")
    for path in paths[:args.max_paths]:
        session = path.session
        out.append(
            f"  {session.actor} {session.name} key="
            f"{session.attrs.get('key')} "
            f"[{session.start:.3f} .. {session.end:.3f}] "
            f"{session.duration * 1e3:.2f} ms, "
            f"{path.attempts} attempt(s), "
            f"rpc time {path.rpc_time * 1e3:.2f} ms, "
            f"retries {path.retry_statuses or 'none'}")

    # -- kernel profile ---------------------------------------------------
    out.append("")
    out.append(format_profile(kernel_profile(cluster.sim,
                                             cluster.network)))

    report = "\n".join(out)
    print(report)
    if args.out is not None:
        args.out.mkdir(parents=True, exist_ok=True)
        with open(args.out / "spans.jsonl", "w") as fp:
            write_spans_jsonl(spans, fp)
        with open(args.out / "chrome_trace.json", "w") as fp:
            write_chrome_trace(spans, fp)
        (args.out / "timeline.txt").write_text(report + "\n")
        print(f"\nartifacts written to {args.out}/")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
