"""Command-line chaos runner (``python -m repro.chaos``).

Modes:

* ``--seed S`` — run the single trial derived from seed S.
* ``--seeds N [--start S0]`` — sweep N consecutive seeds; stop at the
  first invariant violation, shrink it, and write a replay file.
* ``--replay FILE`` — re-run a previously written replay file and check
  that the recorded violation reproduces byte-for-byte; on a fingerprint
  mismatch, print the violation lines only one of the two runs reported.
* ``--mutant NAME`` — run everything against a deliberately re-broken
  protocol variant (see :mod:`repro.chaos.mutants`).
* ``--sanitize`` — run every trial under the interleaving sanitizer
  (:mod:`repro.sim.sanitizer`); findings count as violations.
* ``--trace`` — run every trial under the GeminiTrace causal tracer
  (:mod:`repro.obs`); trace well-formedness problems count as
  ``trace:*`` violations.

Exit status: 0 = all trials invariant-clean, 1 = a violation was found
(or a replay failed to reproduce), 2 = bad usage.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from repro.chaos.mutants import MUTANTS
from repro.chaos.nemesis import TrialSpec, derive_spec
from repro.chaos.runner import TrialResult, run_trial
from repro.chaos.shrink import shrink

__all__ = ["main", "save_replay", "load_replay"]

#: Replay-file format version (bump on incompatible changes).
REPLAY_VERSION = 1


def save_replay(path: str, spec: TrialSpec, result: TrialResult,
                mutant: Optional[str] = None,
                sanitize: bool = False,
                trace: bool = False) -> None:
    """Serialize a failing trial so it can be re-run byte-for-byte."""
    payload = {
        "version": REPLAY_VERSION,
        "mutant": mutant,
        "sanitize": sanitize,
        "trace": trace,
        "fingerprint": result.fingerprint(),
        "violations": [str(v) for v in result.violations],
        "spec": spec.to_dict(),
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


def load_replay(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    if payload.get("version") != REPLAY_VERSION:
        raise ValueError(
            f"unsupported replay version {payload.get('version')!r}")
    return payload


def _print_result(result: TrialResult, verbose: bool) -> None:
    print(result.summary())
    for violation in result.violations:
        print(f"  {violation}")
    if verbose and not result.violations:
        print(f"  clean: {result.reads_checked} reads checked, "
              f"{result.events_emitted} protocol events")


def _repro_command(seed: int, path: str, mutant: Optional[str],
                   sanitize: bool = False, trace: bool = False) -> str:
    mutant_flag = f" --mutant {mutant}" if mutant else ""
    sanitize_flag = " --sanitize" if sanitize else ""
    trace_flag = " --trace" if trace else ""
    return (f"PYTHONPATH=src python -m repro.chaos --seed {seed} "
            f"--replay {path}{mutant_flag}{sanitize_flag}{trace_flag}")


def _handle_failure(spec: TrialSpec, result: TrialResult,
                    args: argparse.Namespace) -> None:
    """Shrink the failing schedule and emit the replay file."""
    print(f"\nseed {spec.seed}: INVARIANT VIOLATION "
          f"({len(result.violations)} finding(s))")
    for violation in result.violations:
        print(f"  {violation}")
    if args.no_shrink:
        minimal_spec, minimal_result = spec, result
    else:
        def rerun(candidate: TrialSpec) -> TrialResult:
            return run_trial(candidate, mutant=args.mutant,
                             sanitize=args.sanitize, trace=args.trace)

        shrunk = shrink(spec, result, run=rerun,
                        max_runs=args.shrink_budget)
        minimal_spec, minimal_result = shrunk.spec, shrunk.result
        print(f"shrunk: {len(spec.actions)} -> "
              f"{len(minimal_spec.actions)} action(s) "
              f"({shrunk.runs} extra run(s), "
              f"{shrunk.shortened_actions} duration(s) shortened)")
        for action in minimal_spec.actions:
            print(f"  {action}")
    path = args.out
    save_replay(path, minimal_spec, minimal_result, mutant=args.mutant,
                sanitize=args.sanitize, trace=args.trace)
    print(f"replay file: {path}")
    command = _repro_command(spec.seed, path, args.mutant, args.sanitize,
                             args.trace)
    print(f"reproduce with: {command}")


def _print_violation_diff(recorded: List[str], rerun: List[str]) -> None:
    """Name the violation lines only one of the two runs reported."""
    rerun_set, recorded_set = set(rerun), set(recorded)
    only_recorded = [v for v in recorded if v not in rerun_set]
    only_rerun = [v for v in rerun if v not in recorded_set]
    if not only_recorded and not only_rerun:
        print("both runs reported the same violation lines; the "
              "difference is in their order or the run's counts")
    for violation in only_recorded:
        print(f"  only in replay file: {violation}")
    for violation in only_rerun:
        print(f"  only in this run:    {violation}")


def _run_replay(args: argparse.Namespace) -> int:
    payload = load_replay(args.replay)
    mutant = args.mutant if args.mutant is not None else payload.get("mutant")
    sanitize = args.sanitize or bool(payload.get("sanitize", False))
    # Old replay files have no "trace" field; default off.
    trace = args.trace or bool(payload.get("trace", False))
    spec = TrialSpec.from_dict(payload["spec"])
    if args.seed is not None and args.seed != spec.seed:
        print(f"error: --seed {args.seed} does not match the replay "
              f"file's seed {spec.seed}", file=sys.stderr)
        return 2
    result = run_trial(spec, mutant=mutant, sanitize=sanitize,
                       trace=trace)
    _print_result(result, args.verbose)
    recorded = payload.get("fingerprint")
    if recorded is not None:
        if result.fingerprint() == recorded:
            print(f"fingerprint matches replay file ({recorded})")
        else:
            print(f"fingerprint MISMATCH: got {result.fingerprint()}, "
                  f"replay file recorded {recorded}")
            _print_violation_diff(payload.get("violations", []),
                                  [str(v) for v in result.violations])
            return 1
    return 0 if result.ok else 1


def _run_sweep(args: argparse.Namespace) -> int:
    seeds = ([args.seed] if args.seed is not None
             else range(args.start, args.start + args.seeds))
    clean = 0
    for seed in seeds:
        spec = derive_spec(seed)
        result = run_trial(spec, mutant=args.mutant,
                           sanitize=args.sanitize, trace=args.trace)
        if args.verbose or not result.ok:
            _print_result(result, args.verbose)
        if not result.ok:
            _handle_failure(spec, result, args)
            return 1
        clean += 1
        if not args.verbose and clean % 10 == 0:
            print(f"{clean} seed(s) clean...", flush=True)
    print(f"all {clean} trial(s) "
          + ("sanitizer- and invariant-clean" if args.sanitize
             else "invariant-clean")
          + (f" under mutant {args.mutant!r} — the checkers may have "
             f"lost their teeth" if args.mutant else ""))
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.chaos",
        description="Deterministic, seed-replayable chaos trials for the "
                    "Gemini protocol.")
    parser.add_argument("--seed", type=int, default=None,
                        help="run the single trial derived from this seed")
    parser.add_argument("--seeds", type=int, default=None, metavar="N",
                        help="sweep N consecutive seeds (default start 0)")
    parser.add_argument("--start", type=int, default=0,
                        help="first seed of a --seeds sweep")
    parser.add_argument("--replay", default=None, metavar="FILE",
                        help="re-run a replay file written by a failing "
                             "sweep")
    parser.add_argument("--mutant", default=None, choices=sorted(MUTANTS),
                        help="run against a deliberately re-broken protocol "
                             "variant")
    parser.add_argument("--list-mutants", action="store_true",
                        help="list available protocol mutants and exit")
    parser.add_argument("--sanitize", action="store_true",
                        help="run trials under the interleaving sanitizer; "
                             "findings count as violations")
    parser.add_argument("--trace", action="store_true",
                        help="run trials under the GeminiTrace tracer; "
                             "trace well-formedness problems count as "
                             "violations")
    parser.add_argument("--out", default="chaos-repro.json", metavar="FILE",
                        help="replay file written on failure "
                             "(default %(default)s)")
    parser.add_argument("--no-shrink", action="store_true",
                        help="skip schedule minimization on failure")
    parser.add_argument("--shrink-budget", type=int, default=64,
                        help="max extra trials the shrinker may run")
    parser.add_argument("-v", "--verbose", action="store_true",
                        help="print a summary line for every trial")
    args = parser.parse_args(argv)

    if args.list_mutants:
        for name in sorted(MUTANTS):
            print(name)
        return 0
    if args.replay is not None:
        return _run_replay(args)
    if args.seed is None and args.seeds is None:
        parser.print_usage(sys.stderr)
        print("error: one of --seed, --seeds, --replay, --list-mutants "
              "is required", file=sys.stderr)
        return 2
    return _run_sweep(args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
