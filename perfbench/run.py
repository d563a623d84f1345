"""Run one benchmark workload and print its result as one JSON line.

    python3 perfbench/run.py --workload live_read_mostly --seed 1 \\
        --seconds 20 --trace 0

Run from the repository root. ``--trace 0`` prints the end-to-end
metrics, ``--trace 1`` the per-layer ones (and writes the spans to
``.perfbench/traces/``). The last line of standard output is
``{"correct", "attempted", "failed", "metrics"}``; the line before it
holds sample counts and other detail. A failed correctness check sets
``correct`` to false, names the check on standard error, and exits 1.
"""

from __future__ import annotations

import argparse
import json
import shutil
import signal
import sys
from pathlib import Path
from typing import Any, Dict

import catalog

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

LIVE = ("live_read_mostly",)
SIM = ("sim_failure_timeline",)


def _parse(argv: Any) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=LIVE + SIM)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _exit_on_sigterm(signum: int, frame: Any) -> None:
    # Unwinds through the workload's cleanup, which stops the nodes.
    sys.exit(128 + signum)


def main(argv: Any = None) -> int:
    args = _parse(argv)
    signal.signal(signal.SIGTERM, _exit_on_sigterm)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to measure under {SRC}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    scratch = ROOT / ".perfbench"
    trace_path = scratch / "traces" / f"{args.workload}-seed{args.seed}.jsonl"
    # The workload modules import the program, so only now.
    if args.workload in SIM:
        import sim
        raw = sim.run(args.seed, bool(args.trace), trace_path)
    else:
        import live
        workdir = scratch / "work" / f"{args.workload}-seed{args.seed}"
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            raw = live.run(args.seed, args.seconds, bool(args.trace),
                           workdir, trace_path)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)

    values: Dict[str, float] = raw["layer"] if args.trace else raw["metrics"]
    wanted = catalog.PER_LAYER if args.trace else catalog.END_TO_END
    unknown = sorted(set(values) - set(wanted))
    if unknown:
        raise KeyError(f"metrics outside the catalog: {unknown}")
    for problem in raw["problems"]:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)
    correct = not raw["problems"]
    print(json.dumps({"detail": raw["detail"]}, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": int(raw["attempted"]),
        "failed": int(raw["failed"]),
        "metrics": catalog.complete(values, wanted),
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
