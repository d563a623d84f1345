#!/usr/bin/env python
"""Run the repo benchmark and append one row per run to BENCH_<suite>.json.

    python tools/bench_record.py --workload sim_failure_timeline \\
        --seeds 901 902 903
    python tools/bench_record.py --workload live_read_mostly --seeds 1 \\
        --seconds 60 --tree ../checkout-of-another-commit

Each run is ``perfbench/run.py --workload W --seed S --seconds N
--trace 0``, run by this interpreter as a subprocess from the root of
``--tree`` (default: this repository), so a row measures that tree's
program. Rows go to ``BENCH_sim.json`` or ``BENCH_live.json`` at the
root of *this* repository: a JSON list, one row per line, so that every
recorded run is a one-line diff. A row holds the git sha of the tree measured, the
Python version, the host speed probe's ``pass_ms``, the end-to-end
metrics and, for the sim, its ``exact`` counts (identical for a seed
unless the simulated behaviour changed).

A perf claim then reads as a diff of these files: rows of the parent
and of the change, run alternately on the same host.
"""

from __future__ import annotations

import argparse
import json
import platform
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional

REPO = Path(__file__).resolve().parent.parent
SUITES = {"sim_failure_timeline": "sim", "live_read_mostly": "live"}


def bench_file(workload: str, root: Path = REPO) -> Path:
    return root / f"BENCH_{SUITES[workload]}.json"


def parse_output(stdout: str) -> Dict[str, Any]:
    """The row fields perfbench's output gives: its last line holds the
    result, the line before it the detail."""
    lines = [line for line in stdout.splitlines() if line.strip()]
    if len(lines) < 2:
        raise ValueError("perfbench printed fewer than two lines")
    detail = json.loads(lines[-2])["detail"]
    result = json.loads(lines[-1])
    row: Dict[str, Any] = {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "pass_ms": detail["host"]["pass_ms"],
        "metrics": result["metrics"],
    }
    if "exact" in detail:
        row["exact"] = detail["exact"]
    return row


def append_rows(path: Path, rows: List[Dict[str, Any]]) -> None:
    """Append ``rows`` to the JSON list in ``path``, one row per line."""
    existing: List[Dict[str, Any]] = (
        json.loads(path.read_text(encoding="utf-8")) if path.exists()
        else [])
    existing.extend(rows)
    body = ",\n".join(json.dumps(row, sort_keys=True) for row in existing)
    path.write_text(f"[\n{body}\n]\n", encoding="utf-8")


def git_sha(tree: Path) -> str:
    sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=tree, check=True,
                         capture_output=True, text=True).stdout.strip()
    dirty = subprocess.run(["git", "status", "--porcelain", "--", "src",
                            "perfbench"], cwd=tree, check=True,
                           capture_output=True, text=True).stdout.strip()
    return f"{sha}-dirty" if dirty else sha


def run_once(tree: Path, workload: str, seed: int,
             seconds: float) -> Dict[str, Any]:
    command = [sys.executable, "perfbench/run.py", "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds),
               "--trace", "0"]
    done = subprocess.run(command, cwd=tree, capture_output=True, text=True)
    if done.returncode not in (0, 1):  # 1: ran, but a check failed
        sys.stderr.write(done.stderr)
        raise RuntimeError(f"{' '.join(command)} exited {done.returncode}")
    return {"sha": git_sha(tree), "python": platform.python_version(),
            "workload": workload, "seed": seed, "seconds": seconds,
            **parse_output(done.stdout)}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(SUITES))
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--tree", type=Path, default=REPO,
                        help="root of the checkout to measure")
    args = parser.parse_args(argv)
    path = bench_file(args.workload)
    for seed in args.seeds:
        row = run_once(args.tree.resolve(), args.workload, seed,
                       args.seconds)
        append_rows(path, [row])
        print(f"{row['sha'][:12]} seed={seed} correct={row['correct']} "
              f"ops_per_s_ref={row['metrics'].get('ops_per_s_ref')}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
