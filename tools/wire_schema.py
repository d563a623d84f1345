#!/usr/bin/env python
"""Wire-schema snapshot: the codec's contract as a committed artifact.

``ci/wire-schema.json`` is a canonical JSON description of everything
:mod:`repro.live.wire` can put on a TCP connection — the dataclass
registry (with field names), the exception registry (with constructor
attributes), the special forms, the envelope kinds and field order,
the frame cap, and ``WIRE_VERSION``. The schema is read from the codec's
source by the same extractor and compared by the same diff
(:func:`repro.analysis.flowrules.wire_schema` / ``schema_drift``) that
geminilint's GEM014 runs on every sweep; this tool is the way to
inspect and regenerate the snapshot:

* ``--check`` diffs the codec against the committed file, printing
  every difference and whether ``WIRE_VERSION`` must be bumped.
* ``--write`` regenerates the file, and refuses when the registries
  changed but ``WIRE_VERSION`` did not (old and new processes would
  speak incompatible dialects under the same version number; see
  docs/LIVE_RUNTIME.md).

Usage::

    python tools/wire_schema.py --check    # gate (CI / pre-commit)
    python tools/wire_schema.py --write    # regenerate after a bump
    python tools/wire_schema.py --write --force   # override the bump gate
"""

from __future__ import annotations

import argparse
import ast
import json
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional

REPO = Path(__file__).resolve().parent.parent
SNAPSHOT = REPO / "ci" / "wire-schema.json"
WIRE = REPO / "src" / "repro" / "live" / "wire.py"

sys.path.insert(0, str(REPO / "src"))

from repro.analysis.core import ModuleContext  # noqa: E402
from repro.analysis.flowrules import (SchemaDrift, schema_drift,  # noqa: E402
                                      wire_schema)


def build_snapshot() -> Dict[str, Any]:
    """The current codec's schema, read from its source."""
    source = WIRE.read_text(encoding="utf-8")
    ctx = ModuleContext(path=str(WIRE), source=source,
                        tree=ast.parse(source, filename=str(WIRE)))
    schema = wire_schema(ctx)
    assert schema is not None, f"{WIRE} defines no codec registries"
    return schema


def render(snapshot: Dict[str, Any]) -> str:
    return json.dumps(snapshot, indent=2, sort_keys=True) + "\n"


def load_snapshot(path: Path) -> Optional[Dict[str, Any]]:
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return None


def describe(drift: SchemaDrift) -> str:
    kind, section, name, here, there = drift
    subject = f"{section} {name}" if name else section
    if kind == "new":
        return f"{subject} is new"
    if kind == "removed":
        return f"{subject} was removed"
    return f"{subject} changed: {there} -> {here}"


def diff_problems(current: Dict[str, Any],
                  committed: Dict[str, Any]) -> List[str]:
    """Human-readable differences, most specific first."""
    return [describe(drift) for drift in schema_drift(current, committed)]


def check(snapshot_path: Path) -> int:
    current = build_snapshot()
    committed = load_snapshot(snapshot_path)
    if committed is None:
        print(f"no committed snapshot at {snapshot_path}; generate one "
              f"with: python tools/wire_schema.py --write")
        return 1
    problems = diff_problems(current, committed)
    version = current["wire_version"]
    committed_version = committed.get("wire_version")
    if problems:
        print("wire schema drifted from the committed snapshot:")
        for problem in problems:
            print(f"  {problem}")
        if version == committed_version:
            print("WIRE_VERSION was not bumped: old and new peers would "
                  "disagree under the same version number.")
            print("Fix: bump WIRE_VERSION in src/repro/live/wire.py, then "
                  "run: python tools/wire_schema.py --write")
        else:
            print("Fix: python tools/wire_schema.py --write")
        return 1
    if version != committed_version:
        print(f"WIRE_VERSION is {version} but the snapshot records "
              f"{committed_version}; regenerate with: "
              f"python tools/wire_schema.py --write")
        return 1
    print(f"wire schema matches ci/wire-schema.json "
          f"(version {version}, {len(current['dataclasses'])} dataclasses, "
          f"{len(current['errors'])} errors)")
    return 0


def write(snapshot_path: Path, force: bool) -> int:
    current = build_snapshot()
    committed = load_snapshot(snapshot_path)
    if committed is not None and not force:
        changed = bool(schema_drift(current, committed))
        if changed and current["wire_version"] == committed.get(
                "wire_version"):
            print("refusing to overwrite the snapshot: the codec changed "
                  "but WIRE_VERSION did not.")
            print("Bump WIRE_VERSION in src/repro/live/wire.py first "
                  "(or pass --force if this really is not a wire change).")
            return 1
    snapshot_path.parent.mkdir(parents=True, exist_ok=True)
    snapshot_path.write_text(render(current), encoding="utf-8")
    print(f"wrote {snapshot_path} (version {current['wire_version']})")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="check or regenerate the committed wire-schema "
                    "snapshot")
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--check", action="store_true",
                      help="diff the live codec against the snapshot")
    mode.add_argument("--write", action="store_true",
                      help="regenerate the snapshot from the live codec")
    parser.add_argument("--force", action="store_true",
                        help="with --write: skip the version-bump guard")
    parser.add_argument("--snapshot", type=Path, default=SNAPSHOT,
                        help="snapshot path (default: ci/wire-schema.json)")
    args = parser.parse_args(argv)
    if args.check:
        return check(args.snapshot)
    return write(args.snapshot, force=args.force)


if __name__ == "__main__":
    sys.exit(main())
