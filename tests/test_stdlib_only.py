"""The program needs nothing beyond the standard library.

``pyproject.toml`` declares ``dependencies = []``; numpy is in the
``dev`` extra only, for the reference tests. Run in a fresh interpreter
so that modules another test imported do not hide an import.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

#: What the CI jobs and the benchmark import: the live demo and nodes,
#: the chaos CLI, the sim scenarios, the trace report, the workloads.
ENTRY_POINTS = ("repro.live.__main__", "repro.chaos.cli",
                "repro.harness.scenarios", "repro.obs", "repro.workload")


def test_entry_points_import_without_numpy():
    # A None entry in sys.modules makes ``import numpy`` raise
    # ModuleNotFoundError, as on a runner without numpy installed.
    code = "import sys\nsys.modules['numpy'] = None\n" + "".join(
        f"import {module}\n" for module in ENTRY_POINTS)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
