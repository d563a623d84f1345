"""tools/bench_record.py: perfbench output to BENCH_*.json rows.

No benchmark runs here: the parser gets a canned two-line output.
"""

import importlib.util
import json
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[2]


def _load_tool():
    spec = importlib.util.spec_from_file_location(
        "bench_record_tool", REPO / "tools" / "bench_record.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


br = _load_tool()

EXACT = {"cache_requests": 617506, "config_commits": 8, "events": 631775,
         "evictions": 493, "kernel_steps": 3164476, "keys_repaired": 99,
         "messages": 631019, "ops": 601799}
SIM_OUTPUT = "\n".join([
    "perfbench: a line of progress on stdout",
    json.dumps({"detail": {
        "exact": EXACT, "wall_s": 13.2,
        "host": {"ops_per_s": 45000.0, "pass_ms": 41.5,
                 "cpu_ms_per_kop": 21.0}}}),
    json.dumps({"correct": True, "attempted": 601801, "failed": 0,
                "metrics": {"ops_per_s_ref": 46000.0, "hit_ratio": 0.95}}),
    "",
])


def test_parses_the_last_two_lines():
    row = br.parse_output(SIM_OUTPUT)
    assert row == {"correct": True, "attempted": 601801, "failed": 0,
                   "pass_ms": 41.5, "exact": EXACT,
                   "metrics": {"ops_per_s_ref": 46000.0, "hit_ratio": 0.95}}


def test_live_output_has_no_exact_counts():
    live = "\n".join([
        json.dumps({"detail": {"host": {"pass_ms": 40.0}}}),
        json.dumps({"correct": False, "attempted": 10, "failed": 1,
                    "metrics": {"ops_per_s_ref": 5000.0}})])
    row = br.parse_output(live)
    assert "exact" not in row
    assert row["correct"] is False and row["pass_ms"] == 40.0


def test_short_output_is_an_error():
    with pytest.raises(ValueError):
        br.parse_output('{"correct": true}\n')


def test_rows_append_one_per_line(tmp_path):
    path = tmp_path / "BENCH_sim.json"
    br.append_rows(path, [{"sha": "a", "seed": 901}])
    br.append_rows(path, [{"sha": "b", "seed": 901}, {"sha": "b", "seed": 902}])
    assert json.loads(path.read_text()) == [
        {"sha": "a", "seed": 901}, {"sha": "b", "seed": 901},
        {"sha": "b", "seed": 902}]
    assert path.read_text().count("\n") == 5  # brackets + one row a line


def test_suite_files_live_at_the_repo_root():
    assert br.bench_file("sim_failure_timeline") == REPO / "BENCH_sim.json"
    assert br.bench_file("live_read_mostly") == REPO / "BENCH_live.json"
