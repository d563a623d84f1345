"""Unit checks for the benchmark's own helpers.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

from __future__ import annotations

import json
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from repro.config.configuration import (Configuration,  # noqa: E402
                                        FragmentInfo)
from repro.live.wire import encode  # noqa: E402
from repro.types import FragmentMode, Value  # noqa: E402
from repro.verify.events import ProtocolEvent  # noqa: E402

import artifacts  # noqa: E402
import catalog  # noqa: E402
from hostspeed import REFERENCE_S, SpeedProbe, reference_pass  # noqa: E402
from procstat import (CLOCK_TICKS, ProcessLedger, node_label,  # noqa: E402
                      parse_stat, parse_vmhwm_kb)
from stats import MIN_BEYOND, percentile  # noqa: E402
from tracing import SpanLog  # noqa: E402


class PercentileTest(unittest.TestCase):
    def test_counts_samples_and_those_beyond(self):
        p = percentile([float(v) for v in range(1, 1001)], 99)
        self.assertEqual((p.value, p.samples, p.beyond), (990.0, 1000, 10))
        self.assertTrue(p.usable)

    def test_too_few_beyond_is_not_usable(self):
        p = percentile([float(v) for v in range(1, 1000)], 99)
        self.assertEqual(p.beyond, MIN_BEYOND - 1)
        self.assertFalse(p.usable)

    def test_median_of_unsorted_input(self):
        p = percentile([5.0, 1.0, 3.0, 2.0, 4.0], 50)
        self.assertEqual((p.value, p.beyond), (3.0, 2))

    def test_rejects_no_samples_and_bad_rank(self):
        with self.assertRaises(ValueError):
            percentile([], 50)
        with self.assertRaises(ValueError):
            percentile([1.0], 0)


class SpeedProbeTest(unittest.TestCase):
    def test_slowdown_is_the_median_pass_over_the_reference(self):
        probe = SpeedProbe()
        probe.samples = [3 * REFERENCE_S, REFERENCE_S, 2 * REFERENCE_S]
        self.assertEqual(probe.pass_s, 2 * REFERENCE_S)
        self.assertEqual(probe.slowdown, 2.0)

    def test_sample_records_one_pass_time(self):
        probe = SpeedProbe()
        probe.sample()
        self.assertEqual(len(probe.samples), 1)
        self.assertGreater(probe.samples[0], 0.0)
        self.assertGreater(reference_pass(), 0.0)

    def test_no_samples_is_an_error(self):
        with self.assertRaises(ValueError):
            SpeedProbe().slowdown


class SpanLogTest(unittest.TestCase):
    def test_transport_failures_leave_out_failed_sessions(self):
        log = SpanLog(lambda: 0.0)
        session = log.begin("client.write")
        log.end(log.begin("rpc.cache", session), ok=False)
        log.end(log.begin("rpc.datastore", session), ok=True)
        log.end(session, ok=False)
        self.assertEqual(log.failures("rpc."), 1)
        self.assertEqual(log.failures("client."), 1)


def _stat(pid, comm, ppid, utime, stime):
    # Fields after the command name, as in proc(5): state ppid pgrp
    # session tty_nr tpgid flags minflt cminflt majflt cmajflt utime stime.
    return (f"{pid} ({comm}) S {ppid} 1 1 0 -1 4194560 10 0 0 0 "
            f"{utime} {stime} 0 0 20 0 1 0 100 1000 10\n")


def _fake_process(root, pid, ppid, ticks, hwm_kb, argv):
    path = root / str(pid)
    path.mkdir()
    (path / "stat").write_text(_stat(pid, "py thon) x", ppid, ticks, 0))
    (path / "status").write_text(f"Name:\tpython\nVmHWM:\t{hwm_kb} kB\n")
    (path / "cmdline").write_bytes("\0".join(argv).encode() + b"\0")


class ProcStatTest(unittest.TestCase):
    def test_parse_stat_survives_odd_command_names(self):
        ppid, cpu = parse_stat(_stat(7, "a) (b", 3, 150, 50))
        self.assertEqual(ppid, 3)
        self.assertAlmostEqual(cpu, 200 / CLOCK_TICKS)

    def test_parse_vmhwm(self):
        text = "Name:\tx\nVmPeak:\t 900 kB\nVmHWM:\t  2048 kB\nVmRSS:\t 1 kB\n"
        self.assertEqual(parse_vmhwm_kb(text), 2048)
        self.assertEqual(parse_vmhwm_kb("Name:\tzombie\n"), 0)

    def test_node_label(self):
        argv = ["python", "-m", "repro.live", "node", "--role", "cache",
                "--address", "cache-0", "--port", "1"]
        self.assertEqual(node_label("\0".join(argv).encode()),
                         ("cache", "cache-0"))
        self.assertIsNone(node_label(b"python\0-c\0pass\0"))

    def test_ledger_counts_a_replacement_process_whole(self):
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            node = ["python", "--role", "cache", "--address", "cache-0"]
            _fake_process(root, 100, 1, 1000, 50_000, ["harness"])
            _fake_process(root, 101, 100, 300, 40_000, node)
            _fake_process(root, 102, 100, 70, 30_000,
                          ["python", "--role", "datastore",
                           "--address", "datastore"])
            _fake_process(root, 103, 999, 500, 1, node)  # not our child
            ledger = ProcessLedger(proc=tmp, pid=100)
            ledger.start()
            (root / "101" / "stat").write_text(
                _stat(101, "python", 100, 350, 0))
            ledger.sample()  # just before the kill
            for name in ("stat", "status", "cmdline"):
                (root / "101" / name).unlink()
            (root / "101").rmdir()
            _fake_process(root, 104, 100, 20, 45_000, node)
            (root / "100" / "stat").write_text(
                _stat(100, "python", 1, 1100, 0))
            ledger.sample()
            cpu = ledger.cpu_by_role()
            self.assertAlmostEqual(cpu["harness"], 100 / CLOCK_TICKS)
            self.assertAlmostEqual(cpu["cache"], (50 + 20) / CLOCK_TICKS)
            self.assertAlmostEqual(cpu["datastore"], 0.0)
            # cache-0's peak is its larger incarnation's.
            self.assertAlmostEqual(ledger.peak_rss_mb(),
                                   (50_000 + 45_000 + 30_000) / 1024)


def _config(config_id, modes, wst=()):
    fragments = []
    for fid, mode in enumerate(modes):
        primary = f"cache-{fid % 2}"
        fragments.append(FragmentInfo(
            fragment_id=fid, primary=primary,
            secondary="cache-1" if mode is FragmentMode.TRANSIENT else None,
            mode=mode, cfg_id=config_id, wst_active=fid in wst))
    return Configuration(config_id, fragments)


class ArtifactTest(unittest.TestCase):
    def test_journal_bytes_and_records_between_snapshots(self):
        with tempfile.TemporaryDirectory() as tmp:
            workdir = Path(tmp)
            journal = workdir / "cache-0.journal"
            first = encode(["put", "k1", Value(1, 10), 1, 10]) + b"\n"
            journal.write_bytes(first)
            (workdir / "cache-1.journal").write_bytes(b"")
            before = artifacts.file_sizes(workdir, artifacts.JOURNALS)
            more = (encode(["del", "k1"]) + b"\n"
                    + encode(["known", 3]) + b"\n")
            with open(journal, "ab") as handle:
                handle.write(more + b'["put","k2"')  # torn by a SIGKILL
            after = artifacts.file_sizes(workdir, artifacts.JOURNALS)
            self.assertEqual(artifacts.grown_bytes(before, after),
                             len(more) + len(b'["put","k2"'))
            self.assertEqual(
                artifacts.journal_records(workdir, before, after), 2)
            self.assertEqual(artifacts.journal_records(workdir, {}, after), 3)

    def test_wiped_journal_counts_from_zero(self):
        self.assertEqual(artifacts.grown_bytes({"a": 100}, {"a": 30}), 30)

    def test_event_log_and_phase_times(self):
        normal = FragmentMode.NORMAL
        initial = _config(1, [normal] * 4)
        commits = [
            (100.5, _config(2, [FragmentMode.TRANSIENT, normal] * 2)),
            (102.0, _config(3, [FragmentMode.RECOVERY, normal] * 2,
                            wst=(0, 2))),
            (102.6, _config(4, [normal] * 4)),
        ]
        lines = []
        for wall, config in commits:
            event = ProtocolEvent(wall - 90.0, "config_commit",
                                  {"actor": "coordinator", "config": config})
            lines.append((wall, event))
        lines.insert(2, (102.4, ProtocolEvent(12.4, "dirty_done",
                                               {"fragment_id": 2})))
        lines.insert(0, (99.0, ProtocolEvent(9.0, "dirty_done",
                                              {"fragment_id": 0})))
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "coordinator.events.jsonl"
            with open(path, "w", encoding="utf-8") as out:
                for wall, event in lines:
                    out.write(json.dumps({
                        "wall": wall,
                        "event": json.loads(encode(event))}) + "\n")
                out.write('{"wall": 103.0, "ev')  # torn tail
            events = artifacts.read_events(path, since=99.5)
        self.assertEqual([e.time for e in events],
                         [100.5, 102.0, 102.4, 102.6])
        phases = artifacts.recovery_phases(initial, events, "cache-0", 100.0)
        self.assertEqual(phases.detected_at, 100.5)
        self.assertEqual(phases.recovery_at, 102.0)
        self.assertEqual(phases.repaired_at, 102.4)
        self.assertEqual(phases.wst_off_at, 102.6)
        self.assertEqual(phases.normal_at, 102.6)
        self.assertEqual(phases.commits, 3)
        self.assertEqual(artifacts.since(phases.recovery_at, None), 0.0)

    def test_replayed_entries(self):
        events = [ProtocolEvent(1.0, "journal_replayed", {"entries": 42}),
                  ProtocolEvent(1.0, "config_observed", {})]
        self.assertEqual(artifacts.replayed_entries(events), 42)


class CatalogTest(unittest.TestCase):
    def test_benchmark_json_lists_the_catalog(self):
        spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]},
                         catalog.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]},
                         catalog.PER_LAYER)

    def test_complete_fills_every_metric(self):
        out = catalog.complete({"setup_s": 1.5}, catalog.END_TO_END)
        self.assertEqual(list(out), list(catalog.END_TO_END))
        self.assertEqual(out["setup_s"], {"value": 1.5, "unit": "s"})
        self.assertEqual(out["recovery_s"]["value"], 0.0)


if __name__ == "__main__":
    unittest.main()
