"""Every metric the benchmark reports, with its unit.

``BENCHMARK.json`` lists the same names; ``test_perfbench`` checks the
two agree. A metric that does not apply to a workload (a live layer on
the sim workload, a sim layer on a live one) is reported as 0.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from stats import Percentile, percentile

END_TO_END: Dict[str, str] = {
    "setup_s": "s",
    "ops_per_s_ref": "1/s",
    "read_p50_ms_ref": "ms",
    "write_p50_ms_ref": "ms",
    "cpu_ms_per_kop_ref": "ms/kop",
    "peak_rss_mb": "MiB",
    "hit_ratio": "ratio",
    "ok_ops_ratio": "ratio",
    "recovery_s": "s",
}

PER_LAYER: Dict[str, str] = {
    "client.read_self_us": "us",
    "client.write_self_us": "us",
    "client.retries_per_kop": "1/kop",
    "live.transport.calls_per_op": "1/op",
    "live.transport.rtt_cache_p50_us": "us",
    "live.transport.rtt_datastore_p50_us": "us",
    "live.transport.rtt_coordinator_p50_us": "us",
    "live.transport.failed_per_kop": "1/kop",
    "live.wire.encode_us": "us",
    "live.wire.decode_us": "us",
    "live.wire.bytes_per_op": "B/op",
    "live.kernel.steps_per_op": "1/op",
    "live.harness.loop_lag_p99_ms": "ms",
    "cpu.harness_ms_per_kop": "ms/kop",
    "cpu.cache_ms_per_kop": "ms/kop",
    "cpu.datastore_ms_per_kop": "ms/kop",
    "cpu.coordinator_ms_per_kop": "ms/kop",
    "live.node.journal_bytes_per_kop": "B/kop",
    "live.node.journal_records_per_kop": "1/kop",
    "live.node.eventlog_bytes_per_kop": "B/kop",
    "live.node.restart_ready_s": "s",
    "live.node.replay_entries": "count",
    "coordinator.detect_s": "s",
    "coordinator.config_commits": "count",
    "recovery.repair_s": "s",
    "recovery.wst_s": "s",
    "recovery.keys_repaired": "count",
    "recovery.keys_degraded": "count",
    "recovery.batches": "count",
    "datastore.reads_per_kop": "1/kop",
    "datastore.writes_per_kop": "1/kop",
    "cache.requests_per_op": "1/op",
    "cache.handle_us": "us",
    "cache.handle_iqget_us": "us",
    "cache.handle_iqset_us": "us",
    "cache.handle_qareg_us": "us",
    "cache.handle_dar_us": "us",
    "cache.evictions_per_kop": "1/kop",
    "sim.steps_per_op": "1/op",
    "sim.events_per_op": "1/op",
    "sim.network.messages_per_op": "1/op",
    "sim.step_us": "us",
    "verify.emits_per_op": "1/op",
    "verify.emit_us": "us",
    "verify.oracle_us_per_op": "us/op",
    "metrics.recorder_us_per_op": "us/op",
    "trace.ops_per_s": "1/s",
    "trace.overhead_pct": "%",
}

#: (name, OpTimer attribute, percentile, reported as a metric). The
#: tails only go to the detail line: on a shared 2-vCPU host the live
#: p90s moved by 40-60 % and the p99s by more between runs of the same
#: code, so no bound could hold them.
LATENCIES: List[Tuple[str, str, float, bool]] = [
    ("read_p50_ms", "reads", 50, True), ("read_p90_ms", "reads", 90, False),
    ("read_p99_ms", "reads", 99, False),
    ("write_p50_ms", "writes", 50, True),
    ("write_p90_ms", "writes", 90, False),
    ("write_p99_ms", "writes", 99, False)]


def latency_metrics(timer) -> Tuple[Dict[str, float], Dict[str, Dict],
                                    List[str]]:
    """Percentiles of an :class:`optimer.OpTimer` in ms, the detail of
    each (value, samples, samples beyond it), and a problem for each
    reported percentile with too few samples beyond it."""
    values: Dict[str, float] = {}
    detail: Dict[str, Dict] = {}
    problems: List[str] = []
    for name, attr, q, reported in LATENCIES:
        samples = getattr(timer, attr)
        if not samples:
            if reported:
                problems.append(f"{name}: no samples")
            continue
        p: Percentile = percentile(samples, q)
        detail[name] = {"value": p.value * 1e3, "samples": p.samples,
                        "beyond": p.beyond}
        if reported:
            values[name] = p.value * 1e3
            if not p.usable:
                problems.append(
                    f"{name}: only {p.beyond} samples beyond it")
    return values, detail, problems


def complete(values: Dict[str, float],
             catalog: Dict[str, str]) -> Dict[str, Dict[str, object]]:
    """``values`` in catalog order as ``{name: {value, unit}}``; a
    metric the workload does not produce reads 0."""
    return {name: {"value": float(values.get(name, 0.0)), "unit": unit}
            for name, unit in catalog.items()}
