"""Live throughput — real ops/s and tail latency over TCP.

Unlike every other bench in this directory, nothing here is simulated:
the cluster is real OS processes on localhost, the clock is the wall
clock, and latencies are measured end-to-end through the live TCP
transport (``repro.live``). The numbers therefore reflect the host this
runs on — they reproduce the *existence* of a working live deployment
and its Figure-6-style hit-ratio behaviour, not any absolute figure
from the paper.

Sweeps closed-loop client threads and reports ops/s, cache hit ratio,
and read-latency percentiles per step. Results land in
``benchmarks/results/live_throughput.json``.

Run standalone (``PYTHONPATH=src python benchmarks/bench_live_throughput.py``)
or via pytest-benchmark.
"""

from __future__ import annotations

import asyncio
import json
import sys
import tempfile
from typing import Any, Dict, List

from benchmarks.common import RESULTS_DIR, run_once

DURATION = 5.0
WARMUP = 2.0
THREAD_STEPS = (1, 2, 4)
RECORDS = 2_000


async def _measure(threads_per_client: int, workdir: str) -> Dict[str, Any]:
    from repro.harness.cluster import ClusterSpec
    from repro.live.harness import LiveCluster
    from repro.workload.ycsb import WorkloadSpec

    spec = ClusterSpec(num_instances=3, fragments_per_instance=4,
                       num_clients=2, num_workers=1)
    cluster = LiveCluster(spec, workdir, record_count=RECORDS)
    workload = WorkloadSpec(name="live-b", read_fraction=0.95,
                            record_count=RECORDS)
    try:
        await cluster.start()
        await cluster.run_load(WARMUP, workload=workload,
                               threads_per_client=threads_per_client)
        # Fresh recorder for the measured window: warmup misses would
        # otherwise drag the hit ratio and latency tails.
        from repro.metrics.recorder import OpRecorder
        recorder = OpRecorder(rng_registry=cluster.rng)
        cluster.recorder = recorder
        for client in cluster.clients:
            client.recorder = recorder
        load = await cluster.run_load(DURATION, workload=workload,
                                      threads_per_client=threads_per_client)
        ops = recorder.summary()
        return {
            "threads": threads_per_client * spec.num_clients,
            "ops": load.ops,
            "errors": load.errors,
            "duration_s": load.duration,
            "throughput_ops_per_s": load.throughput,
            "hit_ratio": ops["hit_ratio"],
            "mean_read_latency_s": ops["mean_read_latency"],
            "p90_read_latency_s": ops["p90_read_latency"],
            "p99_read_latency_s": ops["p99_read_latency"],
            "stale_reads": cluster.oracle.summary()["stale_reads"],
        }
    finally:
        await cluster.stop()


async def _sweep() -> List[Dict[str, Any]]:
    steps = []
    for threads in THREAD_STEPS:
        with tempfile.TemporaryDirectory(prefix="repro-live-tput-") as wd:
            steps.append(await _measure(threads, wd))
    return steps


def _report(steps: List[Dict[str, Any]]) -> Dict[str, Any]:
    report = {
        "bench": "live_throughput",
        "records": RECORDS,
        "duration_s": DURATION,
        "steps": steps,
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    out = RESULTS_DIR / "live_throughput.json"
    out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    for step in steps:
        print(f"threads={step['threads']:2d}  "
              f"{step['throughput_ops_per_s']:10,.0f} ops/s  "
              f"hit={step['hit_ratio']:.3f}  "
              f"p99={step['p99_read_latency_s'] * 1e3:.2f} ms")
    print(f"wrote {out}")
    return report


def _check(steps: List[Dict[str, Any]]) -> None:
    assert steps, "no steps measured"
    for step in steps:
        assert step["ops"] > 0, "a step issued no operations"
        assert step["stale_reads"] == 0, "live run returned stale data"
        assert step["hit_ratio"] > 0.5, (
            "cache barely hit — live read path is broken, "
            f"hit_ratio={step['hit_ratio']}")
    # More closed-loop threads must not collapse throughput (allow wide
    # slack: localhost scheduling is noisy).
    assert (steps[-1]["throughput_ops_per_s"]
            >= steps[0]["throughput_ops_per_s"] * 0.5)


def bench_live_throughput(benchmark):
    """Closed-loop thread sweep against a real 3-instance cluster."""
    steps = run_once(benchmark, lambda: asyncio.run(_sweep()))
    _report(steps)
    _check(steps)
    benchmark.extra_info["steps"] = steps


if __name__ == "__main__":
    measured = asyncio.run(_sweep())
    _report(measured)
    _check(measured)
    sys.exit(0)
