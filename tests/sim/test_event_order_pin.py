"""Pins the exact event order of a scaled-down Figure-7 run.

A cache-0 failure at 2 s, a 2 s outage and a 4 s tail over 1,000
records (Gemini-O+W, the cache at 60 % of the database so eviction
runs). Every count below and the digest of the recorder's summary and
per-second series plus the ``(time, kind)`` protocol-event stream were
taken from the kernel before its fast path (one Event and three real
steps per RPC, fused zero-delay steps; see docs/DETERMINISM.md, "Kernel
hot path"). A kernel change that reorders any callback moves at least
one of them; a change that only makes the kernel cheaper moves none.
``events`` is deliberately not pinned: it counts allocations, not order.

The values were taken under Python 3.11.7. The key ranks come from a
Zipf CDF built with CPython's float ``**`` (the platform libm's ``pow``),
so a libm that rounds ``pow`` differently moves them too.
"""

import hashlib
import json

import pytest

from repro.harness.scenarios import YcsbScenario, build_ycsb_experiment
from repro.recovery.policies import GEMINI_O_W

SCENARIO = YcsbScenario(policy=GEMINI_O_W, update_fraction=0.05, threads=2,
                        records=1_000, zipf_theta=0.8, fail_at=2.0,
                        outage=2.0, tail=4.0, seed=11)

EXPECTED = {
    "ops": 48811,
    "messages": 63673,
    "cache_requests": 57451,
    "evictions": 231,
    "keys_repaired": 34,
    "config_commits": 11,
    "steps": 323182,
    "digest": ("fd264f1b752153e7f3c42bd814c5362f"
               "0fd9ce3536824da7b728e816500545a7"),
}


def _evictions(cluster):
    return sum(i.stats.evictions for i in cluster.instances.values())


def _run():
    cluster, workload, experiment = build_ycsb_experiment(SCENARIO)
    cluster.spec.cache_db_ratio = 0.6
    cluster.size_memory_for(SCENARIO.records * (SCENARIO.record_size + 100))
    cluster.warm_cache(workload.keyspace.active_keys())
    warm_evictions = _evictions(cluster)
    steps_before = cluster.sim.counters.steps
    experiment.run()
    recorder = cluster.recorder
    series = {
        "throughput": recorder.throughput.counts(),
        "hit_ratio": recorder.hit_ratio.ratio_series(),
        "read_p90": recorder.read_latency.percentile_series(90),
        "write_p50": recorder.write_latency.percentile_series(50),
        "per_instance": {name: counter.ratio_series() for name, counter
                         in sorted(recorder.per_instance_hits.items())},
    }
    stream = [(event.time, event.kind) for event in cluster.events.events]
    blob = json.dumps([recorder.summary(), series, stream], sort_keys=True)
    events = cluster.events.events
    return {
        "ops": recorder.ops(),
        "messages": cluster.network.messages_sent,
        "cache_requests": sum(count for (__, dst), count
                              in cluster.network.link_messages.items()
                              if dst.startswith("cache-")),
        "evictions": _evictions(cluster) - warm_evictions,
        "keys_repaired": cluster.recovery_recorder.summary()["keys_repaired"],
        "config_commits": sum(1 for e in events if e.kind == "config_commit"),
        "steps": cluster.sim.counters.steps - steps_before,
        "digest": hashlib.sha256(blob.encode()).hexdigest(),
    }


@pytest.fixture(scope="module")
def observed():
    return _run()


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_pinned(observed, name):
    assert observed[name] == EXPECTED[name]


def test_run_exercises_recovery(observed):
    # The pin means something only if the run crosses every phase.
    assert observed["evictions"] > 0
    assert observed["keys_repaired"] > 0
    assert observed["config_commits"] >= 3
