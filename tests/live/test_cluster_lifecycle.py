"""LiveCluster boot and teardown against real node processes.

Boot: every node binds a port of its own choosing and announces it on
its READY line, so no port is picked before the node that binds it
starts. Teardown: ``stop`` must end the harness-side processes the
cluster scheduled on its kernel (the config poller and every recovery
worker), not only the node processes.
"""

import asyncio
import json

from repro.harness.cluster import ClusterSpec
from repro.live.harness import LiveCluster


def test_boot_records_announced_ports_and_stop_ends_harness_processes(
        tmp_path):
    spec = ClusterSpec(num_instances=1, fragments_per_instance=2,
                       num_clients=1, num_workers=2)
    cluster = LiveCluster(spec, str(tmp_path), record_count=10)

    async def scenario():
        await cluster.start()
        try:
            registry = json.loads(cluster.registry_path.read_text())
            assert set(registry) == {"datastore", "cache-0", "coordinator"}
            assert all(port > 0 for __, port in registry.values())
            assert {a: tuple(e) for a, e in registry.items()} \
                == cluster.registry
            config = await cluster.get_config()
            assert config.num_fragments == 2
            names = {process.name
                     for process in cluster.kernel._live_processes}
            assert {"config-poller", "worker-0", "worker-1"} <= names
        finally:
            await cluster.stop()
        return {process.name for process in cluster.kernel._live_processes
                if not process.triggered}

    alive = asyncio.run(scenario())
    assert not alive & {"config-poller", "worker-0", "worker-1"}
