"""Every configuration-adoption path drops stale dirty-list copies.

A client keeps a per-fragment copy of the dirty list while the fragment
is in recovery mode. A copy that outlives the recovery it was fetched in
hides keys dirtied later, and a read trusting it serves a stale value.
The copies must therefore go whenever a configuration shows the fragment
out of recovery — whichever path delivered that configuration — and
whenever the client skipped configurations it cannot see past.
"""

from repro.client.client import GeminiClient
from repro.config.configuration import Configuration, FragmentInfo
from repro.recovery.policies import GEMINI_O
from repro.sim.core import Simulator
from repro.sim.rng import RngRegistry
from repro.types import FragmentMode
from tests.conftest import StubTransport


def config(config_id, mode):
    fragment = FragmentInfo(
        fragment_id=0, primary="cache-0",
        secondary=None if mode is FragmentMode.NORMAL else "cache-1",
        mode=mode, cfg_id=1, episode=0 if mode is FragmentMode.NORMAL else 2)
    return Configuration(config_id, [fragment])


def client_holding_a_copy():
    sim = Simulator()
    transport = StubTransport(sim)
    client = GeminiClient(sim, transport, GEMINI_O,
                          rng=RngRegistry(1).stream("client"))
    client.on_config(config(3, FragmentMode.RECOVERY))
    client._dirty[0] = {"user0000000007"}
    return sim, transport, client


def test_refresh_to_normal_drops_the_copy():
    sim, transport, client = client_holding_a_copy()
    transport.replies["get_config"] = config(4, FragmentMode.NORMAL)
    sim.run_until(sim.process(client._refresh_config()))
    assert client.config.config_id == 4
    assert 0 not in client._dirty


def test_bootstrap_to_normal_drops_the_copy():
    sim, transport, client = client_holding_a_copy()
    transport.replies["get_config"] = config(4, FragmentMode.NORMAL)
    sim.run_until(sim.process(client.bootstrap()))
    assert 0 not in client._dirty


def test_push_in_recovery_keeps_the_copy():
    __, __, client = client_holding_a_copy()
    client.on_config(config(4, FragmentMode.RECOVERY))
    assert client._dirty[0] == {"user0000000007"}


def test_skipped_configurations_drop_the_copy():
    # Config 4 (NORMAL) and 5 (TRANSIENT again) were never seen: by 6 the
    # fragment is recovering from a second outage whose dirty keys the
    # copy from the first one lacks.
    __, __, client = client_holding_a_copy()
    client.on_config(config(6, FragmentMode.RECOVERY))
    assert 0 not in client._dirty
