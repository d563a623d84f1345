"""The client's configuration and its session loop, against a stub transport.

The client holds the newest configuration it has seen: it adopts only a
strictly newer one, a session started before any configuration has
nothing to route by, and every attempt routes by the configuration held
when it starts. A write owes the data store at most one transaction per
session, however often its attempts bounce afterwards.
"""

import pytest

from repro.client.client import GeminiClient
from repro.config.configuration import Configuration
from repro.errors import FragmentUnavailable, ReproError, StaleConfiguration
from repro.obs.trace import Tracer
from repro.recovery.policies import GEMINI_O
from repro.sim.core import Simulator
from repro.sim.rng import RngRegistry
from repro.types import Value
from tests.conftest import StubTransport

KEY = "user0000000001"


def new_client():
    sim = Simulator()
    transport = StubTransport(sim)
    client = GeminiClient(sim, transport, GEMINI_O,
                          rng=RngRegistry(1).stream("client"))
    return sim, transport, client


def run(sim, generator):
    return sim.run_until(sim.process(generator), limit=60.0)


class TestConfiguration:
    def test_session_without_configuration_is_unavailable(self):
        sim, transport, client = new_client()
        assert client.config is None
        with pytest.raises(FragmentUnavailable):
            run(sim, client.read(KEY))
        with pytest.raises(FragmentUnavailable):
            run(sim, client.write(KEY))
        assert transport.calls == []

    def test_adopts_a_newer_configuration(self):
        __, __, client = new_client()
        assert client._adopt(Configuration.initial(["a"], 2, config_id=1))
        assert client.config.config_id == 1

    def test_rejects_an_older_or_equal_configuration(self):
        __, __, client = new_client()
        client.on_config(Configuration.initial(["a"], 2, config_id=5))
        assert not client._adopt(Configuration.initial(["a"], 2, config_id=5))
        assert not client._adopt(Configuration.initial(["a"], 2, config_id=4))
        assert client.config.config_id == 5

    def test_adopting_none_is_a_noop(self):
        __, __, client = new_client()
        assert not client._adopt(None)
        assert client.config is None

    def test_sessions_route_by_the_newest_configuration(self):
        sim, transport, client = new_client()
        transport.replies["iqget"] = ("hit", Value(version=1, size=10))
        client.on_config(Configuration.initial(["a"], 4, config_id=1))
        run(sim, client.read(KEY))
        client.on_config(Configuration.initial(["b"], 4, config_id=2))
        run(sim, client.read(KEY))
        assert transport.addresses("iqget") == ["a", "b"]


class TestWriteBouncingAfterItsStoreTransaction:
    """Every ``dar`` bounces, so every attempt fails after the store."""

    ATTEMPTS = 3

    @pytest.fixture
    def outcome(self):
        sim, transport, client = new_client()
        config = Configuration.initial(["a"], 4, config_id=1)
        client.on_config(config)
        client.MAX_ATTEMPTS = self.ATTEMPTS
        transport.replies.update({
            "qareg": 7,
            "write": Value(version=2, size=10),
            "dar": StaleConfiguration(2),
            "get_config": config,
        })
        tracer = Tracer(sim)
        tracer.install()
        try:
            with pytest.raises(ReproError, match="exhausted retries") as err:
                run(sim, client.write(KEY, size=10))
            spans = tracer.finish()
        finally:
            tracer.uninstall()
        return transport, client, err.value, spans

    def test_issues_one_store_transaction(self, outcome):
        transport, __, __, __ = outcome
        assert transport.addresses("write") == ["datastore"]
        assert len(transport.addresses("dar")) == self.ATTEMPTS

    def test_raises_and_commits_nothing(self, outcome):
        __, client, error, __ = outcome
        assert f"write of {KEY!r}" in str(error)
        assert client.writes_completed == 0

    def test_session_span_ends_in_error(self, outcome):
        __, __, __, spans = outcome
        session = [span for span in spans if span.kind == "session"]
        assert [(span.name, span.status) for span in session] \
            == [("write", "error")]
        assert session[0].attrs["attempts"] == self.ATTEMPTS
        attempts = [span.status for span in spans if span.kind == "attempt"]
        assert attempts == ["stale-config"] * self.ATTEMPTS
