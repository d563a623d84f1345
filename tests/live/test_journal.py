"""The persistent cache's journal: append, replay, wipe and a torn tail.

In-process: a :class:`PersistentCacheInstance` on a :class:`LiveKernel`
over an event loop that never runs, journaling to ``tmp_path``. A node
killed in the middle of an append is modelled by cutting the file
inside its last record and booting a fresh instance on it.
"""

import asyncio

import pytest

from repro.cache.instance import CacheOp
from repro.live.kernel import LiveKernel
from repro.live.node import PersistentCacheInstance
from repro.live.wire import WireError
from repro.types import CACHE_MISS, Value

KEYS = ("k1", "k2", "k3", "k4")


@pytest.fixture
def loop():
    loop = asyncio.new_event_loop()
    yield loop
    loop.close()


@pytest.fixture
def journal(tmp_path):
    return tmp_path / "cache-0.journal"


def boot(loop, path):
    """A fresh instance that has replayed ``path``."""
    instance = PersistentCacheInstance(
        LiveKernel(loop), "cache-0", memory_bytes=1 << 20,
        journal_path=path)
    instance.recover()
    return instance


def kill(instance):
    """The process dies: its open journal handle goes with it."""
    instance._journal.close()


def put(instance, key, version, cfg=0):
    instance.handle_request(CacheOp(
        op="set", key=key, value=Value(version, 10), client_cfg_id=cfg))


def state(instance):
    return ({key: instance.peek(key) for key in KEYS
             if instance.contains(key)}, instance.known_config_id)


def test_put_del_and_known_records_replay(loop, journal):
    first = boot(loop, journal)
    put(first, "k1", 1)
    put(first, "k2", 2)
    first.handle_request(CacheOp(op="delete", key="k1"))
    put(first, "k3", 3, cfg=5)  # a newer configuration id: "known"
    kill(first)

    again = boot(loop, journal)
    assert state(again) == ({"k2": Value(2, 10), "k3": Value(3, 10)}, 5)
    assert again.peek("k1") is CACHE_MISS
    kill(again)


def test_recover_returns_the_entries_restored(loop, journal):
    first = boot(loop, journal)
    put(first, "k1", 1)
    put(first, "k2", 2)
    kill(first)
    fresh = PersistentCacheInstance(
        LiveKernel(loop), "cache-0", memory_bytes=1 << 20,
        journal_path=journal)
    assert fresh.recover() == 2
    kill(fresh)


def test_wipe_empties_the_journal(loop, journal):
    first = boot(loop, journal)
    put(first, "k1", 1)
    put(first, "k2", 2)
    first.wipe()
    assert journal.read_bytes() == b""
    put(first, "k3", 3)
    kill(first)

    again = boot(loop, journal)
    assert state(again) == ({"k3": Value(3, 10)}, 0)
    kill(again)


def test_torn_last_record_is_dropped_at_every_offset(loop, journal):
    first = boot(loop, journal)
    put(first, "k1", 1)
    put(first, "k2", 2)
    put(first, "k3", 3)
    kill(first)
    data = journal.read_bytes()
    last = data.rindex(b"\n", 0, len(data) - 1) + 1

    journal.write_bytes(data[:last])
    expected = boot(loop, journal)
    kill(expected)
    assert state(expected) == ({"k1": Value(1, 10), "k2": Value(2, 10)}, 0)

    for cut in range(last + 1, len(data)):
        journal.write_bytes(data[:cut])
        torn = boot(loop, journal)
        assert state(torn) == state(expected), cut
        # The fragment is gone, so the next append starts a new line.
        put(torn, "k4", 4)
        kill(torn)
        after = journal.read_bytes()
        assert after.startswith(data[:last]) and after.count(b"\n") == 3, cut
        again = boot(loop, journal)
        assert state(again) == (
            {"k1": Value(1, 10), "k2": Value(2, 10), "k4": Value(4, 10)},
            0), cut
        kill(again)


def test_corrupt_middle_record_still_raises(loop, journal):
    first = boot(loop, journal)
    put(first, "k1", 1)
    put(first, "k2", 2)
    kill(first)
    head, tail = journal.read_bytes().split(b"\n", 1)
    journal.write_bytes(head + b"\n" + b'["put", "k9"\n' + tail)
    with pytest.raises(WireError):
        boot(loop, journal)
