"""Round-trip property tests for the live wire codec.

``decode(encode(x)) == x`` must hold for every value the protocol can
put on a TCP connection: all RPC request/response dataclasses, the
verify-event type, configurations, dirty lists/pages, the CACHE_MISS
sentinel, every protocol exception — composed arbitrarily, with unicode
keys and frame-limit-sized payloads.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.dirtylist import DirtyList, DirtyPage
from repro.cache.instance import CacheOp
from repro.config.configuration import Configuration, FragmentInfo
from repro.coordinator.coordinator import CoordinatorOp
from repro.datastore.store import DataStoreOp
from repro.errors import (
    CacheError,
    CoordinatorError,
    FragmentUnavailable,
    HostUnreachable,
    InstanceDown,
    LeaseBackoff,
    RequestTimeout,
    StaleConfiguration,
)
from repro.live.wire import (
    MAX_FRAME,
    Framer,
    WireError,
    decode,
    decode_envelope,
    encode,
    encode_envelope,
    pack_frame,
)
from repro.types import CACHE_MISS, FragmentMode, Value
from repro.verify.events import ProtocolEvent

# Keys exercise the full unicode range the protocol may carry.
keys = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",)), max_size=40)
addresses = st.one_of(st.none(), keys)
small_ints = st.integers(min_value=0, max_value=2**31)
finite_floats = st.floats(allow_nan=False, allow_infinity=False)

values = st.builds(Value, version=small_ints,
                   size=st.integers(min_value=0, max_value=2**40))

fragment_infos = st.builds(
    FragmentInfo,
    fragment_id=small_ints,
    primary=keys,
    secondary=addresses,
    mode=st.sampled_from(list(FragmentMode)),
    cfg_id=small_ints,
    wst_active=st.booleans(),
    episode=small_ints,
)

dirty_pages = st.builds(
    DirtyPage,
    keys=st.lists(keys, max_size=5).map(tuple),
    cursor=small_ints,
    more=st.booleans(),
    complete=st.booleans(),
)

# JSON-shaped leaves plus the protocol's own scalar-ish values.
leaves = st.one_of(
    st.none(), st.booleans(), st.integers(), finite_floats, keys,
    st.just(CACHE_MISS), st.sampled_from(list(FragmentMode)),
    values, fragment_infos, dirty_pages,
)

payloads = st.recursive(
    leaves,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(keys, children, max_size=4),
        # Non-string keys force the escaped "map" form.
        st.dictionaries(st.integers(), children, max_size=3),
    ),
    max_leaves=12,
)

cache_ops = st.builds(
    CacheOp,
    op=keys,
    key=addresses,
    value=st.one_of(st.none(), values),
    token=st.one_of(st.none(), small_ints),
    fragment_id=st.one_of(st.none(), small_ints),
    fragment_cfg_id=small_ints,
    client_cfg_id=small_ints,
    payload=payloads,
    keys=st.one_of(st.none(), st.lists(keys, max_size=4)),
    write_cfg_id=st.one_of(st.none(), small_ints),
)

coordinator_ops = st.builds(
    CoordinatorOp, op=keys, address=addresses,
    fragment_id=st.one_of(st.none(), small_ints), payload=payloads)

datastore_ops = st.builds(
    DataStoreOp, op=keys, key=keys,
    size=st.one_of(st.none(), small_ints))

events = st.builds(
    ProtocolEvent, time=finite_floats, kind=keys,
    data=st.dictionaries(keys, payloads, max_size=4))


def configurations():
    def build(draw_result):
        instances, n = draw_result
        return Configuration.initial(instances, n)
    return st.tuples(
        st.lists(keys.filter(bool), min_size=1, max_size=4, unique=True),
        st.integers(min_value=0, max_value=12),
    ).map(build)


def dirty_lists():
    def build(args):
        fragment_id, marker, entries = args
        dirty = DirtyList(fragment_id, marker)
        for key in entries:
            dirty.append(key)
        return dirty
    return st.tuples(
        small_ints, st.booleans(),
        st.lists(keys, max_size=8),
    ).map(build)


wire_values = st.one_of(payloads, cache_ops, coordinator_ops,
                        datastore_ops, events, configurations(),
                        dirty_lists())


def assert_round_trip(value):
    decoded = decode(encode(value))
    _assert_same(value, decoded)


def _assert_same(a, b):
    assert type(a) is type(b), (a, b)
    if isinstance(a, Configuration):
        assert a.config_id == b.config_id
        assert a.fragments == b.fragments
    elif isinstance(a, DirtyList):
        assert a.fragment_id == b.fragment_id
        assert a.marker == b.marker
        assert a._keys == b._keys
        assert a._next_seq == b._next_seq
        assert a.size == b.size
    elif isinstance(a, float):
        assert a == pytest.approx(b, nan_ok=True)
    else:
        assert a == b


class TestRoundTrip:
    @settings(max_examples=300, deadline=None)
    @given(wire_values)
    def test_everything_round_trips(self, value):
        assert_round_trip(value)

    @settings(max_examples=100, deadline=None)
    @given(st.one_of(cache_ops, coordinator_ops, datastore_ops))
    def test_rpc_requests_round_trip(self, op):
        assert_round_trip(op)

    def test_cache_miss_identity_preserved(self):
        decoded = decode(encode([CACHE_MISS, None]))
        assert decoded[0] is CACHE_MISS
        assert decoded[1] is None

    def test_tuples_stay_tuples(self):
        assert decode(encode((1, ("a", 2)))) == (1, ("a", 2))
        assert decode(encode([1, 2])) == [1, 2]

    def test_reserved_key_dict_escaped(self):
        tricky = {"__t": "not-a-type", "x": 1}
        assert decode(encode(tricky)) == tricky

    def test_iqget_responses(self):
        assert decode(encode(("hit", Value(3, 100)))) == ("hit", Value(3, 100))
        assert decode(encode(("miss", 17))) == ("miss", 17)

    def test_max_size_payload(self):
        # A frame right at the practical ceiling: ~1M-key dirty page is
        # unrealistic, so use a value-heavy op near 1 MiB instead.
        big = CacheOp(op="iset", key="k" * 1000,
                      payload={"blob": "é" * 500_000})
        data = encode(big)
        assert len(data) < MAX_FRAME
        _assert_same(big, decode(data))

    def test_oversized_frame_rejected(self):
        with pytest.raises(WireError):
            pack_frame(b"x" * (MAX_FRAME + 1))

    def test_unknown_type_rejected(self):
        with pytest.raises(WireError):
            encode(object())


ERROR_SAMPLES = [
    HostUnreachable("cache-1"),
    HostUnreachable("cache-♞", message="weird host"),
    RequestTimeout("rpc to cache-0 timed out"),
    LeaseBackoff("kéy"),
    StaleConfiguration(42),
    FragmentUnavailable(7),
    InstanceDown("instance down"),
    CacheError("cache broke"),
    CoordinatorError("not master"),
]


class TestErrors:
    @pytest.mark.parametrize("error", ERROR_SAMPLES,
                             ids=lambda e: type(e).__name__)
    def test_error_round_trips(self, error):
        decoded = decode(encode(error))
        assert type(decoded) is type(error)
        assert str(decoded) == str(error)
        for attr in ("address", "key", "known_id", "fragment_id"):
            if hasattr(error, attr):
                assert getattr(decoded, attr) == getattr(error, attr)

    def test_unknown_exception_degrades_gracefully(self):
        decoded = decode(encode(ValueError("boom")))
        assert "ValueError" in str(decoded)
        assert "boom" in str(decoded)


class TestEnvelope:
    @settings(max_examples=100, deadline=None)
    @given(st.sampled_from(["request", "response", "event"]),
           st.integers(min_value=0, max_value=2**53), wire_values)
    def test_envelope_round_trips(self, kind, msg_id, payload):
        framer = Framer()
        frames = framer.feed(encode_envelope(kind, msg_id, payload,
                                             source="client-0"))
        assert len(frames) == 1
        envelope = decode_envelope(frames[0])
        assert envelope["kind"] == kind
        assert envelope["id"] == msg_id
        assert envelope["src"] == "client-0"
        _assert_same(payload, envelope["payload"])

    def test_error_envelope_carries_exception(self):
        frame = encode_envelope("error", 9, LeaseBackoff("k"))
        envelope = decode_envelope(Framer().feed(frame)[0])
        assert isinstance(envelope["payload"], LeaseBackoff)
        assert envelope["payload"].key == "k"

    def test_version_mismatch_rejected(self):
        frame = Framer().feed(pack_frame(b'{"v":99,"kind":"request"}'))[0]
        with pytest.raises(WireError, match="version"):
            decode_envelope(frame)

    def test_framer_reassembles_split_and_coalesced_frames(self):
        blob = b"".join(encode_envelope("event", i, {"i": i})
                        for i in range(5))
        framer = Framer()
        frames = []
        for offset in range(0, len(blob), 3):
            frames.extend(framer.feed(blob[offset:offset + 3]))
        assert [decode_envelope(f)["payload"]["i"] for f in frames] == \
            list(range(5))


def test_version_1_named_fields_are_rejected_not_misread():
    # A version-1 journal line: positional decoding of {field: value}
    # would build Value("version", "size") instead of failing.
    with pytest.raises(WireError, match="not positional"):
        decode(b'{"__t":"Value","f":{"version":3,"size":10}}')
