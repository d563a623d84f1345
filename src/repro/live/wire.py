"""Versioned, self-describing wire codec and frame protocol.

Everything that crosses a live TCP connection — RPC requests, responses,
handler exceptions, and verify-stream events — is encoded here. The
format is JSON with a type-tag convention: any non-primitive value is a
JSON object carrying ``"__t"`` naming its wire type, so a decoder can
reconstruct the exact Python object (including tuples, which plain JSON
would silently flatten to lists, and the ``CACHE_MISS`` sentinel, which
is semantically distinct from ``None``). A registered dataclass travels
as ``{"__t": name, "f": [field values]}`` in the declaration order of
its fields, so field order is part of the contract (the schema snapshot
records it).

Frames are ``4-byte big-endian length ‖ payload`` with a hard size cap;
every frame is one *envelope*, a JSON array in :data:`ENVELOPE_FIELDS`
order::

    [v, kind, id, src, payload]

with ``kind`` one of :data:`ENVELOPE_KINDS`, ``id`` correlating a
request with its response, and ``src`` the caller's identity (or
``null``). ``v`` is checked on decode: a peer speaking a different wire
version is rejected up front instead of failing mysteriously
mid-protocol.

The codec is deliberately closed-world: encoding an unknown type raises
:class:`WireError` rather than guessing, so adding an RPC payload type
forces a conscious entry in the tables below (and in the round-trip
property test that fuzzes all of them).
"""

from __future__ import annotations

import dataclasses
import json
from operator import attrgetter
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.cache.dirtylist import DirtyList, DirtyPage
from repro.cache.instance import CacheOp
from repro.config.configuration import Configuration, FragmentInfo
from repro.coordinator.coordinator import CoordinatorOp
from repro.datastore.store import DataStoreOp
from repro.errors import (
    CacheError,
    ConsistencyViolation,
    CoordinatorError,
    FragmentUnavailable,
    HostUnreachable,
    InstanceDown,
    LeaseBackoff,
    LeaseVoided,
    NetworkError,
    ReproError,
    RequestTimeout,
    SimulationError,
    StaleConfiguration,
    WorkloadError,
)
from repro.types import CACHE_MISS, FragmentMode, Value
from repro.verify.events import ProtocolEvent

__all__ = ["WIRE_VERSION", "MAX_FRAME", "ENVELOPE_KINDS", "ENVELOPE_FIELDS",
           "WIRE_SPECIAL_FORMS", "WireError", "encode", "decode",
           "pack_frame", "Framer", "encode_envelope", "decode_envelope"]

#: Bump on any incompatible change to the codec or envelope. The
#: committed ``ci/wire-schema.json`` snapshot (tools/wire_schema.py)
#: must be regenerated in the same change; GEM014 holds the tree red
#: until version and snapshot move together.
WIRE_VERSION = 2

#: Upper bound on one frame's payload; a peer announcing more is corrupt
#: (or hostile) and the connection is dropped rather than buffered.
MAX_FRAME = 16 * 1024 * 1024

#: Envelope kinds a peer may send; anything else is rejected on decode.
ENVELOPE_KINDS = ("request", "response", "error", "event")

#: Positions of an envelope's array elements; :func:`decode_envelope`
#: names them by this tuple and :func:`encode_envelope` writes them in
#: its order.
ENVELOPE_FIELDS = ("v", "kind", "id", "src", "payload")

#: Non-dataclass wire forms with bespoke encodings in _pack/_unpack.
#: Part of the schema contract: adding or changing one is a codec change
#: and must bump WIRE_VERSION alongside the snapshot.
WIRE_SPECIAL_FORMS = ("tuple", "set", "map", "CacheMiss", "FragmentMode",
                      "Configuration", "DirtyList", "error")


class WireError(ReproError):
    """Malformed frame, unknown wire type, or version mismatch."""


# --------------------------------------------------------------------------
# value codec

#: Dataclasses encoded generically as {"__t": name, "f": [field values]}.
_DATACLASSES: Dict[str, type] = {
    cls.__name__: cls
    for cls in (CacheOp, CoordinatorOp, DataStoreOp, Value, FragmentInfo,
                DirtyPage, ProtocolEvent)
}

#: Exceptions that travel as error payloads. Maps class name to
#: (class, names of identifying constructor attributes). The attributes
#: are re-fed to the constructor positionally on decode, then ``message``
#: keyword restores the original text.
_ERRORS: Dict[str, Tuple[type, Tuple[str, ...]]] = {
    "HostUnreachable": (HostUnreachable, ("address",)),
    "LeaseBackoff": (LeaseBackoff, ("key",)),
    "StaleConfiguration": (StaleConfiguration, ("known_id",)),
    "FragmentUnavailable": (FragmentUnavailable, ("fragment_id",)),
    "RequestTimeout": (RequestTimeout, ()),
    "InstanceDown": (InstanceDown, ()),
    "LeaseVoided": (LeaseVoided, ()),
    "CacheError": (CacheError, ()),
    "CoordinatorError": (CoordinatorError, ()),
    "NetworkError": (NetworkError, ()),
    "WorkloadError": (WorkloadError, ()),
    "SimulationError": (SimulationError, ()),
    "ConsistencyViolation": (ConsistencyViolation, ()),
    "WireError": (WireError, ()),
    "ReproError": (ReproError, ()),
}

_PRIMITIVES = (type(None), bool, int, float, str)

#: Exact types that are their own wire form.
_SCALARS = frozenset(_PRIMITIVES)


def _pack_items(obj: Any) -> List[Any]:
    return [i if type(i) in _SCALARS else _pack(i) for i in obj]


def _pack_dict(obj: Dict[Any, Any]) -> Any:
    out: Dict[str, Any] = {}
    for key, value in obj.items():
        if type(key) is not str:
            return _pack_map(obj)
        out[key] = value if type(value) in _SCALARS else _pack(value)
    if "__t" in out:
        return _pack_map(obj)
    return out


def _pack_map(obj: Dict[Any, Any]) -> Any:
    """Non-string keys (or a reserved "__t" key) need the escaped form."""
    return {"__t": "map",
            "items": [[_pack(k), _pack(v)] for k, v in obj.items()]}


def _pack_configuration(obj: Configuration) -> Any:
    return {"__t": "Configuration", "config_id": obj.config_id,
            "fragments": [_pack(f) for f in obj.fragments]}


def _pack_dirty_list(obj: DirtyList) -> Any:
    return {"__t": "DirtyList", "fragment_id": obj.fragment_id,
            "marker": obj.marker,
            "keys": [[k, seq] for k, seq in obj._keys.items()],
            "next_seq": obj._next_seq}


def _pack_error(obj: BaseException) -> Any:
    name = type(obj).__name__
    spec = _ERRORS.get(name)
    args = [_pack(getattr(obj, attr)) for attr in spec[1]] if spec else []
    return {"__t": "error", "cls": name, "args": args, "msg": str(obj)}


def _dataclass_packer(name: str, cls: type) -> Callable[[Any], Any]:
    """Positional packer for one registered dataclass, its field names
    read once here rather than per value."""
    fields = tuple(f.name for f in dataclasses.fields(cls))
    values = attrgetter(*fields)
    if len(fields) == 1:  # attrgetter of one name returns the bare value
        return lambda obj: {"__t": name, "f": [_pack(values(obj))]}
    return lambda obj: {"__t": name, "f": _pack_items(values(obj))}


def _dataclass_unpacker(cls: type) -> Callable[[Dict[str, Any]], Any]:
    def unpack(obj: Dict[str, Any]) -> Any:
        values = obj["f"]
        if type(values) is not list:
            # Version 1 wrote {field: value}; spreading a dict would pass
            # its keys as the field values.
            raise WireError(f"{cls.__name__} fields are not positional")
        return cls(*values)
    return unpack


#: Exact type -> packer; subclasses fall through to the isinstance
#: ladder in :func:`_pack_subclass`.
_PACKERS: Dict[type, Callable[[Any], Any]] = {
    list: _pack_items,
    tuple: lambda obj: {"__t": "tuple", "items": _pack_items(obj)},
    set: lambda obj: {"__t": "set", "items": _pack_items(obj)},
    frozenset: lambda obj: {"__t": "set", "items": _pack_items(obj)},
    dict: _pack_dict,
    type(CACHE_MISS): lambda obj: {"__t": "CacheMiss"},
    # FragmentMode is a str subclass and must keep its tag, or it would
    # decode as a bare string.
    FragmentMode: lambda obj: {"__t": "FragmentMode", "v": obj.value},
    Configuration: _pack_configuration,
    DirtyList: _pack_dirty_list,
}
_PACKERS.update((cls, _dataclass_packer(name, cls))
                for name, cls in _DATACLASSES.items())


def _pack(obj: Any) -> Any:
    """Lower ``obj`` to a JSON-serializable structure."""
    kind = type(obj)
    if kind in _SCALARS:
        return obj
    packer = _PACKERS.get(kind)
    if packer is not None:
        return packer(obj)
    return _pack_subclass(obj)


def _pack_subclass(obj: Any) -> Any:
    """:func:`_pack` for values whose exact type has no packer."""
    # Before the primitive check: FragmentMode is a str subclass.
    if isinstance(obj, FragmentMode):
        return _PACKERS[FragmentMode](obj)
    if isinstance(obj, _PRIMITIVES):
        return obj
    for base in (list, tuple, dict, Configuration, DirtyList):
        if isinstance(obj, base):
            return _PACKERS[base](obj)
    if isinstance(obj, (set, frozenset)):
        return _PACKERS[set](obj)
    if isinstance(obj, BaseException):
        return _pack_error(obj)
    raise WireError(f"cannot encode {type(obj).__name__} on the wire")


def _unpack_error(obj: Dict[str, Any]) -> BaseException:
    spec = _ERRORS.get(obj.get("cls", ""))
    msg = obj.get("msg", "")
    if spec is None:
        # A peer raised something outside the protocol's vocabulary
        # (a bug leaking through); surface it without losing the text.
        return ReproError(f"remote {obj.get('cls', '?')}: {msg}")
    cls, attrs = spec
    if attrs:
        return cls(*obj.get("args", []), message=msg)
    return cls(msg)


def _unpack_dirty_list(obj: Dict[str, Any]) -> DirtyList:
    dirty = DirtyList(obj["fragment_id"], obj["marker"])
    for key, seq in obj["keys"]:
        dirty.append(key)
        dirty._keys[key] = seq
    dirty._next_seq = obj["next_seq"]
    return dirty


#: Tag -> constructor from a tagged object whose members the decoder
#: has already rebuilt (JSON objects are revived innermost first).
_UNPACKERS: Dict[str, Callable[[Dict[str, Any]], Any]] = {
    "tuple": lambda obj: tuple(obj["items"]),
    "set": lambda obj: set(obj["items"]),
    "map": lambda obj: {k: v for k, v in obj["items"]},
    "CacheMiss": lambda obj: CACHE_MISS,
    "FragmentMode": lambda obj: FragmentMode(obj["v"]),
    "Configuration": lambda obj: Configuration(
        config_id=obj["config_id"], fragments=obj["fragments"]),
    "DirtyList": _unpack_dirty_list,
    "error": _unpack_error,
}
_UNPACKERS.update((name, _dataclass_unpacker(cls))
                  for name, cls in _DATACLASSES.items())


def _unpack(obj: Dict[str, Any]) -> Any:
    """Inverse of :func:`_pack` for one decoded JSON object."""
    tag = obj.get("__t")
    if tag is None:
        return obj
    unpacker = _UNPACKERS.get(tag)
    if unpacker is None:
        raise WireError(f"unknown wire type {tag!r}")
    return unpacker(obj)


#: One encoder and one decoder for every call: ``json.dumps``/``loads``
#: with non-default arguments build a fresh one each time. _pack builds
#: fresh containers, so its output cannot be cyclic and the encoder's
#: cycle check is skipped.
_encode_json = json.JSONEncoder(separators=(",", ":"), ensure_ascii=False,
                                check_circular=False).encode
_decode_json = json.JSONDecoder(object_hook=_unpack).decode


def _dumps(packed: Any) -> bytes:
    try:
        return _encode_json(packed).encode("utf-8")
    except (TypeError, ValueError) as exc:
        raise WireError(f"encode failed: {exc}") from exc


def encode(obj: Any) -> bytes:
    """Encode one value to its wire bytes (no frame header)."""
    return _dumps(_pack(obj))


def decode(data: bytes) -> Any:
    """Decode wire bytes produced by :func:`encode`."""
    try:
        return _decode_json(data.decode("utf-8"))
    # ValueError covers JSONDecodeError and UnicodeDecodeError; TypeError
    # and KeyError come from a tagged object of the wrong shape.
    except (ValueError, TypeError, KeyError) as exc:
        raise WireError(f"undecodable frame: {exc!r}") from exc


# --------------------------------------------------------------------------
# envelopes

def encode_envelope(kind: str, msg_id: int, payload: Any,
                    source: Optional[str] = None) -> bytes:
    """One framed envelope, ready to write to a socket."""
    return pack_frame(
        _dumps([WIRE_VERSION, kind, msg_id, source, _pack(payload)]))


def decode_envelope(data: bytes) -> Dict[str, Any]:
    """Decode one frame's payload into ``{v, kind, id, src, payload}``.

    The ``payload`` of an ``error`` envelope comes back as the
    reconstructed exception instance.
    """
    body = decode(data)
    if type(body) is not list or len(body) != len(ENVELOPE_FIELDS) \
            or body[0] != WIRE_VERSION:
        # A version-1 peer sends a {"v": 1, ...} object.
        got = (body.get("v") if isinstance(body, dict)
               else body[0] if type(body) is list and body else None)
        if got == WIRE_VERSION:
            raise WireError(f"malformed envelope {body!r:.200}")
        raise WireError(
            f"wire version mismatch: want {WIRE_VERSION}, got {got!r}")
    if body[1] not in ENVELOPE_KINDS:
        raise WireError(f"unknown envelope kind {body[1]!r}")
    return dict(zip(ENVELOPE_FIELDS, body, strict=True))


# --------------------------------------------------------------------------
# framing

def pack_frame(data: bytes) -> bytes:
    """Prefix ``data`` with its 4-byte big-endian length."""
    if len(data) > MAX_FRAME:
        raise WireError(f"frame of {len(data)} bytes exceeds the "
                        f"{MAX_FRAME}-byte cap")
    return len(data).to_bytes(4, "big") + data


class Framer:
    """Incremental frame splitter for a TCP byte stream.

    Feed it arbitrary chunks; it yields complete frame payloads. Usable
    both by the asyncio transport and synchronously in tests.
    """

    __slots__ = ("_buffer",)

    def __init__(self) -> None:
        self._buffer = bytearray()

    def feed(self, chunk: bytes) -> List[bytes]:
        self._buffer.extend(chunk)
        frames: List[bytes] = []
        while True:
            if len(self._buffer) < 4:
                return frames
            length = int.from_bytes(self._buffer[:4], "big")
            if length > MAX_FRAME:
                raise WireError(f"peer announced a {length}-byte frame, "
                                f"over the {MAX_FRAME}-byte cap")
            if len(self._buffer) < 4 + length:
                return frames
            frames.append(bytes(self._buffer[4:4 + length]))
            del self._buffer[:4 + length]
