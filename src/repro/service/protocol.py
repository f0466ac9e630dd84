"""Typed client<->server control messages for the rendezvous service.

Every message is a frozen dataclass serialized through the same
:mod:`repro.core.wire` codec the handshake payloads use — one tagged tuple
per message, so a wire observer sees a uniform self-describing format and
the codec's malformed-input rejection covers control traffic too.

Session flow::

    C -> S   HELLO(room, m, trace)     join rendezvous point ``room``;
                                       ``trace`` is an optional compact
                                       trace context (16 hex chars, see
                                       repro.obs.spans) — the server
                                       parents the room's spans under it
                                       so one room is one trace across
                                       processes; "" means "no context"
                                       and a malformed value is ignored,
                                       never an error
    S -> C   WELCOME(room, index, m)   assigned participant index
    S -> C   ROOM_READY(room, token, m)   all m joined; ``token`` is the
                                       random, unlinkable session id
    C -> S   BROADCAST(payload)        relay to every other room member
    S -> C   DELIVER(payload)          a relayed broadcast (sender-less:
                                       the relay strips transport identity,
                                       mirroring the anonymous channel)
    C -> S   DONE()                    handshake concluded locally
    S -> C   ABORT(reason)             room torn down (timeout, lost peer)
    S -> C   BUSY(reason)              overload shed: the server (or the
                                       cluster shard behind a router) cannot
                                       host a new room right now; transient
                                       — the client retries with backoff
    S -> C   MIGRATED(token)           live migration: the room moved to a
                                       peer shard and resumes exactly where
                                       it stopped — informational; the
                                       client keeps its connection, index
                                       and crypto state and just keeps
                                       reading
    both     ERROR(reason)             protocol violation; connection drops

Migration plumbing (router <-> shard only, never originated by clients;
docs/PROTOCOL.md "Live migration")::

    R -> S   QUIESCE()                 frame-boundary sentinel: no more
                                       frames from this member until the
                                       room moves
    R -> S   ATTACH(token, index)      bind a fresh connection to roster
                                       slot ``index`` of a restored room

Introspection (one-shot, in place of HELLO)::

    C -> S   STATUS()                  ask the relay for live telemetry
    S -> C   STATUS_REPLY(body)        JSON: room counts by state, queue
                                       depths, histogram summaries — only
                                       aggregates and random room tokens,
                                       never member identifiers (the
                                       anonymity rule applies to exported
                                       telemetry, docs/OBSERVABILITY.md)

``BROADCAST``/``DELIVER`` payloads are the exact tuples
:class:`repro.core.handshake.HandshakeDevice` exchanges over the simulator —
the service adds framing and relay, not a new message format.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple, Type

from repro.core import wire
from repro.errors import ProtocolError


@dataclass(frozen=True)
class Hello:
    room: str
    m: int
    #: Optional trace context (defaulted so ``Hello(room, m)`` keeps
    #: working); carries only a random id — never identity material.
    trace: str = ""

    KIND = "svc/hello"


@dataclass(frozen=True)
class Welcome:
    room: str
    index: int
    m: int

    KIND = "svc/welcome"


@dataclass(frozen=True)
class RoomReady:
    room: str
    token: str
    m: int

    KIND = "svc/ready"


@dataclass(frozen=True)
class Broadcast:
    payload: object

    KIND = "svc/bcast"


@dataclass(frozen=True)
class Deliver:
    payload: object

    KIND = "svc/deliver"


@dataclass(frozen=True)
class Done:
    KIND = "svc/done"


@dataclass(frozen=True)
class Abort:
    reason: str

    KIND = "svc/abort"


@dataclass(frozen=True)
class Busy:
    """Typed overload shed (admission control / drain): unlike ERROR this
    is *retryable* — the client backs off and re-sends HELLO, and a cluster
    router will re-place the room if the shard is draining or dead."""

    reason: str

    KIND = "svc/busy"


@dataclass(frozen=True)
class Error:
    reason: str

    KIND = "svc/error"


@dataclass(frozen=True)
class Quiesce:
    """Router -> shard sentinel, injected at a frame boundary on one
    member connection when a drain-migration begins.  Receiving it tells
    the shard "no further frames will arrive from this member until the
    room moves"; once every live member of a room is quiesced the shard
    finishes the FIFO, snapshots the room and ships the checkpoint.
    Never sent by clients; a standalone server ignores it for roomless
    connections."""

    KIND = "svc/quiesce"


@dataclass(frozen=True)
class Attach:
    """Router -> shard, in place of HELLO on a fresh connection: bind
    this connection to roster slot ``index`` of the *restored* room
    identified by ``token``.  The client behind the splice keeps its
    original WELCOME/index — attach re-creates only the server side of
    the pairing, which is why migration needs no re-HELLO."""

    token: str
    index: int

    KIND = "svc/attach"


@dataclass(frozen=True)
class Migrated:
    """Server/router -> client: your room moved to a peer shard; the
    relay resumes exactly where it stopped.  Informational — the client
    keeps its connection, keeps its roster index, re-runs no crypto, and
    simply continues reading.  ``token`` names the (unchanged) session
    token so logs line up across the hop."""

    token: str

    KIND = "svc/migrated"


@dataclass(frozen=True)
class Status:
    KIND = "svc/status"


@dataclass(frozen=True)
class StatusReply:
    body: str          # JSON document (aggregates only; see module doc)

    KIND = "svc/status-reply"


_REGISTRY: Dict[str, Tuple[Type, Tuple[str, ...]]] = {
    cls.KIND: (cls, tuple(cls.__dataclass_fields__))  # type: ignore[attr-defined]
    for cls in (Hello, Welcome, RoomReady, Broadcast, Deliver, Done, Abort,
                Busy, Error, Quiesce, Attach, Migrated, Status, StatusReply)
}

_FIELD_TYPES = {"room": str, "reason": str, "token": str, "m": int,
                "index": int, "body": str, "trace": str}


def encode_message(message) -> bytes:
    """Serialize one control message to wire bytes."""
    kind = getattr(type(message), "KIND", None)
    if kind not in _REGISTRY:
        raise ProtocolError(f"not a service message: {type(message).__name__}")
    _, fields = _REGISTRY[kind]
    return wire.dumps((kind,) + tuple(getattr(message, f) for f in fields))


def decode_message(blob: bytes):
    """Parse wire bytes into a typed message.

    Raises :class:`~repro.errors.EncodingError` on junk bytes and
    :class:`~repro.errors.ProtocolError` on a well-formed value that is not
    a valid service message (unknown kind, wrong arity, wrong field type).
    """
    value = wire.loads(blob)  # EncodingError propagates
    if not isinstance(value, tuple) or not value or not isinstance(value[0], str):
        raise ProtocolError("service frame is not a tagged message tuple")
    kind, fields = value[0], value[1:]
    entry = _REGISTRY.get(kind)
    if entry is None:
        raise ProtocolError(f"unknown service message kind {kind!r}")
    cls, names = entry
    if len(fields) != len(names):
        raise ProtocolError(f"{kind} arity mismatch: got {len(fields)} fields")
    for name, field_value in zip(names, fields):
        expected = _FIELD_TYPES.get(name)
        if expected is not None and not isinstance(field_value, expected):
            raise ProtocolError(f"{kind} field {name!r} has wrong type")
    return cls(*fields)


def payload_kind(payload: object) -> str:
    """The handshake-level kind of a relayed payload ("dgka", "tag",
    "phase3", ...) — what fault injection keys on."""
    if isinstance(payload, tuple) and payload and isinstance(payload[0], str):
        return payload[0]
    return "?"


__all__ = [
    "Hello", "Welcome", "RoomReady", "Broadcast", "Deliver", "Done",
    "Abort", "Busy", "Error", "Quiesce", "Attach", "Migrated",
    "Status", "StatusReply",
    "encode_message", "decode_message", "payload_kind",
]
