"""Versioned room checkpoints: the serializable relay state of one room.

The paper treats the rendezvous point as an *untrusted message board* —
it holds no secrets, only a roster, a FIFO of opaque ciphertext payloads,
and phase bookkeeping.  That is why a room is checkpointable at all: the
whole relay state fits in a small, versioned snapshot, and a peer shard
that restores the snapshot and resumes the FIFO is indistinguishable (to
the devices driving the handshake) from the shard that died.  Member
devices keep their crypto state client-side, so a migration re-runs *no*
Phase I–III work — the restore is pure relay bookkeeping.

Checkpoints are taken at phase boundaries (room fill, and whenever the
relayed payload kind advances — DGKA rounds → tags → phase-3 blobs) and,
exactly, at drain time after the router has quiesced every member
connection (docs/PROTOCOL.md, "Live migration").  They travel over the
shard supervision pipe and are restored via
:meth:`repro.service.server.RendezvousServer.restore_room`.

Versioning rules
----------------

* ``version`` is a single integer, bumped whenever a field is added,
  removed, or changes meaning.  A restoring server accepts only versions
  it knows (currently: exactly :data:`CHECKPOINT_VERSION`) and rejects
  anything else with :class:`~repro.errors.ProtocolError` — restoring a
  half-understood snapshot would corrupt a live handshake, so refusal is
  the only safe behaviour across mixed-version clusters.
* Fields never change meaning silently within a version; unknown keys in
  a payload are ignored (forward-tolerant readers, strict writers).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.errors import ProtocolError

#: Current checkpoint schema version.  Bump on any field change.
CHECKPOINT_VERSION = 1

#: Room lifecycle states a checkpoint may carry.
FILLING, ACTIVE = "filling", "active"


@dataclass
class RoomCheckpoint:
    """Everything a peer shard needs to resume one room's relay.

    The snapshot deliberately contains only what the *relay* knows: the
    rendezvous name (placement key), the unlinkable session token, the
    roster size and occupancy, DONE bookkeeping, the pending FIFO, the
    remaining fill/handshake deadline budget, phase progress, and the
    room's relay book accumulated so far.  No member identities, no
    key material — an untrusted relay has none to ship.
    """

    name: str                 # rendezvous name (placement key)
    token: str                # unlinkable session token (kept across the hop)
    m: int                    # roster size
    state: str                # FILLING | ACTIVE
    members: int              # occupied roster slots (== m when ACTIVE)
    trace: str = ""           # trace context; "" = none
    done: Tuple[int, ...] = ()            # indices that sent DONE
    #: Queued-but-not-fanned-out FIFO entries, in order: (sender, payload).
    pending: Tuple[Tuple[int, object], ...] = ()
    #: Seconds left on the fill timer (FILLING rooms), else None.
    fill_remaining_s: Optional[float] = None
    #: Seconds left on the handshake deadline (ACTIVE rooms), else None.
    handshake_remaining_s: Optional[float] = None
    #: Messages fanned out so far and the kind of the last one — the
    #: phase-progress marker ("dgka", "tag", "phase3", ...).
    relayed: int = 0
    phase_kind: Optional[str] = None
    #: The room's relay book (replayed into the restoring recorder so
    #: cluster-aggregate books survive the donor shard's death).
    counters: Dict[str, int] = field(default_factory=dict)
    version: int = CHECKPOINT_VERSION

    def to_payload(self) -> Dict[str, object]:
        """Plain-dict form for the supervision pipe (strict writer)."""
        return {
            "version": self.version,
            "name": self.name,
            "token": self.token,
            "m": self.m,
            "state": self.state,
            "members": self.members,
            "trace": self.trace,
            "done": list(self.done),
            "pending": [list(entry) for entry in self.pending],
            "fill_remaining_s": self.fill_remaining_s,
            "handshake_remaining_s": self.handshake_remaining_s,
            "relayed": self.relayed,
            "phase_kind": self.phase_kind,
            "counters": dict(self.counters),
        }

    @classmethod
    def from_payload(cls, payload: object) -> "RoomCheckpoint":
        """Parse and validate a pipe payload (forward-tolerant reader:
        unknown keys are ignored; unknown *versions* are refused).  Every
        field is checked here, so a malformed payload is a
        :class:`ProtocolError` before a restoring server changes any
        state."""
        if not isinstance(payload, dict):
            raise ProtocolError("room checkpoint payload is not a mapping")
        version = payload.get("version")
        if version != CHECKPOINT_VERSION:
            raise ProtocolError(
                f"unsupported room checkpoint version {version!r} "
                f"(this node speaks {CHECKPOINT_VERSION})")
        try:
            name = payload["name"]
            token = payload["token"]
            m = payload["m"]
            state = payload["state"]
            members = payload["members"]
        except KeyError as exc:
            raise ProtocolError(
                f"room checkpoint missing field {exc.args[0]!r}") from exc
        if not isinstance(name, str) or not isinstance(token, str):
            raise ProtocolError("room checkpoint name/token must be strings")
        if not _is_int(m) or not _is_int(members):
            raise ProtocolError("room checkpoint m/members must be ints")
        if m < 2:
            raise ProtocolError(f"room checkpoint roster size {m} below 2")
        if state not in (FILLING, ACTIVE):
            raise ProtocolError(
                f"room checkpoint state {state!r} is not filling/active")
        if not 0 <= members <= m:
            raise ProtocolError(
                f"room checkpoint occupancy {members} outside [0, {m}]")
        if state == ACTIVE and members != m:
            raise ProtocolError("active room checkpoint must be full")
        done = _optional(payload, "done", ())
        if not isinstance(done, (list, tuple)) or not all(
                _is_int(i) and 0 <= i < m for i in done):
            raise ProtocolError("room checkpoint DONE index out of roster")
        pending = _optional(payload, "pending", ())
        if not isinstance(pending, (list, tuple)) or not all(
                isinstance(entry, (list, tuple)) and len(entry) == 2
                and _is_int(entry[0]) and 0 <= entry[0] < m
                for entry in pending):
            raise ProtocolError(
                "room checkpoint pending sender out of roster")
        for key in ("fill_remaining_s", "handshake_remaining_s"):
            budget = payload.get(key)
            if budget is not None and not (
                    isinstance(budget, (int, float))
                    and not isinstance(budget, bool)
                    and math.isfinite(budget)):
                raise ProtocolError(
                    f"room checkpoint {key} must be a number or None")
        trace = _optional(payload, "trace", "")
        phase_kind = payload.get("phase_kind")
        if not isinstance(trace, str) or not (
                phase_kind is None or isinstance(phase_kind, str)):
            raise ProtocolError(
                "room checkpoint trace/phase_kind must be strings")
        relayed = _optional(payload, "relayed", 0)
        if not _is_int(relayed) or relayed < 0:
            raise ProtocolError("room checkpoint relayed must be an int >= 0")
        counters = _optional(payload, "counters", {})
        if not isinstance(counters, dict) or not all(
                isinstance(k, str) and _is_int(v)
                for k, v in counters.items()):
            raise ProtocolError(
                "room checkpoint counters must map names to ints")
        return cls(
            name=name, token=token, m=m, state=state, members=members,
            trace=trace, done=tuple(done),
            pending=tuple((sender, item) for sender, item in pending),
            fill_remaining_s=payload.get("fill_remaining_s"),
            handshake_remaining_s=payload.get("handshake_remaining_s"),
            relayed=relayed, phase_kind=phase_kind,
            counters=dict(counters))


def _is_int(value: object) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _optional(payload: dict, key: str, default: object) -> object:
    """An optional field: absent or None reads as ``default``."""
    value = payload.get(key)
    return default if value is None else value


__all__ = ["CHECKPOINT_VERSION", "RoomCheckpoint", "FILLING", "ACTIVE"]
