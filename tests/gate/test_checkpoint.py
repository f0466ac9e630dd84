"""Unit tests for the versioned room-checkpoint schema.

The migration protocol's compatibility contract lives here: strict
writers, forward-tolerant readers, and hard refusal of versions this
node does not speak (restoring a half-understood snapshot would corrupt
a live handshake).  A malformed field is a ProtocolError, never another
exception, and a refused restore leaves no room behind on the server.
"""

import asyncio
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import metrics
from repro.errors import ProtocolError
from repro.gate.checkpoint import (
    ACTIVE,
    CHECKPOINT_VERSION,
    FILLING,
    RoomCheckpoint,
)
from repro.service import RendezvousServer, ServerConfig


def _active_checkpoint(**overrides):
    base = dict(
        name="parity-room", token="tok-123", m=3, state=ACTIVE, members=3,
        trace="0123456789abcdef0123456789abcdef",
        done=(2,), pending=((0, "b64payload"), (1, "b64payload2")),
        handshake_remaining_s=41.5, relayed=7, phase_kind="dgka",
        counters={"svc:rooms-opened": 1, "svc:messages-relayed": 7})
    base.update(overrides)
    return RoomCheckpoint(**base)


def _filling_checkpoint():
    return RoomCheckpoint(name="half", token="tok-9", m=3, state=FILLING,
                          members=1, fill_remaining_s=12.25,
                          counters={"svc:rooms-opened": 1})


class TestRoundTrip:
    def test_payload_round_trip_is_lossless(self):
        checkpoint = _active_checkpoint()
        restored = RoomCheckpoint.from_payload(checkpoint.to_payload())
        assert restored == checkpoint

    def test_filling_round_trip(self):
        checkpoint = RoomCheckpoint(
            name="half", token="tok-9", m=5, state=FILLING, members=2,
            fill_remaining_s=12.25)
        restored = RoomCheckpoint.from_payload(checkpoint.to_payload())
        assert restored == checkpoint
        assert restored.pending == ()
        assert restored.handshake_remaining_s is None

    def test_unknown_keys_are_ignored(self):
        """Forward tolerance: a same-version payload with extra fields
        (a newer writer being chatty) restores fine."""
        payload = _active_checkpoint().to_payload()
        payload["future_field"] = {"anything": True}
        assert RoomCheckpoint.from_payload(payload) == _active_checkpoint()


class TestRefusals:
    @pytest.mark.parametrize("version", [0, CHECKPOINT_VERSION + 1, None, "1"])
    def test_unknown_versions_are_refused(self, version):
        payload = _active_checkpoint().to_payload()
        payload["version"] = version
        with pytest.raises(ProtocolError, match="version"):
            RoomCheckpoint.from_payload(payload)

    def test_non_mapping_payload_is_refused(self):
        with pytest.raises(ProtocolError):
            RoomCheckpoint.from_payload(["not", "a", "dict"])

    @pytest.mark.parametrize("missing", ["name", "token", "m", "state",
                                         "members"])
    def test_missing_required_field_is_refused(self, missing):
        payload = _active_checkpoint().to_payload()
        del payload[missing]
        with pytest.raises(ProtocolError, match=missing):
            RoomCheckpoint.from_payload(payload)

    def test_active_room_must_be_full(self):
        payload = _active_checkpoint().to_payload()
        payload["members"] = 2
        with pytest.raises(ProtocolError, match="full"):
            RoomCheckpoint.from_payload(payload)

    def test_done_index_outside_roster_is_refused(self):
        payload = _active_checkpoint().to_payload()
        payload["done"] = [3]
        with pytest.raises(ProtocolError, match="roster"):
            RoomCheckpoint.from_payload(payload)

    def test_pending_sender_outside_roster_is_refused(self):
        payload = _active_checkpoint().to_payload()
        payload["pending"] = [[7, "blob"]]
        with pytest.raises(ProtocolError, match="sender"):
            RoomCheckpoint.from_payload(payload)

    def test_bad_state_is_refused(self):
        payload = _active_checkpoint().to_payload()
        payload["state"] = "closed"
        with pytest.raises(ProtocolError, match="filling/active"):
            RoomCheckpoint.from_payload(payload)

    @pytest.mark.parametrize("field,value", [
        ("done", 5), ("done", ["x"]), ("pending", [[1]]), ("relayed", "x"),
        ("counters", {"a": "x"}), ("counters", [1, 2]), ("m", 0),
        ("fill_remaining_s", "soon")], ids=[
        "done-int", "done-str", "pending-short", "relayed-str",
        "counters-str", "counters-list", "m-0", "fill-str"])
    def test_malformed_field_is_a_protocol_error(self, field, value):
        payload = _filling_checkpoint().to_payload()
        payload[field] = value
        with pytest.raises(ProtocolError):
            RoomCheckpoint.from_payload(payload)


#: Field values a broken or hostile writer could put in a payload.
_JUNK = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 9),
    st.floats(allow_nan=True, allow_infinity=True), st.text(max_size=3),
    st.lists(st.one_of(st.integers(-3, 9), st.text(max_size=2),
                       st.lists(st.integers(-3, 9), max_size=3)),
             max_size=3),
    st.dictionaries(st.text(max_size=3),
                    st.one_of(st.integers(), st.text(max_size=2)),
                    max_size=2))
_DELETE = object()
_FIELDS = ("version", "name", "token", "m", "state", "members", "trace",
           "done", "pending", "fill_remaining_s", "handshake_remaining_s",
           "relayed", "phase_kind", "counters")


class TestMalformedPayloads:
    @given(active=st.booleans(),
           edits=st.dictionaries(st.sampled_from(_FIELDS),
                                 st.one_of(st.just(_DELETE), _JUNK),
                                 min_size=1, max_size=3))
    @settings(max_examples=300, deadline=None)
    def test_mutated_payload_parses_or_is_refused(self, active, edits):
        """A valid payload with fields replaced by junk or removed reads
        as a valid checkpoint or raises ProtocolError, nothing else."""
        checkpoint = _active_checkpoint() if active else _filling_checkpoint()
        payload = checkpoint.to_payload()
        for key, value in edits.items():
            if value is _DELETE:
                del payload[key]
            else:
                payload[key] = value
        try:
            restored = RoomCheckpoint.from_payload(payload)
        except ProtocolError:
            return
        assert restored.m >= 2
        assert 0 <= restored.members <= restored.m
        assert all(0 <= i < restored.m for i in restored.done)
        assert all(0 <= sender < restored.m
                   for sender, _ in restored.pending)
        for budget in (restored.fill_remaining_s,
                       restored.handshake_remaining_s):
            assert budget is None or math.isfinite(budget)
        assert all(isinstance(v, int) for v in restored.counters.values())
        assert RoomCheckpoint.from_payload(restored.to_payload()) == restored


class TestRefusedRestore:
    def test_refused_restore_leaves_no_room_behind(self):
        """The server validates the whole checkpoint before it registers
        the room: a refusal leaves nothing restoring and no open slot."""
        bad = _filling_checkpoint().to_payload()
        bad["fill_remaining_s"] = "soon"

        async def scenario():
            server = RendezvousServer(ServerConfig())
            with pytest.raises(ProtocolError):
                server.restore_room(bad)
            refused = server.status()
            server.restore_room(_filling_checkpoint().to_payload())
            return refused, server.status()

        with metrics.using(metrics.Recorder()):
            refused, restored = asyncio.run(scenario())
        assert refused["rooms"]["restoring"] == 0
        assert refused["admission"]["open_rooms"] == 0
        # The same server takes a valid checkpoint of the same room.
        assert restored["rooms"]["restoring"] == 1
        assert restored["admission"]["open_rooms"] == 1
