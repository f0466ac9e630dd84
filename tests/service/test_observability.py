"""Service-layer observability: the STATUS introspection query, error-path
metrics, room lifecycle spans, the reasons a socket handshake span ends
with, and proof that the client and relay spans of real socket rooms leak
neither member identifiers, rendezvous names nor payload bytes."""

import asyncio
import json
import random
import re

import pytest

from repro import metrics
from repro.core.scheme1 import scheme1_policy
from repro.service import (
    ClientConfig,
    RendezvousServer,
    ServerConfig,
    framing,
    join_room,
    protocol,
    query_status,
    run_room,
)


@pytest.fixture()
def lineup(service_world):
    return service_world.lineup(*sorted(service_world.members))


def _run(coro):
    return asyncio.run(asyncio.wait_for(coro, 60))


class TestStatusQuery:
    def test_snapshot_after_completed_room(self, lineup):
        async def scenario():
            rec = metrics.Recorder()
            with metrics.using(rec):
                async with RendezvousServer(ServerConfig()) as server:
                    cfg = ClientConfig(port=server.port, room="obs-room",
                                       m=len(lineup))
                    outcomes = await run_room(lineup, cfg, scheme1_policy())
                    status = await query_status("127.0.0.1", server.port)
            return outcomes, status

        outcomes, status = _run(scenario())
        assert all(o.success for o in outcomes)
        assert status["rooms"] == {"filling": 0, "active": 0, "closed": 1,
                                   "restoring": 0}
        assert status["outcomes"] == {"completed": 1}
        assert status["counters"]["svc:rooms-completed"] == 1
        assert status["counters"]["svc:status-queries"] == 1
        assert status["accepting"] is True
        assert status["uptime_s"] >= 0
        assert status["histograms"]["svc:relay-latency"]["count"] > 0
        assert status["histograms"]["svc:room-lifetime"]["count"] == 1
        assert status["histograms"]["hs:latency"]["count"] == len(lineup)

    def test_status_while_room_is_filling(self, lineup):
        """Live introspection: query mid-fill, from a separate connection,
        without disturbing the room."""
        async def scenario():
            rec = metrics.Recorder()
            with metrics.using(rec):
                async with RendezvousServer(ServerConfig()) as server:
                    cfg = ClientConfig(port=server.port, room="half",
                                       m=len(lineup))
                    # Start m-1 of m members: the room stays filling.
                    tasks = [asyncio.ensure_future(
                                 run_room(lineup, cfg, scheme1_policy()))]
                    for _ in range(50):
                        await asyncio.sleep(0.01)
                        mid = await query_status("127.0.0.1", server.port)
                        if mid["rooms"]["filling"] or mid["rooms"]["active"]:
                            break
                    outcomes = await tasks[0]
                    return mid, outcomes

        mid, outcomes = _run(scenario())
        assert mid["rooms"]["filling"] + mid["rooms"]["active"] >= 1
        assert all(o.success for o in outcomes)

    def test_status_exposes_no_room_names(self, lineup):
        secret_name = "operation-overlord-planning"

        async def scenario():
            rec = metrics.Recorder()
            with metrics.using(rec):
                async with RendezvousServer(ServerConfig()) as server:
                    cfg = ClientConfig(port=server.port, room=secret_name,
                                       m=len(lineup))
                    await run_room(lineup, cfg, scheme1_policy())
                    return await query_status("127.0.0.1", server.port)

        status = _run(scenario())
        assert secret_name not in json.dumps(status)

    def test_status_frame_roundtrip(self):
        frame = protocol.encode_message(protocol.Status())
        assert isinstance(protocol.decode_message(frame), protocol.Status)
        reply = protocol.StatusReply(body=json.dumps({"ok": 1}))
        decoded = protocol.decode_message(protocol.encode_message(reply))
        assert json.loads(decoded.body) == {"ok": 1}


class TestErrorPathMetrics:
    def test_fill_timeout_counted(self, lineup):
        async def scenario():
            rec = metrics.Recorder()
            with metrics.using(rec):
                config = ServerConfig(room_fill_timeout=0.1)
                async with RendezvousServer(config) as server:
                    cfg = ClientConfig(port=server.port, room="stuck", m=5,
                                       deadline=5.0)
                    # Only one member of five: fill timeout must fire.
                    outcome = await join_room(lineup[0], cfg,
                                              scheme1_policy())
                    status = await query_status("127.0.0.1", server.port)
            return outcome, status

        outcome, status = _run(scenario())
        assert not outcome.success
        assert status["counters"]["svc:fill-timeouts"] == 1
        assert status["counters"]["svc:abort-frames"] >= 1
        assert status["counters"]["svc:rooms-aborted"] == 1
        assert status["outcomes"] == {"fill-timeout": 1}

    def test_protocol_error_counts_error_frame(self):
        async def scenario():
            rec = metrics.Recorder()
            with metrics.using(rec):
                async with RendezvousServer(ServerConfig()) as server:
                    reader, writer = await asyncio.open_connection(
                        "127.0.0.1", server.port)
                    # DONE before HELLO is a protocol violation.
                    await framing.write_frame(
                        writer,
                        protocol.encode_message(protocol.Done()),
                        framing.DEFAULT_MAX_FRAME)
                    blob = await framing.read_frame(
                        reader, framing.DEFAULT_MAX_FRAME)
                    writer.close()
                    status = await query_status("127.0.0.1", server.port)
            return blob, status

        blob, status = _run(scenario())
        assert isinstance(protocol.decode_message(blob), protocol.Error)
        assert status["counters"]["svc:protocol-errors"] == 1
        assert status["counters"]["svc:error-frames"] == 1


class TestRoomSpans:
    def test_lifecycle_spans_fill_relay_outcome(self, lineup):
        async def scenario():
            rec = metrics.Recorder()
            rec.tracing = True
            with metrics.using(rec):
                async with RendezvousServer(ServerConfig()) as server:
                    cfg = ClientConfig(port=server.port, room="spanroom",
                                       m=len(lineup))
                    await run_room(lineup, cfg, scheme1_policy())
            return rec.spans()

        spans = _run(scenario())
        by_name = {}
        for s in spans:
            by_name.setdefault(s.name, []).append(s)
        (root,) = by_name["room"]
        assert root.attrs["outcome"] == "completed"
        token = root.attrs["token"]
        (fill,) = by_name["room:fill"]
        (relay,) = by_name["room:relay"]
        assert fill.parent_id == root.span_id
        assert relay.parent_id == root.span_id
        assert fill.attrs["token"] == relay.attrs["token"] == token
        # Each party traced its handshake with nested phase spans.
        assert len(by_name["handshake"]) == len(lineup)
        for phase in ("phase:I", "phase:II", "phase:III"):
            assert len(by_name[phase]) == len(lineup)
        # One trace per party: the only roots are the room, and each
        # party's connect and handshake; every hs:<i>, phase:* and gsig:*
        # span reaches its party's handshake through parent links and
        # carries that handshake's trace id.
        roots = sorted(s.name for s in spans if s.parent_id is None)
        assert roots == sorted(["room"] + ["connect", "handshake"]
                               * len(lineup))
        by_id = {s.span_id: s for s in spans}
        for s in spans:
            if not s.name.startswith(("hs:", "phase:", "gsig:")):
                continue
            ancestor = s
            while ancestor is not None and ancestor.name != "handshake":
                ancestor = by_id.get(ancestor.parent_id)
            assert ancestor is not None, f"{s.name} lost its handshake"
            party = (int(s.name[3:]) if s.name.startswith("hs:")
                     else s.attrs.get("party"))
            if party is not None:
                assert ancestor.attrs["party"] == party, s.name
            assert s.trace_id == ancestor.trace_id, s.name
        # And the trace never names the rendezvous room.
        for s in spans:
            assert "spanroom" not in str(sorted(s.attrs.items()))


class TestHandshakeSpanEnding:
    """The socket client's ``handshake`` span ends with why the handshake
    ended: ``outcome``, ``retryable`` and, for an ABORT, the ``reason``."""

    def test_peer_leaving_mid_handshake_reads_peer_disconnect(
            self, lineup):
        outcome, rows = _traced(lambda: _peer_leaves(lineup[0],
                                                     "secret-peer-drop"))
        assert not outcome.success and not outcome.retryable
        (ending,) = _handshake_endings(rows)
        assert ending == {"outcome": "abort", "reason": "peer-disconnect",
                          "retryable": False}

    def test_abort_reason_outside_the_relays_own_reads_other(self, lineup):
        """The relay is untrusted: an ABORT quoting the rendezvous name
        must not carry it into the span."""
        outcome, rows = _traced(lambda: _fake_relay_aborts(
            lineup[0], "secret-abort-name"))
        assert not outcome.success and not outcome.retryable
        (ending,) = _handshake_endings(rows)
        assert ending == {"outcome": "abort", "reason": "other",
                          "retryable": False}


class TestSpanLeakScan:
    def test_client_and_relay_spans_leak_nothing(self, lineup):
        """The proof test: a traced 5-party socket room plus the two
        failing rooms above, client and relay spans as ``as_dict()``
        rows.  No row names a member or a rendezvous room, and none
        carries a long hex run (key or payload material)."""
        rows = []

        async def full_room():
            async with RendezvousServer(ServerConfig()) as server:
                cfg = ClientConfig(port=server.port,
                                   room="secret-society-meeting",
                                   m=len(lineup))
                return await run_room(lineup, cfg, scheme1_policy())

        outcomes, spans = _traced(full_room)
        assert all(o.success for o in outcomes)
        endings = _handshake_endings(spans)
        assert endings == [{"outcome": "success", "retryable": False}] * 5
        assert {row["name"] for row in spans} >= {"room", "room:relay",
                                                  "handshake", "connect"}
        rows += spans
        rows += _traced(lambda: _peer_leaves(lineup[0],
                                             "secret-peer-drop"))[1]
        rows += _traced(lambda: _fake_relay_aborts(
            lineup[0], "secret-abort-name"))[1]

        text = json.dumps(rows)
        for member in lineup:
            assert member.user_id not in text
        for name in ("secret-society-meeting", "secret-peer-drop",
                     "secret-abort-name"):
            assert name not in text
        for row in rows:
            for key, value in row.items():
                for item in (key, value):
                    if isinstance(item, str):
                        assert not _MATERIAL.search(item), (key, item[:40])
                    elif isinstance(item, int) and not isinstance(item, bool):
                        assert abs(item) < 1 << 64, key


#: Room tokens and trace ids are 16 hex chars; a run of 20 or more is key
#: or payload material.  Floats (timestamps, durations) are not scanned:
#: their digit runs are not material.
_MATERIAL = re.compile(r"[0-9a-f]{20,}")


def _traced(scenario):
    """Run ``scenario()`` under a tracing recorder: its result and every
    finished span, client and relay alike, as an ``as_dict()`` row."""
    recorder = metrics.Recorder()
    recorder.tracing = True

    async def run():
        with metrics.using(recorder):
            return await scenario()

    result = _run(run())
    return result, [span.as_dict() for span in recorder.spans()]


def _handshake_endings(rows):
    """The ending attributes of every ``handshake`` span, by party."""
    return [{key[5:]: row[key]
             for key in ("attr.outcome", "attr.reason", "attr.retryable")
             if key in row}
            for row in sorted(rows, key=lambda r: r.get("attr.party", -1))
            if row["name"] == "handshake"]


async def _peer_leaves(member, room):
    """``member`` joins ``room`` with :func:`join_room`; a raw protocol
    peer takes the second seat and hangs up once the room is active."""
    async with RendezvousServer(ServerConfig()) as server:
        cfg = ClientConfig(port=server.port, room=room, m=2, deadline=20.0)
        joined = asyncio.Event()
        honest = asyncio.ensure_future(join_room(
            member, cfg, scheme1_policy(), random.Random(5), joined=joined))
        await joined.wait()
        reader, writer = await asyncio.open_connection("127.0.0.1",
                                                       server.port)
        await framing.write_frame(writer, protocol.encode_message(
            protocol.Hello(room=room, m=2)))
        for expected in (protocol.Welcome, protocol.RoomReady):
            frame = await framing.read_frame(reader)
            assert isinstance(protocol.decode_message(frame), expected)
        writer.close()
        return await honest


async def _fake_relay_aborts(member, room):
    """A fake relay admits ``member`` to ``room``, then aborts the room
    with the rendezvous name as its reason."""
    async def relay(reader, writer):
        await framing.read_frame(reader)                 # the HELLO
        for message in (protocol.Welcome(room, 0, 2),
                        protocol.RoomReady(room, "ab" * 8, 2),
                        protocol.Abort(reason=room)):
            await framing.write_frame(writer,
                                      protocol.encode_message(message))
        await reader.read()                 # until the client hangs up
        writer.close()

    server = await asyncio.start_server(relay, "127.0.0.1", 0)
    try:
        cfg = ClientConfig(port=server.sockets[0].getsockname()[1],
                           room=room, m=2, deadline=10.0)
        return await join_room(member, cfg, scheme1_policy())
    finally:
        server.close()
        await server.wait_closed()
