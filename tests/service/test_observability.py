"""Service-layer observability: the STATUS introspection query, error-path
metrics, room lifecycle spans, and proof that structured logs from a real
socket handshake leak neither member identifiers nor payload bytes."""

import asyncio
import io
import json
import logging

import pytest

from repro import metrics
from repro.core.scheme1 import scheme1_policy
from repro.obs import logging as obslog
from repro.service import (
    ClientConfig,
    RendezvousServer,
    ServerConfig,
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
                    from repro.service import framing
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


class TestLogRedaction:
    def test_socket_handshake_logs_leak_nothing(self, lineup):
        """The proof test: run a real 5-party socket handshake with JSON
        logging on, then scan every emitted line for member identifiers,
        the rendezvous name, and payload/key material."""
        stream = io.StringIO()
        obslog.configure(level=logging.DEBUG, stream=stream)
        try:
            async def scenario():
                rec = metrics.Recorder()
                with metrics.using(rec):
                    async with RendezvousServer(ServerConfig()) as server:
                        cfg = ClientConfig(port=server.port,
                                           room="secret-society-meeting",
                                           m=len(lineup))
                        return await run_room(lineup, cfg, scheme1_policy())

            outcomes = _run(scenario())
        finally:
            obslog.unconfigure()
        assert all(o.success for o in outcomes)
        text = stream.getvalue()
        lines = [json.loads(line) for line in text.splitlines()]
        assert lines, "expected structured log output"
        # Member identifiers (the service_world fixture enrols p0..p4).
        for ident in (getattr(m, "user_id", None) for m in lineup):
            if ident:
                assert ident not in text
        # The out-of-band rendezvous name.
        assert "secret-society-meeting" not in text
        # Session keys, payload bytes: no long hex runs anywhere.  Room
        # tokens are 16 hex chars and allowed; anything >=32 is material.
        import re
        for run in re.findall(r"[0-9a-f]{20,}", text):
            pytest.fail(f"suspicious hex material in logs: {run[:40]}…")
        # The expected lifecycle events did fire.
        events = {doc["event"] for doc in lines}
        assert {"accept", "room-active", "room-closed", "outcome"} <= events
