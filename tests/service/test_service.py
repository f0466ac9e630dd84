"""End-to-end tests for the rendezvous server + client transport.

No pytest-asyncio / pytest-timeout locally: every test is a sync function
wrapping its coroutine in ``asyncio.run`` and every await that could hang
is capped — outermost by ``_run``'s own ``wait_for`` — so a regression
shows up as an explicit timeout failure, never a hung test session.
"""

import asyncio
import random

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

#: Outer cap for one test's event loop; generous next to the per-feature
#: timeouts under test (which are fractions of a second to a few seconds).
TEST_CAP = 60.0


def _run(coroutine):
    async def capped():
        return await asyncio.wait_for(coroutine, TEST_CAP)
    return asyncio.run(capped())


def _lineup(world, count):
    names = sorted(world.members)[:count]
    return world.lineup(*names)


class TestLoopbackHandshake:
    def test_three_party_room(self, scheme1_world):
        members = _lineup(scheme1_world, 3)

        async def scenario():
            async with RendezvousServer(ServerConfig()) as server:
                cfg = ClientConfig(port=server.port, room="trio")
                outcomes = await run_room(members, cfg, scheme1_policy())
            # After shutdown's drain the DONE frames are fully processed.
            return outcomes, server.room_outcomes()

        outcomes, rooms = _run(scenario())
        assert [o.index for o in outcomes] == [0, 1, 2]
        assert all(o.success for o in outcomes)
        keys = {o.session_key for o in outcomes}
        assert len(keys) == 1 and None not in keys
        assert list(rooms.values()) == ["completed"]

    def test_five_party_room(self, service_world):
        members = _lineup(service_world, 5)

        async def scenario():
            async with RendezvousServer(ServerConfig()) as server:
                cfg = ClientConfig(port=server.port, room="quint")
                return await run_room(members, cfg, scheme1_policy())

        outcomes = _run(scenario())
        assert all(o.success for o in outcomes)
        assert all(o.confirmed_peers == set(range(5)) - {o.index}
                   for o in outcomes)

    def test_room_token_is_unlinkable_session_id(self, scheme1_world):
        """The session id under which the handshake runs is the random
        token, not the client-chosen room name."""
        members = _lineup(scheme1_world, 2)

        async def scenario():
            config = ServerConfig(token_rng=random.Random(99))
            async with RendezvousServer(config) as server:
                cfg = ClientConfig(port=server.port, room="meaningful-name")
                await run_room(members, cfg, scheme1_policy())
            return server.room_outcomes()

        rooms = _run(scenario())
        (token,) = rooms
        assert token == f"{random.Random(99).getrandbits(64):016x}"
        assert "meaningful-name" not in token


class TestConcurrentRooms:
    def test_rooms_share_one_server_without_metric_bleed(self, scheme1_world):
        """Twenty rooms run at once, each under its own Recorder; every
        room sees exactly the protocol's per-party message profile, and
        STATUS keeps answering while they run."""
        members = _lineup(scheme1_world, 2)
        n_rooms = 20

        async def poll_status(port, answers):
            while True:
                try:
                    await query_status("127.0.0.1", port, timeout=10.0)
                    answers.append(True)
                except (ConnectionError, OSError, asyncio.TimeoutError):
                    pass
                await asyncio.sleep(0.02)

        async def scenario():
            answers = []
            async with RendezvousServer(ServerConfig()) as server:
                poller = asyncio.ensure_future(
                    poll_status(server.port, answers))
                recorders = [metrics.Recorder() for _ in range(n_rooms)]
                jobs = []
                for i, recorder in enumerate(recorders):
                    cfg = ClientConfig(port=server.port, room=f"room-{i}")
                    with metrics.using(recorder):
                        # Tasks snapshot the ContextVar here, pinning all
                        # of room i's client counting to recorder i.
                        jobs.append(asyncio.ensure_future(
                            run_room(members, cfg, scheme1_policy())))
                results = await asyncio.gather(*jobs)
                polls_during_burst = len(answers)
                poller.cancel()
                # A client returns once its DONE is sent; wait until the
                # server has closed every room before reading its books.
                while len(server.room_outcomes()) < n_rooms:
                    await asyncio.sleep(0.01)
                status = await query_status("127.0.0.1", server.port)
            return (results, recorders, server.room_outcomes(),
                    polls_during_burst, status)

        with metrics.using(metrics.Recorder()):
            results, recorders, rooms, polls, status = _run(scenario())
        assert len(rooms) == n_rooms
        assert all(v == "completed" for v in rooms.values())
        assert polls > 0
        assert status["counters"]["svc:rooms-completed"] == n_rooms
        for outcomes, recorder in zip(results, recorders):
            assert all(o.success for o in outcomes)
            snap = recorder.snapshot()
            for i in range(2):
                counters = snap[f"hs:{i}"]
                assert counters.messages_sent == 4
                assert counters.messages_received == 4  # 4 * (m - 1)

    def test_distinct_tokens_per_room(self, scheme1_world):
        members = _lineup(scheme1_world, 2)

        async def scenario():
            async with RendezvousServer(ServerConfig()) as server:
                jobs = [
                    run_room(members,
                             ClientConfig(port=server.port, room=f"r{i}"),
                             scheme1_policy())
                    for i in range(3)
                ]
                await asyncio.gather(*jobs)
            return server.room_outcomes()

        rooms = _run(scenario())
        assert len(rooms) == 3       # three distinct random tokens


class TestRobustness:
    def test_fill_timeout_aborts_lonely_room(self, scheme1_world):
        member = _lineup(scheme1_world, 1)[0]

        async def scenario():
            config = ServerConfig(room_fill_timeout=0.3)
            async with RendezvousServer(config) as server:
                cfg = ClientConfig(port=server.port, room="lonely", m=2,
                                   deadline=10.0)
                outcome = await join_room(member, cfg, scheme1_policy())
            return outcome, server.room_outcomes()

        outcome, rooms = _run(scenario())
        assert outcome.success is False
        assert outcome.index == 0     # WELCOME had arrived before the abort
        assert list(rooms.values()) == ["fill-timeout"]

    def test_room_size_disagreement_is_rejected(self, scheme1_world):
        members = _lineup(scheme1_world, 2)

        async def scenario():
            async with RendezvousServer(ServerConfig(room_fill_timeout=0.5)) as server:
                first = asyncio.ensure_future(join_room(
                    members[0],
                    ClientConfig(port=server.port, room="shared", m=2,
                                 deadline=10.0),
                    scheme1_policy()))
                await asyncio.sleep(0.1)
                second = await join_room(
                    members[1],
                    ClientConfig(port=server.port, room="shared", m=3,
                                 deadline=10.0),
                    scheme1_policy())
                return await first, second

        first, second = _run(scenario())
        assert not first.success      # room never filled -> fill-timeout
        assert not second.success     # rejected with ERROR
        assert second.index == -1     # never admitted

    def test_invalid_room_size_rejected(self, scheme1_world):
        member = _lineup(scheme1_world, 1)[0]

        async def scenario():
            async with RendezvousServer(ServerConfig()) as server:
                return await join_room(
                    member,
                    ClientConfig(port=server.port, room="solo", m=1,
                                 deadline=10.0),
                    scheme1_policy())

        outcome = _run(scenario())
        assert not outcome.success and outcome.index == -1

    def test_connect_retries_then_explicit_failure(self, scheme1_world):
        """No server at all: the client backs off, retries, and returns a
        failed outcome — it does not raise and does not hang."""
        member = _lineup(scheme1_world, 1)[0]

        async def scenario():
            # Grab an ephemeral port and close it again: nothing listens.
            probe = await asyncio.start_server(lambda r, w: None,
                                               "127.0.0.1", 0)
            port = probe.sockets[0].getsockname()[1]
            probe.close()
            await probe.wait_closed()
            recorder = metrics.Recorder()
            with metrics.using(recorder):
                outcome = await join_room(
                    member,
                    ClientConfig(port=port, connect_retries=2,
                                 backoff_base=0.01, deadline=5.0),
                    scheme1_policy())
            return outcome, recorder.snapshot()

        outcome, snap = _run(scenario())
        assert not outcome.success and outcome.index == -1
        assert snap["total"].extra["svc-client:retries"] == 2
        assert snap["total"].extra["svc-client:transport-failures"] == 1

    def test_relay_breaking_protocol_is_a_failed_outcome(self,
                                                         scheme1_world):
        """A fake relay sends a second WELCOME after ROOM_READY: the client
        returns a failed, non-retryable outcome instead of raising
        ``ProtocolError``."""
        member = _lineup(scheme1_world, 1)[0]

        async def fake_relay(reader, writer):
            await framing.read_frame(reader)             # the HELLO
            for message in (protocol.Welcome("bent", 0, 2),
                            protocol.RoomReady("bent", "ab" * 8, 2),
                            protocol.Welcome("bent", 0, 2)):
                await framing.write_frame(writer,
                                          protocol.encode_message(message))
            await reader.read()             # until the client hangs up
            writer.close()

        async def scenario():
            relay = await asyncio.start_server(fake_relay, "127.0.0.1", 0)
            port = relay.sockets[0].getsockname()[1]
            recorder = metrics.Recorder()
            try:
                with metrics.using(recorder):
                    outcome = await join_room(
                        member, ClientConfig(port=port, room="bent", m=2,
                                             deadline=10.0),
                        scheme1_policy())
            finally:
                relay.close()
                await relay.wait_closed()
            return outcome, recorder.snapshot()

        outcome, snap = _run(scenario())
        assert not outcome.success and not outcome.retryable
        assert outcome.index == 0
        assert snap["total"].extra["svc-client:protocol-errors"] == 1

    @pytest.mark.parametrize("malformed", [
        lambda token: ("dgka", token),
        lambda token: ("phase3", token, 1, b"theta", 5),
    ], ids=["dgka-without-fields", "phase3-int-delta"])
    def test_malformed_peer_payload_is_a_failed_outcome(self, scheme1_world,
                                                        malformed):
        """A raw peer broadcasts a handshake payload that does not unpack.
        The honest party drops and counts it, then returns a failed
        outcome by its deadline instead of raising out of ``join_room``."""
        member = _lineup(scheme1_world, 1)[0]
        deadline = 2.0

        async def scenario():
            loop = asyncio.get_running_loop()
            recorder = metrics.Recorder()
            async with RendezvousServer(ServerConfig()) as server:
                cfg = ClientConfig(port=server.port, room="hostile", m=2,
                                   deadline=deadline)
                joined = asyncio.Event()
                started = loop.time()
                with metrics.using(recorder):
                    honest = asyncio.ensure_future(join_room(
                        member, cfg, scheme1_policy(), random.Random(3),
                        joined=joined))
                await joined.wait()
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port)
                await framing.write_frame(writer, protocol.encode_message(
                    protocol.Hello(room="hostile", m=2)))
                await framing.read_frame(reader)                 # WELCOME
                ready = protocol.decode_message(
                    await framing.read_frame(reader))
                await framing.write_frame(writer, protocol.encode_message(
                    protocol.Broadcast(payload=malformed(ready.token))))
                outcome = await honest
                elapsed = loop.time() - started
                writer.close()
            return outcome, elapsed, recorder.snapshot()

        outcome, elapsed, snap = _run(scenario())
        assert not outcome.success and outcome.index == 0
        assert elapsed < deadline + 1.0
        assert snap["total"].extra["hs:malformed-frames"] == 1
        assert snap["total"].extra["svc-client:deadline-expired"] == 1

    def test_shutdown_aborts_filling_room(self, scheme1_world):
        member = _lineup(scheme1_world, 1)[0]

        async def scenario():
            server = await RendezvousServer(ServerConfig()).start()
            task = asyncio.ensure_future(join_room(
                member,
                ClientConfig(port=server.port, room="doomed", m=2,
                             deadline=10.0),
                scheme1_policy()))
            await asyncio.sleep(0.2)          # let the member join
            await server.shutdown()
            outcome = await task
            return outcome, server.room_outcomes()

        outcome, rooms = _run(scenario())
        assert not outcome.success
        assert list(rooms.values()) == ["server-shutdown"]

    def test_shutdown_drains_active_room(self, scheme1_world):
        """A handshake in flight during shutdown is allowed to finish
        inside the drain window."""
        members = _lineup(scheme1_world, 2)

        async def scenario():
            server = await RendezvousServer(
                ServerConfig(drain_timeout=15.0)).start()
            cfg = ClientConfig(port=server.port, room="draining")
            job = asyncio.ensure_future(
                run_room(members, cfg, scheme1_policy()))
            await asyncio.sleep(0.25)         # room active, mid-handshake
            await server.shutdown(drain=True)
            outcomes = await job
            return outcomes, server.room_outcomes()

        outcomes, rooms = _run(scenario())
        assert all(o.success for o in outcomes)
        assert list(rooms.values()) == ["completed"]
