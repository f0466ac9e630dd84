"""A relay keeps nothing per closed room.

Twenty m=2 rooms replay one scripted DGKA/tag/Phase-III exchange through
raw protocol clients against one in-process relay.  Afterwards the room
registry is empty, the recorder holds no per-room scope, STATUS still
tallies every room, and each room's checkpoints carry that room's relay
book alone: the k-th checkpoint of every room has the same counters.
Dropping a closed room must not drop a newer room of the same name.
"""

import asyncio

from repro import metrics
from repro.service import RendezvousServer, ServerConfig, framing, protocol

TEST_CAP = 60.0
ROOMS = 20

#: (sender, payload) in the paper's per-party profile for m=2: two DGKA
#: rounds, one MAC tag, one Phase-III publication per party.
SCRIPT = [
    (0, ("dgka", 1, 0, b"r1-from-0")),
    (1, ("dgka", 1, 1, b"r1-from-1")),
    (0, ("dgka", 2, 0, b"r2-from-0")),
    (1, ("dgka", 2, 1, b"r2-from-1")),
    (0, ("tag", 0, b"tag-0")),
    (1, ("tag", 1, b"tag-1")),
    (0, ("phase3", 0, b"theta-0", (1, 2, 3, 4))),
    (1, ("phase3", 1, b"theta-1", (5, 6, 7, 8))),
]


async def _read(reader):
    blob = await framing.read_frame(reader)
    assert blob is not None, "the relay closed the connection"
    return protocol.decode_message(blob)


async def _hello(port, name, conns):
    """Open one connection, HELLO into ``name`` (m=2), and return the
    roster index the WELCOME assigns."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    conns.append((reader, writer))
    await framing.write_frame(writer, protocol.encode_message(
        protocol.Hello(room=name, m=2)))
    welcome = await _read(reader)
    assert isinstance(welcome, protocol.Welcome)
    return welcome.index


async def _done(conns):
    """Both members send DONE; returns once the relay has closed both
    connections, i.e. after it closed the room."""
    for _, writer in conns:
        await framing.write_frame(
            writer, protocol.encode_message(protocol.Done()))
    for reader, _ in conns:
        assert await framing.read_frame(reader) is None


async def _replay(port, name):
    """HELLO both members, relay the script one frame at a time (each is
    read at the receiver before the next is sent), then DONE."""
    conns = []
    try:
        for index in range(2):
            assert await _hello(port, name, conns) == index
        for reader, _ in conns:
            assert isinstance(await _read(reader), protocol.RoomReady)
        for sender, payload in SCRIPT:
            await framing.write_frame(conns[sender][1],
                                      protocol.encode_message(
                                          protocol.Broadcast(payload)))
            got = await _read(conns[1 - sender][0])
            assert isinstance(got, protocol.Deliver)
            assert got.payload == payload
        await _done(conns)
    finally:
        for _, writer in conns:
            writer.close()


def test_closed_rooms_leave_only_tallies_behind():
    recorder = metrics.Recorder()
    checkpoints = []

    async def scenario():
        server = await RendezvousServer(ServerConfig()).start()
        server.on_checkpoint = lambda payload, final: checkpoints.append(
            (payload, final))
        try:
            for i in range(ROOMS):
                await _replay(server.port, f"kept-{i}")
            return (dict(server._rooms), server.status(),
                    server.room_outcomes())
        finally:
            await server.shutdown()

    async def capped():
        return await asyncio.wait_for(scenario(), TEST_CAP)

    with metrics.using(recorder):
        rooms, status, outcomes = asyncio.run(capped())

    assert rooms == {}
    assert not [name for name in recorder.snapshot()
                if name.startswith("room:")]
    assert status["rooms"]["closed"] == ROOMS
    assert status["outcomes"] == {"completed": ROOMS}
    assert status["admission"]["open_rooms"] == 0
    assert len(outcomes) == ROOMS
    assert set(outcomes.values()) == {"completed"}

    # Fill, then the dgka -> tag and tag -> phase3 barriers: 3 per room.
    assert len(checkpoints) == 3 * ROOMS
    assert not any(final for _, final in checkpoints)
    by_room = {}
    for payload, _ in checkpoints:
        by_room.setdefault(payload["token"], []).append(payload["counters"])
    assert set(by_room) == set(outcomes)
    books = list(by_room.values())
    assert all(book == books[0] for book in books)
    assert books[0][0] == {}
    assert [counters.get("svc:messages-relayed", 0)
            for counters in books[0]] == [0, 4, 6]
    assert [counters.get("messages_sent", 0)
            for counters in books[0]] == [0, 4, 6]


def test_closing_a_room_keeps_a_newer_room_of_its_name_joinable():
    """A name is free again once its room has filled.  When that room
    closes while a newer room of the same name is filling, the newer
    room keeps its place: the next HELLO joins it."""
    async def scenario():
        server = await RendezvousServer(ServerConfig()).start()
        old, new = [], []
        try:
            for index in range(2):
                assert await _hello(server.port, "reused", old) == index
            for reader, _ in old:
                assert isinstance(await _read(reader), protocol.RoomReady)
            first = await _hello(server.port, "reused", new)
            await _done(old)
            second = await _hello(server.port, "reused", new)
            ready = [await _read(reader) for reader, _ in new]
            return first, second, ready
        finally:
            for _, writer in old + new:
                writer.close()
            await server.shutdown(drain=False)

    async def capped():
        return await asyncio.wait_for(scenario(), TEST_CAP)

    with metrics.using(metrics.Recorder()):
        first, second, ready = asyncio.run(capped())
    assert (first, second) == (0, 1)
    assert all(isinstance(frame, protocol.RoomReady) for frame in ready)
