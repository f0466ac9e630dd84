"""Live-migration acceptance tests: drain is a move, not a shed.

One traced 5-party room is caught **mid-Phase-II** (every party has
broadcast at least one DGKA round) and its shard drained.  The room is
checkpointed, restored on the peer shard and re-spliced; the claims
pinned here are the PR's acceptance criteria:

* every party succeeds with **zero** client retries and exactly one
  MIGRATED frame — no re-HELLO, no Phase I–III crypto re-run;
* per-party (modexp, sent, received) books and session keys are
  byte-identical to an unmigrated single-process run with the same
  seeds — the hop is invisible to the cryptography;
* the donor's room-scope relay book survives its death (replayed into
  the target's recorder from the checkpoint);
* span lanes from the donor shard, the target shard and the clients
  share one trace id across the hop.

A second scenario holds a member's router-to-donor dial open until the
drain has begun: that member must still land in the moved room with no
retry.
"""

import asyncio
import random

import pytest

from repro import metrics
from repro.cluster import ClusterConfig, ClusterRouter
from repro.cluster.health import DRAINING
from repro.cluster.placement import HashRing
from repro.core.scheme1 import scheme1_policy
from repro.obs import spans as obs
from repro.service import (
    ClientConfig,
    RendezvousServer,
    ServerConfig,
    join_room,
    query_status,
)

TEST_CAP = 120.0


def _run(coroutine):
    async def capped():
        return await asyncio.wait_for(coroutine, TEST_CAP)
    return asyncio.run(capped())


def _room_on_shard(config, shard_id, prefix):
    ring = HashRing(replicas=config.ring_replicas)
    for i in range(config.shards):
        ring.add(i)
    i = 0
    while True:
        name = f"{prefix}-{i}"
        if ring.place(name) == shard_id:
            return name
        i += 1


def _fresh_rngs(m):
    return [random.Random(9100 + i) for i in range(m)]


def _per_party(recorder, m):
    snap = recorder.snapshot()
    return [
        (snap[f"hs:{i}"].modexp,
         snap[f"hs:{i}"].messages_sent,
         snap[f"hs:{i}"].messages_received)
        for i in range(m)
    ]


async def _mid_phase2(recorder, m):
    """Block until every party has broadcast at least one DGKA round —
    the room is provably ACTIVE and relaying (Phase II), with three more
    full fan-out rounds still ahead of it."""
    while True:
        snap = recorder.snapshot()
        if all(f"hs:{i}" in snap and snap[f"hs:{i}"].messages_sent >= 1
               for i in range(m)):
            return
        await asyncio.sleep(0.002)


@pytest.fixture(scope="module")
def migration_world(request):
    """One traced mid-Phase-II drain migration plus the unmigrated
    single-process control leg, shared by all assertions below (cluster
    spawns and 5-party handshakes are expensive)."""
    world = request.getfixturevalue("service_world")
    members = world.lineup(*sorted(world.members)[:5])
    policy = scheme1_policy()
    m = len(members)
    config = ClusterConfig(shards=2, heartbeat_interval=0.1, trace=True,
                           token_seeds=[4242, 4242])
    room = _room_on_shard(config, 0, "midflight")
    trace_id = obs.mint_trace_id()

    async def single_leg():
        server_config = ServerConfig(token_rng=random.Random(4242))
        async with RendezvousServer(server_config) as server:
            cfg = ClientConfig(port=server.port, room=room, m=m)
            rngs = _fresh_rngs(m)
            tasks = []
            for i, member in enumerate(members):
                joined = asyncio.Event()
                tasks.append(asyncio.ensure_future(join_room(
                    member, cfg, policy, rngs[i], joined=joined)))
                await joined.wait()    # roster order fixed, like run_room
            return await asyncio.gather(*tasks)

    async def migrated_leg(recorder):
        async with ClusterRouter(config) as router:
            cfg = ClientConfig(port=router.port, room=room, m=m,
                               backoff_base=0.05, backoff_max=0.3,
                               deadline=30.0, trace=trace_id)
            rngs = _fresh_rngs(m)
            tasks = []
            for i, member in enumerate(members):
                joined = asyncio.Event()
                tasks.append(asyncio.ensure_future(join_room(
                    member, cfg, policy, rngs[i], joined=joined)))
                await joined.wait()
            await _mid_phase2(recorder, m)
            report = await router.drain_shard(0)
            outcomes = await asyncio.gather(*tasks)
            # Two heartbeats so the target ships spans + final books.
            await asyncio.sleep(3 * config.heartbeat_interval)
            shipped = router.shipped_spans()
            status = await query_status("127.0.0.1", router.port)
            return outcomes, report, shipped, status

    single_rec = metrics.Recorder()
    with metrics.using(single_rec):
        single_outcomes = _run(single_leg())
    cluster_rec = metrics.Recorder()
    cluster_rec.tracing = True
    with metrics.using(cluster_rec):
        outcomes, report, shipped, status = _run(migrated_leg(cluster_rec))
    return {
        "m": m,
        "room": room,
        "trace_id": trace_id,
        "single_outcomes": single_outcomes,
        "single_rec": single_rec,
        "outcomes": outcomes,
        "report": report,
        "shipped": shipped,
        "status": status,
        "cluster_rec": cluster_rec,
        "local_spans": [s.as_dict() for s in cluster_rec.spans()],
    }


class TestMigrationIsInvisible:
    def test_room_was_actually_migrated_mid_flight(self, migration_world):
        assert migration_world["report"] == {
            "migrated": 1, "completed": 0, "failed": 0}
        counters = migration_world["status"]["counters"]
        assert counters.get("svc-cluster:migrations") == 1
        # The restore landed on the survivor: one room came in, five
        # members re-attached in place of HELLOs.
        assert counters.get("svc:rooms-migrated-in") == 1
        assert counters.get("svc:attaches") == migration_world["m"]

    def test_every_party_succeeds_with_zero_retries(self, migration_world):
        assert all(o.success for o in migration_world["outcomes"])
        extra = migration_world["cluster_rec"].total().extra
        # The old shed path forced aborts + re-HELLOs; the live migration
        # must complete the room with no client retry of any kind.
        assert extra.get("svc-client:retries", 0) == 0
        assert extra.get("svc-client:rejoin-retries", 0) == 0
        assert extra.get("svc-client:room-aborts", 0) == 0
        # Each of the five members saw exactly one MIGRATED frame.
        assert extra.get("svc-client:migrations") == migration_world["m"]

    def test_books_and_keys_match_the_unmigrated_run(self, migration_world):
        """The crypto cannot tell it was moved: same per-party
        (modexp, sent, received) books, same session keys, as the
        single-process control with identical seeds."""
        m = migration_world["m"]
        single_keys = [o.session_key
                       for o in migration_world["single_outcomes"]]
        migrated_keys = [o.session_key for o in migration_world["outcomes"]]
        assert None not in single_keys
        assert migrated_keys == single_keys
        single_books = _per_party(migration_world["single_rec"], m)
        assert _per_party(migration_world["cluster_rec"], m) == single_books
        # And the profile is the paper's: 4 broadcasts per party, each
        # received by the other m-1.
        assert all(sent == 4 and received == 4 * (m - 1)
                   for _, sent, received in single_books)

    def test_relay_book_survives_the_donor_shard(self, migration_world):
        """Frames relayed by the donor before the hop are replayed from
        the checkpoint into the target's recorder, so the merged cluster
        book equals the single-process control even though the donor is
        dead and excluded from the merge."""
        m = migration_world["m"]
        single_total = migration_world["single_rec"].total().extra
        merged = migration_world["status"]["counters"]
        # One relayed frame per broadcast: 4 per party.
        assert single_total.get("svc:messages-relayed") == 4 * m
        assert merged.get("svc:messages-relayed") == 4 * m
        assert merged.get("svc:rooms-completed") == 1
        states = migration_world["status"]["cluster"]["states"]
        assert 0 not in states.get("up", [])


class TestDialRacingADrain:
    def test_member_dialled_before_the_drain_joins_the_moved_room(
            self, scheme1_world, monkeypatch):
        """The router picks the donor for a HELLO, and the donor is marked
        draining while that dial is still open.  drain_shard has already
        collected the donor's splices, so the router must place the HELLO
        again (after the room's hop) instead of splicing it onto the
        donor, where the final drain would abort it."""
        members = scheme1_world.lineup("alice", "bob")
        policy = scheme1_policy()
        config = ClusterConfig(shards=2, heartbeat_interval=0.1)
        room = _room_on_shard(config, 0, "racer")
        real_open_connection = asyncio.open_connection

        async def scenario():
            async with ClusterRouter(config) as router:
                donor = router.monitor.handles[0]
                armed, dialling, release = (asyncio.Event(), asyncio.Event(),
                                            asyncio.Event())

                async def held_open_connection(host, port, *args, **kw):
                    if armed.is_set() and port == donor.port \
                            and not release.is_set():
                        dialling.set()
                        await release.wait()
                    return await real_open_connection(host, port, *args, **kw)

                monkeypatch.setattr(asyncio, "open_connection",
                                    held_open_connection)
                cfg = ClientConfig(port=router.port, room=room,
                                   backoff_base=0.05, backoff_max=0.3,
                                   deadline=30.0)
                joined = asyncio.Event()
                first = asyncio.ensure_future(join_room(
                    members[0], cfg, policy, random.Random(1),
                    joined=joined))
                await joined.wait()          # room filling on the donor
                armed.set()
                second = asyncio.ensure_future(join_room(
                    members[1], cfg, policy, random.Random(2)))
                await dialling.wait()        # router is dialling the donor
                drain = asyncio.ensure_future(router.drain_shard(0))
                while donor.state != DRAINING:
                    await asyncio.sleep(0)
                release.set()
                report = await drain
                return await asyncio.gather(first, second), report

        recorder = metrics.Recorder()
        with metrics.using(recorder):
            outcomes, report = _run(scenario())
        assert all(o.success for o in outcomes)
        assert report == {"migrated": 1, "completed": 0, "failed": 0}
        extra = recorder.total().extra
        assert extra.get("svc-client:rejoin-retries", 0) == 0
        assert extra.get("svc-client:room-aborts", 0) == 0
        assert extra.get("svc-client:retries", 0) == 0


class TestTraceContinuity:
    def test_one_trace_spans_the_hop(self, migration_world):
        """Donor room spans, target restore/relay spans and the clients'
        handshake spans all carry the trace id minted before the drain —
        the hop reads as one trace."""
        trace_id = migration_world["trace_id"]
        shipped = migration_world["shipped"]
        donor_rows = (shipped.get(0) or {}).get("spans") or []
        target_rows = (shipped.get(1) or {}).get("spans") or []
        donor_rooms = [row for row in donor_rows if row["name"] == "room"
                       and row["trace_id"] == trace_id]
        assert donor_rooms, "donor shipped no traced room span"
        assert any(row.get("attr.outcome") == "migrated"
                   for row in donor_rooms)
        target_traced = [row for row in target_rows
                         if row["trace_id"] == trace_id]
        assert any(row["name"] == "room" for row in target_traced)
        assert any(row["name"] == "room:restore" for row in target_traced)
        handshakes = [row for row in migration_world["local_spans"]
                      if row["name"] == "handshake"]
        assert len(handshakes) == migration_world["m"]
        assert all(row["trace_id"] == trace_id for row in handshakes)
