"""End-to-end tests for the multi-process cluster (router + shards).

The load-bearing assertions here are the PR's acceptance criteria: a
5-party handshake routed through a 2-shard cluster produces per-party
E1/E2 counter books and session keys identical to the single-process
server, and killing a shard mid-burst yields only clean retryable client
outcomes — never a hang, never an unhandled router exception.
"""

import asyncio
import random

import pytest

from repro import metrics
from repro.cluster import ClusterConfig, ClusterRouter, merge_histogram_summaries
from repro.cluster.placement import HashRing
from repro.core.scheme1 import scheme1_policy
from repro.load import HandshakeModel, run_timed_room
from repro.service import (
    ClientConfig,
    RendezvousServer,
    ServerConfig,
    join_room,
    query_status,
    run_room,
)

#: Outer cap per test; cluster tests pay ~2s of process spawn on top of
#: the handshakes themselves.
TEST_CAP = 120.0


def _run(coroutine):
    async def capped():
        return await asyncio.wait_for(coroutine, TEST_CAP)
    return asyncio.run(capped())


def _lineup(world, count):
    names = sorted(world.members)[:count]
    return world.lineup(*names)


def _rooms_on_shard(router_config, shard_id, count, prefix="pick"):
    """Room names the cluster will place on ``shard_id`` — computed on an
    identical offline ring, valid because placement is deterministic."""
    ring = HashRing(replicas=router_config.ring_replicas)
    for i in range(router_config.shards):
        ring.add(i)
    names = []
    i = 0
    while len(names) < count:
        name = f"{prefix}-{i}"
        if ring.place(name) == shard_id:
            names.append(name)
        i += 1
    return names


async def _drain_mid_fill(router, members, rooms, live):
    """Hold each room of ``rooms`` (all on shard 0) mid-fill with its first
    member joined, drain shard 0 — live (``drain_shard``) or by the
    legacy shed (``monitor.drain``) — then send each room's second
    member.  Returns the live drain's report (None for the shed) and
    every outcome."""
    policy = scheme1_policy()
    firsts, cfgs = [], []
    for i, room in enumerate(rooms):
        cfg = ClientConfig(port=router.port, room=room, backoff_base=0.05,
                           backoff_max=0.3, deadline=30.0)
        joined = asyncio.Event()
        firsts.append(asyncio.ensure_future(join_room(
            members[0], cfg, policy, random.Random(1 + i), joined=joined)))
        cfgs.append(cfg)
        await joined.wait()             # room filling on shard 0
    report = None
    if live:
        report = await router.drain_shard(0)
    else:
        router.monitor.drain(0)
    seconds = [asyncio.ensure_future(join_room(
        members[1], cfg, policy, random.Random(20 + i)))
        for i, cfg in enumerate(cfgs)]
    return report, await asyncio.gather(*firsts, *seconds)


class TestClusterSmoke:
    def test_two_shard_room_and_aggregated_status(self, scheme1_world):
        members = _lineup(scheme1_world, 2)

        async def scenario():
            config = ClusterConfig(shards=2, heartbeat_interval=0.1)
            async with ClusterRouter(config) as router:
                cfg = ClientConfig(port=router.port, room="smoke")
                outcomes = await run_room(members, cfg, scheme1_policy())
                # Let the owning shard's next heartbeat carry the books.
                await asyncio.sleep(0.4)
                status = await query_status("127.0.0.1", router.port)
                return outcomes, status

        # Fresh recorder: the router's svc-cluster:* counters land in the
        # ambient recorder, which is process-global across tests.
        with metrics.using(metrics.Recorder()):
            outcomes, status = _run(scenario())
        assert all(o.success for o in outcomes)
        assert status["cluster"]["shards"] == 2
        assert status["cluster"]["states"].get("up") == [0, 1]
        assert status["outcomes"].get("completed", 0) >= 1
        assert status["counters"].get("svc-cluster:placements", 0) == 2
        # The merged histogram section carries real shard observations.
        relay = status["histograms"].get("svc:relay-latency")
        assert relay is not None and relay["count"] > 0

    def test_rooms_spread_and_books_merge_across_shards(self, scheme1_world):
        """Rooms hashed to different shards run concurrently; every room's
        per-party books equal the capacity model's, and the aggregated
        STATUS sums both shards' room counts and counters."""
        members = _lineup(scheme1_world, 2)
        config = ClusterConfig(shards=2, heartbeat_interval=0.1)
        on_zero = _rooms_on_shard(config, 0, 2, prefix="spread")
        on_one = _rooms_on_shard(config, 1, 2, prefix="spread")

        async def scenario():
            async with ClusterRouter(config) as router:
                jobs = [
                    run_timed_room(members,
                                   ClientConfig(port=router.port, room=name),
                                   scheme1_policy(),
                                   model=HandshakeModel("1"))
                    for name in on_zero + on_one
                ]
                results = await asyncio.gather(*jobs)
                await asyncio.sleep(0.4)
                status = await query_status("127.0.0.1", router.port)
                return results, status

        results, status = _run(scenario())
        assert [r.outcome for r in results] == ["completed"] * 4
        assert [r.mismatches for r in results] == [[]] * 4
        assert status["outcomes"].get("completed") == 4
        assert status["counters"].get("svc:rooms-completed") == 4
        # Both shards really hosted rooms (placement spread the keys).
        for line in status["shards"].values():
            assert line["rooms"]["closed"] >= 1


class TestClusterParity:
    def test_five_party_books_and_keys_match_single_process(
            self, service_world):
        """Acceptance criterion: routing through the cluster changes
        nothing observable — identical per-party (modexp, sent, received)
        books in scope ``hs:<i>`` and identical session keys, against the
        single-process server with the same seeds.  Token seeds align the
        room's session id across legs; client rngs align the DGKA
        contributions the keys derive from."""
        members = _lineup(service_world, 5)
        policy = scheme1_policy()
        m = len(members)

        def fresh_rngs():
            return [random.Random(9100 + i) for i in range(m)]

        def per_party(recorder):
            snap = recorder.snapshot()
            return [
                (snap[f"hs:{i}"].modexp,
                 snap[f"hs:{i}"].messages_sent,
                 snap[f"hs:{i}"].messages_received)
                for i in range(m)
            ]

        async def single_leg():
            config = ServerConfig(token_rng=random.Random(4242))
            async with RendezvousServer(config) as server:
                cfg = ClientConfig(port=server.port, room="parity")
                return await run_room(members, cfg, policy,
                                      rngs=fresh_rngs())

        async def cluster_leg():
            config = ClusterConfig(shards=2, token_seeds=[4242, 4242])
            async with ClusterRouter(config) as router:
                cfg = ClientConfig(port=router.port, room="parity")
                return await run_room(members, cfg, policy,
                                      rngs=fresh_rngs())

        single_rec = metrics.Recorder()
        with metrics.using(single_rec):
            single_outcomes = _run(single_leg())
        cluster_rec = metrics.Recorder()
        with metrics.using(cluster_rec):
            cluster_outcomes = _run(cluster_leg())

        assert all(o.success for o in single_outcomes)
        assert all(o.success for o in cluster_outcomes)
        single_keys = [o.session_key for o in single_outcomes]
        cluster_keys = [o.session_key for o in cluster_outcomes]
        assert None not in single_keys
        assert single_keys == cluster_keys
        single_books = per_party(single_rec)
        assert per_party(cluster_rec) == single_books
        # And the books are the paper's profile, not merely equal junk:
        # 4 broadcasts per party, each received by the other m-1.
        assert all(sent == 4 and received == 4 * (m - 1)
                   for _, sent, received in single_books)


class TestAdmissionControl:
    def test_full_shard_sheds_busy_then_admits(self, scheme1_world):
        """A shard at its ``max_rooms`` ceiling sheds new rooms with BUSY;
        shed clients back off and re-HELLO (through the router, landing on
        the same owner — capacity never splits a room across shards) and
        are admitted once the slot frees."""
        members = _lineup(scheme1_world, 2)
        policy = scheme1_policy()
        config = ClusterConfig(shards=2, max_rooms_per_shard=1,
                               heartbeat_interval=0.1)
        # Both rooms on the same shard, so the second is shed while the
        # first holds the only slot.
        holder_room, queued_room = _rooms_on_shard(config, 0, 2)

        async def scenario():
            async with ClusterRouter(config) as router:
                holder_cfg = ClientConfig(port=router.port, room=holder_room)
                joined = asyncio.Event()
                first = asyncio.ensure_future(join_room(
                    members[0], holder_cfg, policy, random.Random(1),
                    joined=joined))
                await joined.wait()     # shard 0's slot is now taken
                shed_cfg = ClientConfig(port=router.port, room=queued_room,
                                        backoff_base=0.05, backoff_max=0.2)
                shed = [asyncio.ensure_future(join_room(
                            member, shed_cfg, policy, random.Random(10 + i)))
                        for i, member in enumerate(members)]
                await asyncio.sleep(0.4)    # guarantee at least one BUSY
                second = asyncio.ensure_future(join_room(
                    members[1], holder_cfg, policy, random.Random(2)))
                return await asyncio.gather(first, second, *shed)

        recorder = metrics.Recorder()
        with metrics.using(recorder):
            outcomes = _run(scenario())
        assert all(o.success for o in outcomes)
        assert recorder.total().extra.get("svc-client:busy-retries", 0) >= 1


class TestFailover:
    def test_kill_shard_mid_burst_only_retryable_outcomes(
            self, scheme1_world):
        """Acceptance criterion: SIGKILL one shard while a burst of rooms
        is in flight.  Every client outcome is either a success (the room
        re-placed onto the survivor) or an explicitly retryable failure —
        no hangs, no unhandled exceptions — and the router keeps
        answering STATUS afterwards."""
        members = _lineup(scheme1_world, 2)
        policy = scheme1_policy()
        config = ClusterConfig(shards=2, heartbeat_interval=0.1)
        # Three rooms on each shard: the kill provably hits live rooms.
        rooms = (_rooms_on_shard(config, 0, 3, prefix="burst")
                 + _rooms_on_shard(config, 1, 3, prefix="burst"))

        async def scenario():
            async with ClusterRouter(config) as router:
                jobs = [
                    asyncio.ensure_future(run_room(
                        members,
                        ClientConfig(port=router.port, room=name,
                                     backoff_base=0.05, backoff_max=0.3,
                                     deadline=30.0),
                        policy))
                    for name in rooms
                ]
                await asyncio.sleep(0.15)      # burst underway
                router.kill_shard(0)
                results = await asyncio.gather(*jobs)
                status = await query_status("127.0.0.1", router.port)
                return results, status

        results, status = _run(scenario())
        flat = [o for room in results for o in room]
        assert all(o.success or o.retryable for o in flat)
        # The survivor keeps completing rooms: at least the burst half
        # that lived on shard 1 plus every re-placed room that made it.
        assert sum(o.success for o in flat) >= 6
        assert status["cluster"]["states"].get("dead") == [0]
        assert status["cluster"]["states"].get("up") == [1]

    def test_drain_shard_migrates_unfilled_room_live(self, scheme1_world):
        """Graceful drain is a live migration: each half-filled room moves
        to the survivor with its waiting member attached in place — the
        client sees one MIGRATED frame, never an abort, never a retry.
        Each second member's later HELLO is re-placed onto the survivor
        and lands in the *same* migrated room."""
        members = _lineup(scheme1_world, 2)
        config = ClusterConfig(shards=2, heartbeat_interval=0.1)
        rooms = _rooms_on_shard(config, 0, 2, prefix="drainee")

        async def scenario():
            async with ClusterRouter(config) as router:
                report, outcomes = await _drain_mid_fill(
                    router, members, rooms, live=True)
                status = await query_status("127.0.0.1", router.port)
                return outcomes, status, report

        recorder = metrics.Recorder()
        with metrics.using(recorder):
            outcomes, status, report = _run(scenario())
        assert all(o.success for o in outcomes)
        assert report == {"migrated": 2, "completed": 0, "failed": 0}
        extra = recorder.total().extra
        # The waiting members were moved, not shed: one MIGRATED hop
        # each, zero client retries of any kind (the shed path below
        # forces a rejoin per room).
        assert extra.get("svc-client:migrations", 0) == 2
        for counter in ("svc-client:retries", "svc-client:busy-retries",
                        "svc-client:rejoin-retries",
                        "svc-client:room-aborts"):
            assert extra.get(counter, 0) == 0, counter
        assert extra.get("svc-cluster:migrations", 0) == 2
        # One restore-latency sample per moved room.
        assert recorder.histograms()["svc-cluster:restore-latency"].total == 2
        # The second HELLOs crossed shards: placement recorded explicit
        # re-placements away from the (draining) primary owner.
        assert extra.get("svc-cluster:replacements", 0) >= 2
        assert 0 not in status["cluster"]["states"].get("up", [])

    def test_shed_drain_rejoins_every_waiting_member(self, scheme1_world):
        """The legacy shed path (``monitor.drain``, what ``drain_shard``
        falls back to when a migration step fails): the drained shard
        aborts its filling rooms, and every waiting member rejoins
        through the router, lands on the survivor and succeeds."""
        members = _lineup(scheme1_world, 2)
        config = ClusterConfig(shards=2, heartbeat_interval=0.1)
        rooms = _rooms_on_shard(config, 0, 2, prefix="shed")

        async def scenario():
            async with ClusterRouter(config) as router:
                _, outcomes = await _drain_mid_fill(
                    router, members, rooms, live=False)
                return outcomes

        recorder = metrics.Recorder()
        with metrics.using(recorder):
            outcomes = _run(scenario())
        assert all(o.success for o in outcomes)
        extra = recorder.total().extra
        assert extra.get("svc-client:rejoin-retries", 0) >= len(rooms)
        assert extra.get("svc-client:migrations", 0) == 0

    def test_no_live_shards_is_retryable_not_a_hang(self, scheme1_world):
        members = _lineup(scheme1_world, 2)
        config = ClusterConfig(shards=2, heartbeat_interval=0.1)

        async def scenario():
            async with ClusterRouter(config) as router:
                router.kill_shard(0)
                router.kill_shard(1)
                cfg = ClientConfig(port=router.port, room="nowhere",
                                   backoff_base=0.05, backoff_max=0.2,
                                   deadline=2.0)
                outcome = await join_room(members[0], cfg, scheme1_policy(),
                                          random.Random(5))
                status = await query_status("127.0.0.1", router.port)
                return outcome, status

        outcome, status = _run(scenario())
        assert not outcome.success
        assert outcome.retryable
        assert status["cluster"]["states"].get("dead") == [0, 1]


class TestStatusMerge:
    def test_merge_histogram_summaries_is_exact(self):
        """Merging two shard summaries equals one histogram that saw all
        observations — the raw bucket counts make the merge lossless."""
        bounds = [0.001, 0.01, 0.1, 1.0]
        one = metrics.Histogram("h", bounds)
        two = metrics.Histogram("h", bounds)
        both = metrics.Histogram("h", bounds)
        rng = random.Random(77)
        for _ in range(200):
            value = rng.random() * rng.choice([0.001, 0.01, 0.1, 2.0])
            (one if rng.random() < 0.5 else two).observe(value)
            both.observe(value)
        merged = merge_histogram_summaries(
            "h", [one.summary(), two.summary()])
        expected = both.summary()
        # sum/mean differ only by float-addition order; counts are exact.
        for key in ("sum", "mean"):
            assert merged.pop(key) == pytest.approx(expected.pop(key))
        assert merged == expected

    def test_merge_skips_incompatible_bounds(self):
        a = metrics.Histogram("h", [0.1, 1.0])
        b = metrics.Histogram("h", [0.5, 2.0])
        a.observe(0.05)
        b.observe(0.05)
        merged = merge_histogram_summaries("h", [a.summary(), b.summary()])
        assert merged == a.summary()     # the conflicting part is refused

    def test_merge_of_nothing_is_none(self):
        assert merge_histogram_summaries("h", []) is None
