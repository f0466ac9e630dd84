"""One state machine on every transport.

The engine (`repro.core.handshake.run_handshake`, a lockstep driver on an
in-memory bus), the simulator (`repro.net.runner`, FIFO or reordered),
real sockets and the 2-shard cluster all run
`repro.core.handshake.HandshakeDevice`.  Given the same per-party rngs
they must reach identical outcomes, k', session keys and transcripts,
and book identical per-party work — modexp, modmul, messages sent and
received, hashes and inversions — however the frames interleave."""

import asyncio
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro import metrics
from repro.core.handshake import HandshakePolicy, run_devices, run_handshake
from repro.core.scheme1 import scheme1_policy
from repro.core.scheme2 import scheme2_policy
from repro.dgka.gdh import GdhParty
from repro.net.runner import run_handshake_over_network
from repro.net.simulator import Network
from repro.service import ClientConfig, RendezvousServer, ServerConfig, run_room


def _verdicts(outcomes):
    return [
        (o.index, o.success, frozenset(o.confirmed_peers), o.distinct)
        for o in outcomes
    ]


CONFIGS = [
    ("same-group pair", ["alice", "bob"], [], False),
    ("same-group trio", ["alice", "bob", "carol"], [], False),
    ("mixed 2+1", ["alice", "bob"], ["dan"], False),
    ("mixed 2+2 partial", ["alice", "bob"], ["dan", "eve"], True),
]


@pytest.mark.parametrize("label,ours,theirs,partial", CONFIGS)
def test_sync_async_same_verdicts(label, ours, theirs, partial,
                                  scheme1_world, other_scheme1_world):
    lineup = scheme1_world.lineup(*ours) + other_scheme1_world.lineup(*theirs)
    policy = scheme1_policy(partial_success=partial)
    sync_outcomes = run_handshake(lineup, policy, scheme1_world.rng)
    async_outcomes = run_handshake_over_network(
        lineup, policy, scheme1_world.rng,
        network=Network(reorder_rng=random.Random(5)),
        session_id=f"eq-{label}",
    )
    assert _verdicts(sync_outcomes) == _verdicts(async_outcomes), label


def test_sync_async_scheme2_rogue(scheme2_world):
    lineup = scheme2_world.lineup("xavier", "yvonne", "xavier")
    sync_outcomes = run_handshake(lineup, scheme2_policy(), scheme2_world.rng)
    async_outcomes = run_handshake_over_network(
        lineup, scheme2_policy(), scheme2_world.rng,
        network=Network(reorder_rng=random.Random(9)),
        session_id="eq-rogue",
    )
    assert sync_outcomes[1].distinct is False
    assert async_outcomes[1].distinct is False
    assert not sync_outcomes[1].success and not async_outcomes[1].success


def test_five_party_service_transport_count_parity(service_world):
    """The acceptance bar for the socket transport: a 5-party handshake
    over real loopback TCP performs exactly the same per-party work —
    modexp, messages sent, messages received and hashes in scope
    ``hs:<i>`` — as the synchronous engine and the in-process simulator.

    The simulator and socket legs run with span tracing *enabled* while
    the engine leg runs with it off: parity across the three recorders
    therefore also proves instrumentation is observationally free."""
    import asyncio

    from repro import metrics
    from repro.service import ClientConfig, RendezvousServer, ServerConfig, run_room

    lineup = service_world.lineup(*sorted(service_world.members))
    policy = scheme1_policy()
    m = len(lineup)

    def per_party(recorder):
        snap = recorder.snapshot()
        return [
            (snap[f"hs:{i}"].modexp,
             snap[f"hs:{i}"].messages_sent,
             snap[f"hs:{i}"].messages_received,
             snap[f"hs:{i}"].hashes)
            for i in range(m)
        ]

    sync_rec = metrics.Recorder()
    with metrics.using(sync_rec):
        sync_outcomes = run_handshake(lineup, policy, service_world.rng)

    sim_rec = metrics.Recorder()
    sim_rec.tracing = True
    with metrics.using(sim_rec):
        sim_outcomes = run_handshake_over_network(
            lineup, policy, service_world.rng, session_id="parity-5")

    async def over_sockets():
        async with RendezvousServer(ServerConfig()) as server:
            cfg = ClientConfig(port=server.port, room="parity")
            return await asyncio.wait_for(
                run_room(lineup, cfg, policy), 60)

    svc_rec = metrics.Recorder()
    svc_rec.tracing = True
    with metrics.using(svc_rec):
        svc_outcomes = asyncio.run(over_sockets())

    assert all(o.success for o in sync_outcomes)
    assert all(o.success for o in sim_outcomes)
    assert all(o.success for o in svc_outcomes)
    sync_counts = per_party(sync_rec)
    assert per_party(sim_rec) == sync_counts
    assert per_party(svc_rec) == sync_counts
    # The profile itself is the paper's: 4 broadcasts per party (2 DGKA
    # rounds + tag + phase3), each received by the other m-1 parties.
    assert all(sent == 4 and received == 4 * (m - 1)
               for _, sent, received, _ in sync_counts)
    # The traced legs really did trace: every party has a root span with
    # nested phase spans (the Perfetto acceptance artifact's skeleton).
    for rec in (sim_rec, svc_rec):
        names = [s.name for s in rec.spans()]
        for i in range(m):
            assert f"hs:{i}" in names
        assert names.count("phase:I") == m
        assert names.count("phase:III") == m


def test_both_transcripts_trace_identically(scheme1_world):
    lineup = scheme1_world.lineup("alice", "bob")
    sync_outcomes = run_handshake(lineup, scheme1_policy(), scheme1_world.rng)
    async_outcomes = run_handshake_over_network(
        lineup, scheme1_policy(), scheme1_world.rng, session_id="eq-trace",
    )
    t1 = scheme1_world.framework.trace(sync_outcomes[0].transcript)
    t2 = scheme1_world.framework.trace(async_outcomes[0].transcript)
    assert sorted(t1.identified) == sorted(t2.identified) == ["alice", "bob"]


class _FailingSigner:
    """Member proxy whose group signer fails after Phase II, so the party
    can only publish a decoy in Phase III."""

    def __init__(self, member):
        self._member = member

    def __getattr__(self, name):
        return getattr(self._member, name)

    def gsig_sign(self, message, rng=None, shield=None):
        raise RuntimeError("signing device failed")


def test_failed_signer_fails_every_party_on_every_transport(scheme1_world):
    """All-or-nothing: a party that could not sign publishes a decoy, so
    no one — the failed party included — concludes with a session key,
    whichever transport runs the room."""
    import asyncio

    from repro.service import ClientConfig, RendezvousServer, ServerConfig, run_room

    members = scheme1_world.lineup("alice", "bob", "carol")
    lineup = [_FailingSigner(members[0])] + members[1:]
    policy = scheme1_policy()

    async def over_sockets():
        async with RendezvousServer(ServerConfig()) as server:
            cfg = ClientConfig(port=server.port, room="failed-signer")
            return await asyncio.wait_for(run_room(lineup, cfg, policy), 60)

    legs = {
        "engine": run_handshake(lineup, policy, random.Random(31)),
        "simulator": run_handshake_over_network(
            lineup, policy, random.Random(32),
            network=Network(reorder_rng=random.Random(33)),
            session_id="failed-signer"),
        "sockets": asyncio.run(over_sockets()),
    }
    for transport, outcomes in legs.items():
        assert [o.success for o in outcomes] == [False] * 3, transport
        assert [o.session_key for o in outcomes] == [None] * 3, transport
        # The failed party confirms nobody; the others confirm each other
        # but never the decoy publisher.
        assert outcomes[0].confirmed_peers == set(), transport
        assert [o.confirmed_peers for o in outcomes[1:]] == [{2}, {1}], \
            transport


SEED = 8100


def _gdh(index, m, rng):
    return GdhParty(index, m, rng=rng)


def _room(name, s1, other, s2):
    """The lineup and policy of one named room."""
    return {
        "s1-success": (s1.lineup("alice", "bob", "carol"), scheme1_policy()),
        "s2-success": (s2.lineup("xavier", "yvonne", "zelda"),
                       scheme2_policy()),
        "mixed-2+1": (s1.lineup("alice", "bob") + other.lineup("dan"),
                      scheme1_policy()),
        "partial-2+2": (s1.lineup("alice", "bob")
                        + other.lineup("dan", "eve"),
                        scheme1_policy(partial_success=True)),
        "s2-rogue": (s2.lineup("xavier", "yvonne", "xavier"),
                     scheme2_policy()),
        "failed-signer": ([_FailingSigner(s1.members["alice"])]
                          + s1.lineup("bob", "carol"), scheme1_policy()),
        "untraceable": (s1.lineup("alice", "bob", "carol"),
                        scheme1_policy(traceable=False)),
        "gdh2": (s1.lineup("alice", "bob", "carol", "dave"),
                 HandshakePolicy(dgka_factory=_gdh)),
    }[name]


def _rngs(m):
    return [random.Random(SEED + i) for i in range(m)]


def _engine(members, policy):
    return run_handshake(members, policy, rngs=_rngs(len(members)))


def _simulator(reorder_seed=None):
    def run(members, policy):
        network = Network(reorder_rng=None if reorder_seed is None
                          else random.Random(reorder_seed))
        return run_devices(members, policy, _rngs(len(members)), network,
                           "equivalence", "simulator")
    return run


def _sockets(members, policy):
    async def room():
        async with RendezvousServer(ServerConfig()) as server:
            cfg = ClientConfig(port=server.port, room="equivalence")
            return await asyncio.wait_for(
                run_room(members, cfg, policy, rngs=_rngs(len(members))), 60)
    return asyncio.run(room())


def _cluster(members, policy):
    from repro.cluster import ClusterConfig, ClusterRouter

    async def room():
        async with ClusterRouter(ClusterConfig(shards=2)) as router:
            cfg = ClientConfig(port=router.port, room="equivalence")
            return await asyncio.wait_for(
                run_room(members, cfg, policy, rngs=_rngs(len(members))), 120)
    return asyncio.run(room())


def _observe(transport, members, policy):
    """Everything a party concludes, and every counter it books."""
    recorder = metrics.Recorder()
    with metrics.using(recorder):
        outcomes = transport(members, policy)
    snap = recorder.snapshot()
    results = [(o.index, o.success, o.confirmed_peers, o.distinct,
                o.duplicate_indices, o.k_prime, o.session_key, o.transcript)
               for o in outcomes]
    books = [(c.modexp, c.modmul, c.messages_sent, c.messages_received,
              c.hashes, c.extra.get("inversions", 0))
             for c in (snap[f"hs:{i}"] for i in range(len(members)))]
    return results, books


ROOMS = ("s1-success", "s2-success", "mixed-2+1", "partial-2+2", "s2-rogue",
         "failed-signer", "untraceable", "gdh2")


@pytest.mark.parametrize("room", ROOMS)
def test_every_transport_matches_the_engine(room, scheme1_world,
                                            other_scheme1_world,
                                            scheme2_world):
    members, policy = _room(room, scheme1_world, other_scheme1_world,
                            scheme2_world)
    expected = _observe(_engine, members, policy)
    for transport, run in (("simulator", _simulator()),
                           ("reordered", _simulator(reorder_seed=5)),
                           ("sockets", _sockets)):
        assert _observe(run, members, policy) == expected, transport
    # Every party, a decoy publisher too, sends one frame per DGKA round
    # it speaks in (GDH.2's chain: one), a tag and, when traceable, its
    # Phase III pair, and receives the frames of the other m-1.
    m = len(members)
    frames = (1 if room == "gdh2" else 2) + 1 + policy.traceable
    assert [books[2:4] for books in expected[1]] == \
        [(frames, frames * (m - 1))] * m


def test_cluster_matches_the_engine(scheme1_world, other_scheme1_world,
                                    scheme2_world):
    members, policy = _room("s1-success", scheme1_world,
                            other_scheme1_world, scheme2_world)
    expected = _observe(_engine, members, policy)
    assert all(result[1] for result in expected[0])
    assert _observe(_cluster, members, policy) == expected


def test_engine_tamper_dropping_a_dgka_frame_fails_everyone(scheme1_world):
    """A DGKA frame the tamper drops is never delivered, as on a lossy
    network: its receiver waits for that round forever, so every party
    ends without a session key and nothing raises."""
    def drop(round_no, sender, receiver, payload):
        if (round_no, sender, receiver) == (0, 1, 2):
            return None
        return payload

    outcomes = run_handshake(scheme1_world.lineup("alice", "bob", "carol"),
                             scheme1_policy(), random.Random(7), tamper=drop)
    assert [o.success for o in outcomes] == [False] * 3
    assert [o.session_key for o in outcomes] == [None] * 3


ATTRIBUTED = ("modexp", "hashes", "messages_sent", "messages_received")


@settings(max_examples=12, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), room=st.sampled_from(ROOMS))
def test_party_scopes_sum_to_total(seed, room, scheme1_world,
                                   other_scheme1_world, scheme2_world):
    """Every operation of a room is some party's: on the engine and on
    the simulator the ``hs:<i>`` scopes add up to ``total`` for each
    counted field (an untraceable party's session-key derivation
    included)."""
    members, policy = _room(room, scheme1_world, other_scheme1_world,
                            scheme2_world)
    for run in (lambda: run_handshake(members, policy, random.Random(seed)),
                lambda: run_handshake_over_network(
                    members, policy, random.Random(seed),
                    session_id="attribution")):
        recorder = metrics.Recorder()
        with metrics.using(recorder):
            run()
        snap = recorder.snapshot()
        parties = [snap[f"hs:{i}"] for i in range(len(members))]
        for name in ATTRIBUTED:
            assert sum(getattr(c, name) for c in parties) == \
                getattr(snap["total"], name), (room, name)
        assert sum(c.extra.get("inversions", 0) for c in parties) == \
            snap["total"].extra.get("inversions", 0), room
