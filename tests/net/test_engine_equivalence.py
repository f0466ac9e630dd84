"""Equivalence of the two handshake drivers.

The synchronous engine (`repro.core.handshake.run_handshake`) and the
asynchronous network runner (`repro.net.runner`) execute the same Fig. 6
protocol; for any membership configuration they must reach the same
verdicts (success flags, confirmed-peer sets, distinctness) even though
the message interleavings differ."""

import random

import pytest

from repro.core.handshake import run_handshake
from repro.core.scheme1 import scheme1_policy
from repro.core.scheme2 import scheme2_policy
from repro.net.runner import run_handshake_over_network
from repro.net.simulator import Network


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
    sync_v, async_v = _verdicts(sync_outcomes), _verdicts(async_outcomes)
    for (si, ss, sc, sd), (ai, as_, ac, ad) in zip(sync_v, async_v):
        assert si == ai
        assert ss == as_, (label, si)
        # Success participants agree on confirmed peers; decoy publishers
        # may differ benignly (the sync engine zeroes them out).
        if ss:
            assert sc == ac, (label, si)


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
