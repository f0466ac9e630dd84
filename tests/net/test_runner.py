"""Tests for the network-driven handshake runner and the network MITM."""

from repro.core.scheme1 import scheme1_policy
from repro.core.scheme2 import scheme2_policy
from repro.net.adversary import Eavesdropper, ManInTheMiddle
from repro.net.mitm import NetworkBdSplitter
from repro.net.runner import SessionPlan, run_handshake_over_network
from repro.net.simulator import Network
from repro.security.adversaries import TranscriptDistinguisher


class TestSessionPlan:
    def test_roster(self):
        plan = SessionPlan("s", ["a", "b", "c"])
        assert plan.m == 3
        assert plan.index_of("b") == 1
        assert plan.channel == "handshake/s"


class TestChainDgka:
    """GDH.2 names one speaker per round; each device waits only for the
    senders its DGKA names, so the chain runs on every transport."""

    @staticmethod
    def _policy():
        from repro.core.handshake import HandshakePolicy
        from repro.dgka.gdh import GdhParty

        return HandshakePolicy(
            dgka_factory=lambda i, m, rng: GdhParty(i, m, rng=rng))

    def test_gdh_room_succeeds_on_the_simulator(self, scheme1_world):
        import random

        outcomes = run_handshake_over_network(
            scheme1_world.lineup("alice", "bob", "carol"), self._policy(),
            scheme1_world.rng, network=Network(reorder_rng=random.Random(3)),
            session_id="chain-net")
        assert all(o.success for o in outcomes)
        assert len({o.session_key for o in outcomes}) == 1

    def test_gdh_room_succeeds_over_sockets(self, scheme1_world):
        import asyncio

        from repro.service import (ClientConfig, RendezvousServer,
                                   ServerConfig, run_room)

        async def room():
            async with RendezvousServer(ServerConfig()) as server:
                cfg = ClientConfig(port=server.port, room="chain")
                return await asyncio.wait_for(
                    run_room(scheme1_world.lineup("alice", "bob", "carol"),
                             cfg, self._policy()), 60)

        outcomes = asyncio.run(room())
        assert all(o.success for o in outcomes)
        assert len({o.session_key for o in outcomes}) == 1


class TestNetworkHandshake:
    def test_same_group_succeeds(self, scheme1_world):
        outcomes = run_handshake_over_network(
            scheme1_world.lineup("alice", "bob", "carol"),
            scheme1_policy(), scheme1_world.rng,
        )
        assert all(o.success for o in outcomes)
        assert len({o.session_key for o in outcomes}) == 1

    def test_matches_local_engine_semantics(self, scheme1_world,
                                            other_scheme1_world):
        lineup = (scheme1_world.lineup("alice", "bob")
                  + other_scheme1_world.lineup("dan"))
        outcomes = run_handshake_over_network(
            lineup, scheme1_policy(partial_success=True), scheme1_world.rng,
        )
        assert outcomes[0].confirmed_peers == {1}
        assert outcomes[2].confirmed_peers == set()
        assert not any(o.success for o in outcomes)

    def test_transcript_traceable(self, scheme1_world):
        outcomes = run_handshake_over_network(
            scheme1_world.lineup("alice", "bob"),
            scheme1_policy(), scheme1_world.rng,
        )
        result = scheme1_world.framework.trace(outcomes[0].transcript)
        assert sorted(result.identified) == ["alice", "bob"]

    def test_scheme2_self_distinction_over_network(self, scheme2_world):
        lineup = scheme2_world.lineup("xavier", "yvonne", "xavier")
        outcomes = run_handshake_over_network(
            lineup, scheme2_policy(), scheme2_world.rng, session_id="rogue",
        )
        assert outcomes[1].distinct is False
        assert not outcomes[1].success

    def test_untraceable_policy(self, scheme1_world):
        outcomes = run_handshake_over_network(
            scheme1_world.lineup("alice", "bob"),
            scheme1_policy(traceable=False), scheme1_world.rng,
        )
        assert all(o.success for o in outcomes)
        assert all(o.transcript is None for o in outcomes)

    def test_eavesdropper_sees_only_noise(self, scheme1_world):
        net = Network()
        eve = Eavesdropper(net)
        outcomes = run_handshake_over_network(
            scheme1_world.lineup("alice", "bob"),
            scheme1_policy(), scheme1_world.rng, network=net,
        )
        assert all(o.success for o in outcomes)
        # 2 parties x (2 DGKA rounds + tag + phase3) broadcasts.
        assert len(eve.log) == 8
        # No member identities or group names appear on the wire.
        wire_text = str([m.payload for m in eve.log])
        assert "alice" not in wire_text and "fbi" not in wire_text
        features = TranscriptDistinguisher().features(outcomes[0].transcript)
        assert len(features) == 2 * len(outcomes[0].transcript.entries)


class TestNetworkMitm:
    def test_split_attack_detected(self, scheme1_world):
        net = Network()
        splitter = NetworkBdSplitter(net, m=4, cut=2, session_id="mitm",
                                     rng=scheme1_world.rng)
        outcomes = run_handshake_over_network(
            scheme1_world.lineup("alice", "bob", "carol", "dave"),
            scheme1_policy(), scheme1_world.rng, network=net,
            session_id="mitm",
        )
        assert splitter.intercepted == 8  # 4 parties x 2 rounds
        assert not any(o.success for o in outcomes)

    def test_split_attack_partial_never_crosses(self, scheme1_world):
        net = Network()
        NetworkBdSplitter(net, m=4, cut=2, session_id="mitm2",
                          rng=scheme1_world.rng)
        outcomes = run_handshake_over_network(
            scheme1_world.lineup("alice", "bob", "carol", "dave"),
            scheme1_policy(partial_success=True), scheme1_world.rng,
            network=net, session_id="mitm2",
        )
        crossings = [
            (o.index, peer) for o in outcomes
            for peer in o.confirmed_peers if (o.index < 2) != (peer < 2)
        ]
        assert crossings == []
        # Within each half the handshake degrades gracefully.
        assert outcomes[0].confirmed_peers == {1}
        assert outcomes[2].confirmed_peers == {3}

    def test_message_dropper_stalls_not_crashes(self, scheme1_world):
        """A MITM that blackholes one party's DGKA traffic leaves everyone
        without an outcome — the handshake just never completes (the
        paper's model guarantees delivery; this probes our failure mode)."""
        net = Network()
        mitm = ManInTheMiddle(net)
        mitm.add_rule(
            lambda msg: None
            if isinstance(msg.payload, tuple) and msg.payload[0] == "dgka"
            and msg.payload[3] == 0 else msg
        )
        outcomes = run_handshake_over_network(
            scheme1_world.lineup("alice", "bob"),
            scheme1_policy(), scheme1_world.rng, network=net,
            session_id="drop",
        )
        assert not any(o.success for o in outcomes)
