"""Handshake-engine tests for both instantiations: correctness matrix,
outcome structure, policies, MITM, self-distinction, decoys."""

import random

import pytest

from repro.core.handshake import HandshakePolicy, run_handshake, xor_keys
from repro.core.scheme1 import scheme1_policy
from repro.core.scheme2 import scheme2_policy
from repro.dgka.gdh import GdhParty
from repro.errors import ParameterError, ProtocolError


class TestXorKeys:
    def test_involution(self):
        a, b = b"\x01" * 32, b"\xf0" * 32
        assert xor_keys(xor_keys(a, b), b) == a

    def test_length_mismatch(self):
        with pytest.raises(ParameterError):
            xor_keys(b"ab", b"abc")


class TestEngineValidation:
    M = 5

    def _lineup(self, world):
        return world.lineup(*sorted(world.members)[:self.M])

    def test_rngs_must_match_party_count(self, service_world):
        with pytest.raises(ParameterError):
            run_handshake(self._lineup(service_world), scheme1_policy(),
                          rngs=[random.Random(1)] * (self.M - 1))

    def test_per_party_rngs_run_inline(self, service_world):
        outcomes = run_handshake(
            self._lineup(service_world), scheme1_policy(),
            rngs=[random.Random(42 + i) for i in range(self.M)])
        assert all(o.success for o in outcomes)


class TestScheme1Correctness:
    def test_same_group_succeeds(self, scheme1_world):
        outcomes = run_handshake(
            scheme1_world.lineup("alice", "bob", "carol"),
            scheme1_policy(), scheme1_world.rng,
        )
        assert all(o.success for o in outcomes)

    def test_two_party(self, scheme1_world):
        outcomes = run_handshake(
            scheme1_world.lineup("alice", "bob"),
            scheme1_policy(), scheme1_world.rng,
        )
        assert all(o.success for o in outcomes)

    def test_session_keys_agree(self, scheme1_world):
        outcomes = run_handshake(
            scheme1_world.lineup("alice", "bob", "carol"),
            scheme1_policy(), scheme1_world.rng,
        )
        assert len({o.session_key for o in outcomes}) == 1
        assert outcomes[0].session_key is not None

    def test_session_keys_fresh_per_session(self, scheme1_world):
        first = run_handshake(scheme1_world.lineup("alice", "bob"),
                              scheme1_policy(), scheme1_world.rng)
        second = run_handshake(scheme1_world.lineup("alice", "bob"),
                               scheme1_policy(), scheme1_world.rng)
        assert first[0].session_key != second[0].session_key

    def test_mixed_groups_fail(self, scheme1_world, other_scheme1_world):
        lineup = scheme1_world.lineup("alice") + other_scheme1_world.lineup("dan")
        outcomes = run_handshake(lineup, scheme1_policy(), scheme1_world.rng)
        assert not any(o.success for o in outcomes)
        assert all(o.session_key is None for o in outcomes)

    def test_mixed_groups_publish_decoys(self, scheme1_world, other_scheme1_world):
        lineup = scheme1_world.lineup("alice", "bob") + other_scheme1_world.lineup("dan")
        outcomes = run_handshake(lineup, scheme1_policy(), scheme1_world.rng)
        # Strict policy: everyone published decoys; outcomes carry no
        # transcript for the honest parties (they went CASE 2).
        assert not any(o.success for o in outcomes)

    def test_single_party_rejected(self, scheme1_world):
        with pytest.raises(ProtocolError):
            run_handshake(scheme1_world.lineup("alice"), scheme1_policy(),
                          scheme1_world.rng)

    def test_transcript_shape(self, scheme1_world):
        outcomes = run_handshake(scheme1_world.lineup("alice", "bob"),
                                 scheme1_policy(), scheme1_world.rng)
        transcript = outcomes[0].transcript
        assert transcript.m == 2
        assert len(transcript.sid) == 32
        for entry in transcript.entries:
            assert len(entry.delta) == 4
            assert isinstance(entry.theta, bytes)


class TestPolicies:
    def test_untraceable_policy_skips_phase3(self, scheme1_world):
        outcomes = run_handshake(
            scheme1_world.lineup("alice", "bob"),
            scheme1_policy(traceable=False), scheme1_world.rng,
        )
        assert all(o.success for o in outcomes)
        assert all(o.transcript is None for o in outcomes)
        assert outcomes[0].session_key is not None

    def test_untraceable_policy_mixed_fails(self, scheme1_world, other_scheme1_world):
        lineup = scheme1_world.lineup("alice") + other_scheme1_world.lineup("dan")
        outcomes = run_handshake(lineup, scheme1_policy(traceable=False),
                                 scheme1_world.rng)
        assert not any(o.success for o in outcomes)

    def test_gdh_dgka_swap(self, scheme1_world):
        policy = HandshakePolicy(
            dgka_factory=lambda i, m, rng: GdhParty(i, m, rng=rng)
        )
        outcomes = run_handshake(scheme1_world.lineup("alice", "bob", "carol"),
                                 policy, scheme1_world.rng)
        assert all(o.success for o in outcomes)


class TestPartialSuccess:
    def test_subsets_discovered(self, scheme1_world, other_scheme1_world):
        lineup = (scheme1_world.lineup("alice", "bob")
                  + other_scheme1_world.lineup("dan", "eve")
                  + scheme1_world.lineup("carol"))
        outcomes = run_handshake(lineup, scheme1_policy(partial_success=True),
                                 scheme1_world.rng)
        assert outcomes[0].confirmed_peers == {1, 4}
        assert outcomes[1].confirmed_peers == {0, 4}
        assert outcomes[2].confirmed_peers == {3}
        assert outcomes[3].confirmed_peers == {2}
        assert outcomes[4].confirmed_peers == {0, 1}
        # Full success still requires everyone in one group.
        assert not any(o.success for o in outcomes)
        # But subset members derived usable (equal) channel keys.
        assert outcomes[0].session_key == outcomes[1].session_key is not None
        assert outcomes[2].session_key == outcomes[3].session_key is not None
        assert outcomes[0].session_key != outcomes[2].session_key

    def test_full_group_partial_policy_succeeds(self, scheme1_world):
        outcomes = run_handshake(scheme1_world.lineup("alice", "bob"),
                                 scheme1_policy(partial_success=True),
                                 scheme1_world.rng)
        assert all(o.success for o in outcomes)


class TestScheme2:
    def test_same_group_succeeds(self, scheme2_world):
        outcomes = run_handshake(scheme2_world.lineup("xavier", "yvonne", "zelda"),
                                 scheme2_policy(), scheme2_world.rng)
        assert all(o.success and o.distinct for o in outcomes)

    def test_rogue_two_roles_detected(self, scheme2_world):
        lineup = scheme2_world.lineup("xavier", "yvonne", "xavier")
        outcomes = run_handshake(lineup, scheme2_policy(), scheme2_world.rng)
        honest = outcomes[1]
        assert honest.distinct is False
        assert not honest.success
        assert honest.duplicate_indices == {0, 2}

    def test_rogue_three_roles_detected(self, scheme2_world):
        lineup = scheme2_world.lineup("xavier", "xavier", "yvonne", "xavier")
        outcomes = run_handshake(lineup, scheme2_policy(), scheme2_world.rng)
        honest = outcomes[2]
        assert honest.distinct is False
        assert honest.duplicate_indices == {0, 1, 3}

    def test_scheme1_rogue_undetected(self, scheme1_world):
        """The contrast the paper draws: without self-distinction the same
        attack sails through."""
        lineup = scheme1_world.lineup("alice", "bob", "alice")
        outcomes = run_handshake(lineup, scheme1_policy(), scheme1_world.rng)
        assert all(o.success for o in outcomes)

    def test_scheme2_without_distinction_policy(self, scheme2_world):
        """Self-distinction is selectable: switching it off reverts to
        plain (unshielded) KTY signing and the rogue goes unnoticed."""
        lineup = scheme2_world.lineup("xavier", "yvonne", "xavier")
        outcomes = run_handshake(lineup, scheme2_policy(), scheme2_world.rng)
        assert not outcomes[1].success
        relaxed = HandshakePolicy(self_distinction=False)
        outcomes = run_handshake(lineup, relaxed, scheme2_world.rng)
        assert outcomes[1].success


class TestMitm:
    def test_mitm_on_dgka_downgrades_to_failure(self, scheme1_world):
        """The Fig. 5 remark: raw DGKA is MITM-vulnerable, but Phase II
        MACs keyed with k' = k* XOR k expose the split."""
        from repro.crypto.params import dh_group
        rng = scheme1_world.rng
        bd_group = dh_group(256)  # the default DGKA group
        adv = bd_group.power_of_g(rng.randrange(1, bd_group.q))

        def mitm(round_no, sender, receiver, payload):
            if round_no == 0 and (sender < 2) != (receiver < 2):
                return adv
            return payload

        lineup = scheme1_world.lineup("alice", "bob", "carol", "dave")
        outcomes = run_handshake(lineup, scheme1_policy(), rng, tamper=mitm)
        assert not any(o.success for o in outcomes)

    def test_partial_policy_mitm_still_links_within_halves(self, scheme1_world):
        from repro.crypto.params import dh_group
        rng = scheme1_world.rng
        bd_group = dh_group(256)
        adv = bd_group.power_of_g(987654321 % bd_group.q)

        def mitm(round_no, sender, receiver, payload):
            if round_no == 0 and (sender < 2) != (receiver < 2):
                return adv
            return payload

        lineup = scheme1_world.lineup("alice", "bob", "carol", "dave")
        outcomes = run_handshake(lineup, scheme1_policy(partial_success=True),
                                 rng, tamper=mitm)
        # The MITM split means each half only confirms its own side.
        assert outcomes[0].confirmed_peers <= {1}
        assert outcomes[2].confirmed_peers <= {3}
