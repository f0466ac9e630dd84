"""Run every Appendix-A experiment against both instantiations and assert
the paper's verdicts: adversary advantage ~0 everywhere Theorems 1-3 claim
a property, and adversary success exactly where the paper concedes one
(scheme 1 has no self-distinction)."""

import random

import pytest

from repro.core.scheme1 import scheme1_policy
from repro.core.scheme2 import scheme2_policy
from repro.security import games
from repro.security.adversaries import TranscriptDistinguisher
from repro.core.handshake import run_handshake

TRIALS = 3


class TestImpersonation:
    def test_single_impostor_never_wins(self, scheme1_world):
        result = games.impersonation_game(
            scheme1_world.lineup("alice", "bob"), TRIALS, scheme1_world.rng
        )
        assert result.wins == 0

    def test_multi_role_impostor_never_wins(self, scheme1_world):
        """Appendix A: "even if A plays the roles of multiple participants"."""
        result = games.impersonation_game(
            scheme1_world.lineup("alice", "bob"), 2, scheme1_world.rng, roles=2
        )
        assert result.wins == 0

    def test_scheme2_impostor_never_wins(self, scheme2_world):
        result = games.impersonation_game(
            scheme2_world.lineup("xavier", "yvonne"), 2, scheme2_world.rng,
            policy=scheme2_policy(),
        )
        assert result.wins == 0

    def test_stolen_cgkd_key_insufficient(self, scheme1_world):
        leaked = scheme1_world.framework.authority.group_key()
        result = games.stolen_key_game(
            scheme1_world.lineup("alice", "bob"), leaked, 2, scheme1_world.rng
        )
        assert result.wins == 0


class TestRevokedInsider:
    def test_dual_revocation_blocks_leaked_key_attack(self, rng):
        """Section 3: with only CGKD revocation, an unrevoked accomplice
        leaking the group key would re-enable a revoked member; GSIG
        revocation must independently stop the handshake."""
        from repro.core.scheme1 import create_scheme1
        framework = create_scheme1("dual-rev", rng=rng)
        a = framework.admit_member("a", rng)
        b = framework.admit_member("b", rng)
        mallory = framework.admit_member("mallory", rng)
        framework.remove_user("mallory")
        result = games.revoked_insider_game(framework, [a, b], mallory, 2, rng)
        assert result.wins == 0

    def test_scheme2_dual_revocation(self, rng):
        from repro.core.scheme2 import create_scheme2
        framework = create_scheme2("dual-rev-2", rng=rng)
        a = framework.admit_member("a", rng)
        b = framework.admit_member("b", rng)
        mallory = framework.admit_member("mallory", rng)
        framework.remove_user("mallory")
        result = games.revoked_insider_game(framework, [a, b], mallory, 2, rng,
                                            policy=scheme2_policy())
        assert result.wins == 0


class TestDistinguishingGames:
    def test_eavesdropper_gains_nothing(self, scheme1_world):
        result = games.eavesdropper_game(
            scheme1_world.framework, scheme1_world.lineup("alice", "bob"),
            8, scheme1_world.rng,
        )
        # With 8 trials, anything <= 7 wins is consistent with guessing;
        # the sharp check is the feature-level one below.
        assert result.wins < result.trials

    def test_transcripts_feature_free(self, scheme1_world):
        """Sharper than the guessing game: an outside distinguisher finds
        no repeated identifying feature in any real transcript."""
        outcomes = run_handshake(scheme1_world.lineup("alice", "bob"),
                                 scheme1_policy(), scheme1_world.rng)
        transcript = outcomes[0].transcript
        features = TranscriptDistinguisher().features(transcript)
        # Without keys: exactly one theta + one delta feature per entry.
        assert len(features) == 2 * len(transcript.entries)

    def test_detection_game_runs(self, scheme1_world):
        result = games.detection_game(
            scheme1_world.framework, scheme1_world.lineup("alice", "bob"),
            4, scheme1_world.rng,
        )
        assert 0 <= result.wins <= result.trials


class TestUnlinkability:
    def test_insider_cannot_link_sessions(self, scheme1_world):
        result = games.credential_reuse_unlinkability(
            scheme1_world.framework,
            scheme1_world.members["alice"], scheme1_world.members["bob"],
            4, scheme1_world.rng,
        )
        assert result.wins == 0

    def test_scheme2_shielded_sessions_unlinkable(self, scheme2_world):
        """Self-distinction trades full-anonymity for anonymity, but
        cross-session unlinkability must survive (fresh T7 per session)."""
        result = games.credential_reuse_unlinkability(
            scheme2_world.framework,
            scheme2_world.members["xavier"], scheme2_world.members["yvonne"],
            4, scheme2_world.rng, policy=scheme2_policy(),
        )
        assert result.wins == 0

    def test_full_unlinkability_scheme1(self, scheme1_world):
        """Theorem 1's stronger property: even with the target's full
        credential, an ACJT transcript offers no linking test — the
        concrete adversary stays at chance (its corruption-powered test
        simply does not exist, so it guesses)."""
        trials = 24
        result = games.full_unlinkability_game(
            scheme1_world.framework,
            scheme1_world.members["alice"], scheme1_world.members["carol"],
            scheme1_world.members["bob"], trials, random.Random(12),
        )
        # A fair coin lands outside 12 ± 8 heads in 24 flips with
        # probability below 3e-4; a working test would read 24/24.
        assert abs(result.wins - trials / 2) <= 8

    def test_full_unlinkability_breaks_for_scheme2(self, scheme2_world):
        """The flip side of self-distinction: the KTY tracing trapdoor x,
        once corrupted, links the member's sessions via T4 == T5^x.  That
        is why Theorems 2/3 claim only plain unlinkability — and the game
        realizes the attack: the exact test finds every target session
        and rejects every other one, so the adversary wins every trial."""
        world = scheme2_world
        result = games.full_unlinkability_game(
            world.framework, world.members["xavier"], world.members["zelda"],
            world.members["yvonne"], 6, world.rng, policy=scheme2_policy(),
        )
        assert result.wins == result.trials == 6

    def test_unlinkability_game_runs(self, scheme1_world):
        result = games.unlinkability_game(
            scheme1_world.framework,
            scheme1_world.members["alice"], scheme1_world.members["carol"],
            [scheme1_world.members["bob"]], 4, scheme1_world.rng,
        )
        assert 0 <= result.wins <= result.trials


class TestTraceabilityAndMisattribution:
    def test_traceability_never_fails(self, scheme1_world):
        result = games.traceability_game(
            scheme1_world.framework,
            scheme1_world.lineup("alice", "bob", "carol"),
            TRIALS, scheme1_world.rng,
        )
        assert result.wins == 0

    def test_no_misattribution(self, scheme1_world):
        result = games.misattribution_game(
            scheme1_world.framework, scheme1_world.lineup("alice", "bob"),
            scheme1_world.members["carol"], TRIALS, scheme1_world.rng,
        )
        assert result.wins == 0

    def test_no_misattribution_scheme2(self, scheme2_world):
        result = games.misattribution_game(
            scheme2_world.framework, scheme2_world.lineup("xavier", "yvonne"),
            scheme2_world.members["zelda"], 2, scheme2_world.rng,
            policy=scheme2_policy(),
        )
        assert result.wins == 0


class TestSelfDistinction:
    def test_scheme2_rogue_never_wins(self, scheme2_world):
        result = games.self_distinction_game(
            scheme2_world.lineup("xavier", "yvonne"),
            scheme2_world.members["zelda"], 2, 2, scheme2_world.rng,
            scheme2_policy(),
        )
        assert result.wins == 0

    def test_scheme1_rogue_always_wins(self, scheme1_world):
        """The paper's stated gap: instantiation 1 satisfies everything
        *except* self-distinction."""
        result = games.self_distinction_game(
            scheme1_world.lineup("alice", "bob"),
            scheme1_world.members["carol"], 2, 2, scheme1_world.rng,
            scheme1_policy(),
        )
        assert result.wins == result.trials
