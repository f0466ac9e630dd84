"""The Appendix-A experiments, run empirically.

Every game returns a :class:`GameResult` with the adversary's measured win
rate; for the guessing games the relevant quantity is the *advantage*
(|rate - 1/2|).  A correct implementation drives every adversary advantage
to ~0 — except where the paper says otherwise (scheme 1 has no
self-distinction; the strawman baselines fail their respective games),
and those expected failures are part of benchmark E5/E12's output.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.core.framework import GcdFramework
from repro.core.handshake import HandshakePolicy, run_handshake
from repro.core.member import GcdMember
from repro.core.transcript import HandshakeEntry, HandshakeTranscript
from repro.crypto import symmetric
from repro.crypto.cramer_shoup import CramerShoup
from repro.security.adversaries import (
    Impostor,
    RevokedInsider,
    StolenKeyImpostor,
    TranscriptDistinguisher,
)


@dataclass
class GameResult:
    """Outcome of one empirical experiment."""

    name: str
    trials: int
    wins: int

    @property
    def rate(self) -> float:
        return self.wins / self.trials if self.trials else 0.0

    @property
    def advantage(self) -> float:
        """Distance from blind guessing (for distinguishing games)."""
        return abs(self.rate - 0.5)

    def __str__(self) -> str:
        return (f"{self.name}: {self.wins}/{self.trials} "
                f"(rate {self.rate:.2f}, adv {self.advantage:.2f})")


# ---------------------------------------------------------------------------
# Resistance to impersonation (Experiment RIA).
# ---------------------------------------------------------------------------


def impersonation_game(honest: Sequence[GcdMember], trials: int,
                       rng: random.Random,
                       policy: Optional[HandshakePolicy] = None,
                       roles: int = 1) -> GameResult:
    """A credential-less adversary (possibly playing several roles) tries
    to convince honest members it belongs.  Win: any honest participant
    accepts the full handshake."""
    wins = 0
    for _ in range(trials):
        adversaries = [Impostor(rng=rng) for _ in range(roles)]
        outcomes = run_handshake(list(honest) + adversaries, policy, rng)
        if any(o.success for o in outcomes[:len(honest)]):
            wins += 1
    return GameResult("impersonation", trials, wins)


def stolen_key_game(honest: Sequence[GcdMember], leaked_key: bytes,
                    trials: int, rng: random.Random,
                    policy: Optional[HandshakePolicy] = None) -> GameResult:
    """Variant: the outsider knows the CGKD key but has no credential —
    it survives Phase II yet must still fail Phase III."""
    wins = 0
    for _ in range(trials):
        adversary = StolenKeyImpostor(leaked_key, rng=rng)
        outcomes = run_handshake(list(honest) + [adversary], policy, rng)
        if any(o.success for o in outcomes[:len(honest)]):
            wins += 1
    return GameResult("impersonation/stolen-cgkd-key", trials, wins)


def revoked_insider_game(framework: GcdFramework,
                         honest: Sequence[GcdMember],
                         revoked: GcdMember,
                         trials: int, rng: random.Random,
                         policy: Optional[HandshakePolicy] = None) -> GameResult:
    """The Section 3 dual-revocation attack: a revoked member with a
    leaked current group key replays its stale credential."""
    leaked = framework.authority.group_key()
    wins = 0
    for _ in range(trials):
        adversary = RevokedInsider(revoked, leaked)
        outcomes = run_handshake(list(honest) + [adversary], policy, rng)
        if any(o.success for o in outcomes[:len(honest)]):
            wins += 1
    return GameResult("impersonation/revoked-insider", trials, wins)


# ---------------------------------------------------------------------------
# Resistance to detection / indistinguishability to eavesdroppers.
# ---------------------------------------------------------------------------


def _simulated_transcript(reference: HandshakeTranscript,
                          tracing_pk, rng: random.Random) -> HandshakeTranscript:
    """The simulator of the RDA/INDeav experiments: decoys drawn from the
    ciphertext spaces, with shapes matching the reference session."""
    entries = []
    for entry in reference.entries:
        theta = symmetric.random_ciphertext(
            len(entry.theta) - symmetric.ciphertext_overhead(), rng
        )
        delta = CramerShoup.random_ciphertext(tracing_pk, rng).as_tuple()
        entries.append(HandshakeEntry(entry.index, theta, delta))
    sid = rng.getrandbits(256).to_bytes(32, "big")
    return HandshakeTranscript(sid=sid, entries=tuple(entries))


def eavesdropper_game(framework: GcdFramework, members: Sequence[GcdMember],
                      trials: int, rng: random.Random,
                      policy: Optional[HandshakePolicy] = None) -> GameResult:
    """INDeav: an outside observer (no session keys) gets either a real
    successful handshake transcript or a simulated one, and guesses."""
    distinguisher = TranscriptDistinguisher()  # no keys
    tracing_pk = framework.authority.public_info().tracing_public_key
    wins = 0
    for _ in range(trials):
        outcomes = run_handshake(list(members), policy, rng)
        real = outcomes[0].transcript
        fake = _simulated_transcript(real, tracing_pk, rng)
        bit = rng.randrange(2)
        challenge = real if bit == 0 else fake
        other = fake if bit == 0 else real
        # Concrete guess rule: call "real" whichever transcript shares more
        # structure with itself across entries (any repeated feature).
        score_c = len(distinguisher.features(challenge))
        score_o = len(distinguisher.features(other))
        guess = 0 if score_c >= score_o else 1
        if guess == bit:
            wins += 1
    return GameResult("indistinguishability-to-eavesdroppers", trials, wins)


def detection_game(framework: GcdFramework, members: Sequence[GcdMember],
                   trials: int, rng: random.Random,
                   policy: Optional[HandshakePolicy] = None) -> GameResult:
    """RDA: the adversary *participates* (so it sees Phase II/III up close)
    against either real members or simulators, then guesses which."""
    tracing_pk = framework.authority.public_info().tracing_public_key
    wins = 0
    for _ in range(trials):
        bit = rng.randrange(2)
        adversary = Impostor(rng=rng)
        if bit == 0:
            outcomes = run_handshake(list(members) + [adversary], policy, rng)
            transcript = outcomes[0].transcript
        else:
            outcomes = run_handshake(
                [Impostor(f"sim{i}", rng=rng) for i in range(len(members))]
                + [adversary],
                policy, rng,
            )
            transcript = outcomes[0].transcript
        if transcript is None:
            guess = rng.randrange(2)
        else:
            features = TranscriptDistinguisher().features(transcript)
            # Adversary's rule: anything that looks non-random says "real".
            guess = 0 if len(features) != 2 * len(transcript.entries) else rng.randrange(2)
        if guess == bit:
            wins += 1
    return GameResult("resistance-to-detection", trials, wins)


# ---------------------------------------------------------------------------
# Unlinkability.
# ---------------------------------------------------------------------------


def unlinkability_game(framework: GcdFramework, target: GcdMember,
                       decoy: GcdMember, fillers: Sequence[GcdMember],
                       trials: int, rng: random.Random,
                       policy: Optional[HandshakePolicy] = None) -> GameResult:
    """The adversary is itself a group member participating in both
    sessions (it knows k' and can decrypt every theta); it must decide
    whether the unknown slot held the same member twice."""
    adversary = fillers[0]
    wins = 0
    for _ in range(trials):
        bit = rng.randrange(2)
        second = target if bit == 0 else decoy
        o1 = run_handshake([target, adversary] + list(fillers[1:]), policy, rng)
        o2 = run_handshake([second, adversary] + list(fillers[1:]), policy, rng)
        t1, t2 = o1[1].transcript, o2[1].transcript
        # The inside adversary participated in both sessions, so it holds
        # both raw k' values and can decrypt every theta.
        keys = [k for k in (o1[1].k_prime, o2[1].k_prime) if k]
        distinguisher = TranscriptDistinguisher(keys)
        guess = 0 if distinguisher.linked(t1, t2) else rng.randrange(2)
        if guess == bit:
            wins += 1
    return GameResult("unlinkability", trials, wins)


def credential_reuse_unlinkability(framework: GcdFramework,
                                   target: GcdMember, peer: GcdMember,
                                   sessions: int, rng: random.Random,
                                   policy: Optional[HandshakePolicy] = None) -> GameResult:
    """Reusable-credential check: run the *same* member through many
    sessions and test that an insider distinguisher links none of them
    (contrast: Balfanz/CJT pseudonym reuse links instantly; see E7)."""
    transcripts: List[HandshakeTranscript] = []
    keys: List[bytes] = []
    for _ in range(sessions):
        outcomes = run_handshake([target, peer], policy, rng)
        transcripts.append(outcomes[1].transcript)
        keys.append(outcomes[1].k_prime or b"")
    wins = 0
    trials = 0
    for i in range(sessions):
        for j in range(i + 1, sessions):
            trials += 1
            distinguisher = TranscriptDistinguisher(keys)
            if distinguisher.linked(transcripts[i], transcripts[j]):
                wins += 1
    return GameResult("credential-reuse-linkability", trials, wins)


def full_unlinkability_game(framework: GcdFramework, target: GcdMember,
                            decoy: GcdMember, adversary_peer: GcdMember,
                            trials: int, rng: random.Random,
                            policy: Optional[HandshakePolicy] = None) -> GameResult:
    """Full-unlinkability (Appendix A): the adversary has *corrupted the
    target* — it holds the member's entire credential — participated in a
    first session with the target, and must decide whether a second
    session also involved the target.

    This is the experiment that separates Theorem 1 from Theorem 3: with
    ACJT (full-anonymity) the corrupted state gives no linking test, so
    the adversary guesses and stays at chance; with the KTY variant the
    corrupted tracing trapdoor ``x`` lets the adversary test
    ``T4 == T5^x`` on every decrypted signature.  The test is exact — a
    match means the target signed, no match means it did not — so the
    KTY adversary wins every trial, which is exactly why Theorems 2/3
    claim only plain unlinkability.
    """
    from repro.core import wire
    from repro.crypto.modmath import mexp
    from repro.gsig.kty import KtyCredential

    credential = target.credential  # O_Corrupt(target)
    n = target.info.gsig_public_key.n
    wins = 0
    for _ in range(trials):
        bit = rng.randrange(2)
        second = target if bit == 0 else decoy
        outcomes = run_handshake([second, adversary_peer], policy, rng)
        transcript = outcomes[1].transcript
        k_prime = outcomes[1].k_prime or b""
        if not (isinstance(credential, KtyCredential) and k_prime):
            guess = rng.randrange(2)        # no linking test: guess
        else:
            # The inside adversary decrypts every theta it can and
            # applies its corruption-powered test.
            guess = 1
            for entry in transcript.entries:
                try:
                    blob = symmetric.decrypt(k_prime, entry.theta)
                    signature = wire.signature_from_bytes(blob)
                except Exception:
                    continue
                if mexp(signature.t5, credential.x, n) == signature.t4:
                    guess = 0
                    break
        if guess == bit:
            wins += 1
    return GameResult("full-unlinkability", trials, wins)


# ---------------------------------------------------------------------------
# Traceability / no-misattribution / self-distinction.
# ---------------------------------------------------------------------------


def traceability_game(framework: GcdFramework, members: Sequence[GcdMember],
                      trials: int, rng: random.Random,
                      policy: Optional[HandshakePolicy] = None) -> GameResult:
    """Adversary wins if a successful honest handshake produces a
    transcript the GA cannot fully trace."""
    wins = 0
    for _ in range(trials):
        outcomes = run_handshake(list(members), policy, rng)
        result = framework.trace(outcomes[0].transcript)
        expected = sorted(m.user_id for m in members)
        if sorted(result.identified) != expected:
            wins += 1
    return GameResult("traceability", trials, wins)


def misattribution_game(framework: GcdFramework, members: Sequence[GcdMember],
                        victim: GcdMember, trials: int, rng: random.Random,
                        policy: Optional[HandshakePolicy] = None) -> GameResult:
    """A coalition holding the GA's tracing internals splices the victim's
    past contributions into fresh transcripts; it wins if TraceUser ever
    attributes the new session to the victim (who did not take part)."""
    # Record a genuine session involving the victim.
    past = run_handshake([victim, members[0]], policy, rng)[0].transcript
    victim_entry = past.entries[0]
    wins = 0
    for _ in range(trials):
        outcomes = run_handshake(list(members), policy, rng)
        real = outcomes[0].transcript
        forged_entries = (victim_entry,) + real.entries[1:]
        forged = HandshakeTranscript(sid=real.sid, entries=forged_entries)
        result = framework.trace(forged, exhaustive=True)
        if victim.user_id in result.identified:
            wins += 1
    return GameResult("no-misattribution", trials, wins)


def self_distinction_game(members: Sequence[GcdMember], rogue: GcdMember,
                          roles: int, trials: int, rng: random.Random,
                          policy: HandshakePolicy) -> GameResult:
    """The rogue plays ``roles`` participants at once.  The adversary wins
    if any honest participant accepts the handshake as m distinct members."""
    wins = 0
    for _ in range(trials):
        lineup = list(members) + [rogue] * roles
        outcomes = run_handshake(lineup, policy, rng)
        if any(o.success for o in outcomes[:len(members)]):
            wins += 1
    return GameResult("self-distinction", trials, wins)
