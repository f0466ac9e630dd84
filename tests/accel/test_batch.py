"""Room-scale scan verification: acceptance-set and counter parity.

The engine's Phase III verify scan (:func:`repro.core.handshake.phase3_scan`)
runs with a room-wide :class:`~repro.accel.batch.ScanCache` whenever
acceleration is enabled.  The contract is exact: the cached scan confirms
precisely the peers the uncached scan confirms — for valid rooms, forged
signature fields, stale accumulator epochs, tampered messages and
duplicated publications — and the guarded counter books are identical,
with cache reuse visible only through the ``accel:batch-*`` extras.
"""

import random
from dataclasses import dataclass, replace
from typing import List, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import accel, metrics
from repro.accel import batch, fixed_base, state
from repro.core import wire
from repro.core.handshake import ScanJob, phase3_scan, run_handshake
from repro.core.scheme1 import create_scheme1, scheme1_policy
from repro.core.transcript import HandshakeEntry, signed_message
from repro.crypto import symmetric

ACJT_ACTIONS = ("valid", "forge-t1", "forge-challenge", "forge-s1",
                "wrong-epoch", "tamper-message")
KTY_ACTIONS = ("valid", "forge-t1", "forge-challenge", "forge-se",
               "tamper-message")


@pytest.fixture(autouse=True)
def _clean_accel_state():
    state.configure(enabled=False, window=5, cache_size=64)
    fixed_base.clear()
    fixed_base.configure_cache(64)
    yield
    state.configure(enabled=False, window=5, cache_size=64)
    fixed_base.clear()
    fixed_base.configure_cache(64)


@dataclass
class SignedRoom:
    """Every member but the last signed its Phase III message; all of
    them hold the same k' (one group)."""

    members: list
    k_prime: bytes
    sid: bytes
    publications: List[Tuple[tuple, object]]     # (delta, signature)


def _signed_room(members, seed) -> SignedRoom:
    """Signing dominates runtime, so rooms are signed once per module and
    tampered per example."""
    rng = random.Random(seed)
    k_prime = rng.getrandbits(256).to_bytes(32, "big")
    sid = rng.getrandbits(256).to_bytes(32, "big")
    publications = []
    for member in members[:-1]:
        delta = tuple(rng.getrandbits(64) for _ in range(4))
        signature = member.credential.sign(signed_message(sid, delta), rng)
        publications.append((delta, signature))
    return SignedRoom(members, k_prime, sid, publications)


@pytest.fixture(scope="module")
def acjt_room(scheme1_world):
    return _signed_room(
        scheme1_world.lineup("alice", "bob", "carol", "dave"), 7321)


@pytest.fixture(scope="module")
def kty_room(scheme2_world):
    return _signed_room(
        scheme2_world.lineup("xavier", "yvonne", "zelda"), 7322)


def _tamper(room, delta, signature, action):
    n = room.members[0].info.gsig_public_key.n
    if action == "forge-t1":
        return delta, replace(signature, t1=(signature.t1 * 2) % n)
    if action == "forge-challenge":
        return delta, replace(signature, challenge=signature.challenge ^ 1)
    if action == "forge-s1":
        return delta, replace(signature, s1=signature.s1 + 1)
    if action == "forge-se":
        return delta, replace(signature, s_e=signature.s_e + 1)
    if action == "wrong-epoch":
        return delta, replace(signature, acc_epoch=signature.acc_epoch + 1)
    if action == "tamper-message":
        return (delta[0] + 1,) + delta[1:], signature
    return delta, signature


def _entries(room, actions, duplicate=False):
    """The room's published entries after ``actions``; with ``duplicate``
    an extra entry re-publishes entry 0 under a fresh index."""
    rng = random.Random(99)
    entries = []
    for index, ((delta, signature), action) in enumerate(
            zip(room.publications, actions)):
        delta, signature = _tamper(room, delta, signature, action)
        blob = wire.signature_to_bytes(signature)
        entries.append(HandshakeEntry(
            index=index, theta=symmetric.encrypt(room.k_prime, blob, rng),
            delta=delta))
    if duplicate:
        entries.append(replace(entries[0], index=len(room.members)))
    return tuple(entries)


def _job(room, scanner, entries):
    member = room.members[scanner]
    valid_tags = frozenset(e.index for e in entries) | {scanner}
    return ScanJob(member, room.k_prime, room.sid, valid_tags, scanner,
                   shield=None, self_distinction=False)


def _scan_both_ways(room, entries, scanners):
    """Each scanner's verdict and books, uncached with accel off and with
    one shared ScanCache with accel on (the engine's two modes)."""
    verdicts, books = [], []
    for cached in (False, True):
        state.configure(enabled=cached)
        cache = batch.ScanCache() if cached else None
        rec = metrics.Recorder()
        row = []
        try:
            with metrics.using(rec):
                for scanner in scanners:
                    with metrics.scope(f"hs:{scanner}"):
                        confirmed, _ = phase3_scan(
                            _job(room, scanner, entries), entries, cache)
                    row.append(confirmed)
        finally:
            state.configure(enabled=False)
        verdicts.append(row)
        books.append(rec)
    return verdicts, books


def _books(recorder):
    """Guarded books per scope: everything except wall time and the
    accel:* extras."""
    return {scope: {k: v for k, v in counters.as_dict().items()
                    if k != "wall_time" and not k.startswith("accel:")}
            for scope, counters in recorder.snapshot().items()}


def _expected(room, actions, duplicate):
    valid = {i for i, action in enumerate(actions) if action == "valid"}
    if duplicate and actions[0] == "valid":
        valid.add(len(room.members))
    return valid


class TestAcceptanceSetParity:
    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_acjt_batch_accepts_exactly_the_sequential_set(
            self, acjt_room, data):
        actions = [data.draw(st.sampled_from(ACJT_ACTIONS), label=f"a{i}")
                   for i in range(len(acjt_room.publications))]
        duplicate = data.draw(st.booleans(), label="duplicate")
        entries = _entries(acjt_room, actions, duplicate)
        scanner = len(acjt_room.members) - 1
        (sequential, cached), (rec_seq, rec_cached) = _scan_both_ways(
            acjt_room, entries, [scanner])
        assert cached == sequential
        assert sequential == [_expected(acjt_room, actions, duplicate)]
        assert _books(rec_cached) == _books(rec_seq)

    @given(data=st.data())
    @settings(max_examples=15, deadline=None)
    def test_kty_batch_accepts_exactly_the_sequential_set(
            self, kty_room, data):
        actions = [data.draw(st.sampled_from(KTY_ACTIONS), label=f"a{i}")
                   for i in range(len(kty_room.publications))]
        duplicate = data.draw(st.booleans(), label="duplicate")
        entries = _entries(kty_room, actions, duplicate)
        scanner = len(kty_room.members) - 1
        (sequential, cached), (rec_seq, rec_cached) = _scan_both_ways(
            kty_room, entries, [scanner])
        assert cached == sequential
        assert sequential == [_expected(kty_room, actions, duplicate)]
        assert _books(rec_cached) == _books(rec_seq)

    def test_acjt_shield_rejected(self, acjt_room):
        """ACJT has no self-distinction shield: a scan that imposes one
        confirms nobody, cached or not."""
        entries = _entries(acjt_room, ["valid"] * len(acjt_room.publications))
        scanner = len(acjt_room.members) - 1
        job = replace(_job(acjt_room, scanner, entries), shield=1)
        assert phase3_scan(job, entries) == (set(), {})
        state.configure(enabled=True)
        assert phase3_scan(job, entries, batch.ScanCache()) == (set(), {})


class TestCounterParity:
    def test_batched_books_equal_sequential_books(self, acjt_room):
        """Every member scans the room (one duplicate included) through
        one shared cache: per-party books equal the uncached scan's, and
        each distinct decrypt and verify ran once."""
        actions = ["valid"] * len(acjt_room.publications)
        entries = _entries(acjt_room, actions, duplicate=True)
        scanners = list(range(len(acjt_room.members)))
        (sequential, cached), (rec_seq, rec_cached) = _scan_both_ways(
            acjt_room, entries, scanners)
        assert cached == sequential
        assert _books(rec_cached) == _books(rec_seq)
        lookups = 2 * sum(1 for s in scanners for e in entries
                          if e.index != s)
        distinct = 2 * len(acjt_room.publications)   # one decrypt + verify
        extras = rec_cached.total().extra
        assert extras.get("accel:batch-scan-miss") == distinct
        assert extras.get("accel:batch-scan-hit") == lookups - distinct

    def test_batch_false_is_rejected(self):
        """The batch switch is gone: ``batch=True`` is still accepted,
        ``batch=False`` raises and changes nothing."""
        before = accel.configure(enabled=True, batch=True)
        assert "batch" not in before and "batch" not in accel.stats()
        with pytest.raises(ValueError):
            accel.configure(enabled=False, batch=False)
        assert state.is_enabled()


class TestHandshakeIntegration:
    @pytest.fixture(scope="class")
    def eight_members(self):
        rng = random.Random(61008)
        framework = create_scheme1("accel-8", rng=rng)
        return [framework.admit_member(f"user-{i}", rng) for i in range(8)]

    def _run(self, members):
        rngs = [random.Random(61000 + i) for i in range(len(members))]
        rec = metrics.Recorder()
        with metrics.using(rec):
            outcomes = run_handshake(members, scheme1_policy(), rngs=rngs)
        return outcomes, rec

    @pytest.mark.parametrize("m", [2, 4, 8])
    def test_inline_batched_handshake_is_byte_identical(self, eight_members,
                                                        m):
        members = eight_members[:m]
        state.configure(enabled=False)
        plain_outcomes, plain_rec = self._run(members)
        assert all(o.success for o in plain_outcomes)
        state.configure(enabled=True)
        try:
            batched_outcomes, batched_rec = self._run(members)
        finally:
            state.configure(enabled=False)
        assert [o.session_key for o in plain_outcomes] == \
               [o.session_key for o in batched_outcomes]
        assert [o.transcript.entries for o in plain_outcomes] == \
               [o.transcript.entries for o in batched_outcomes]
        assert [o.confirmed_peers for o in plain_outcomes] == \
               [o.confirmed_peers for o in batched_outcomes]
        assert _books(plain_rec) == _books(batched_rec)
        # Every party decrypts and verifies each of its m-1 peers'
        # publications: 2m(m-1) lookups of which 2m are distinct, so the
        # other 2m(m-2) reuse the room's ScanCache.
        extras = batched_rec.total().extra
        assert extras.get("accel:batch-scan-miss") == 2 * m
        assert extras.get("accel:batch-scan-hit", 0) == 2 * m * (m - 2)
