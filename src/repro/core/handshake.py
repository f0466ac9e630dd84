"""The three-phase GCD handshake protocol (Section 7 / Fig. 6).

Phase I  (Preparation): the m parties run DGKA.GroupKeyAgreement, yielding
  k*_i; each party computes k'_i = k*_i XOR k_i where k_i is its CGKD group
  key.  Parties of the same group end with equal k'; anyone else — and any
  MITM on the raw DGKA — ends with a different k'.

Phase II (Preliminary handshake): party i publishes MAC(k'_i, s_i, i) with
  s_i the digest of its own DGKA messages.  Each party learns exactly which
  peers share its k' (i.e. its group) without revealing anything to the
  others — a wrong-group observer sees MACs under keys it cannot test.

Phase III (Full handshake):
  CASE 1 (all tags valid): party i publishes (theta_i, delta_i) with
    delta_i = ENC(pk_T, k'_i)     (Cramer-Shoup, the tracing hook)
    theta_i = SENC(k'_i, sigma_i) (sigma_i a group signature on the
                                   session-bound message, optionally in
                                   self-distinction mode with common T7)
  CASE 2 (some tag invalid): party i publishes random decoys drawn from
    the ciphertext spaces, so outsiders cannot distinguish failure from
    success (indistinguishability to eavesdroppers).

Phase III is written once, as per-party functions (:func:`phase3_case1`,
:func:`phase3_publish`, :func:`phase3_scan_job`, :func:`phase3_scan`,
:func:`phase3_conclude`, :func:`conclude_without_tracing`); this engine
and the networked :class:`repro.net.runner.HandshakeDevice` both call
them.

The engine is a synchronous local driver: it owns the broadcast rounds,
attributes operation counts to per-party metric scopes, and supports a
``tamper`` hook on the DGKA rounds (the MITM experiments).  The
partially-successful extension (Section 7) is a policy switch: with
``partial_success=True``, parties with at least one same-group peer run
CASE 1 *within their subset* and each outcome reports the confirmed
subset, exactly as the paper's extension describes.
"""

from __future__ import annotations

import itertools
import random
import time
from dataclasses import dataclass, field
from typing import (Callable, Dict, FrozenSet, List, Optional, Sequence, Set,
                    Tuple)

from repro import metrics
from repro.accel import batch as accel_batch
from repro.accel import state as accel_state
from repro.obs import spans as obs
from repro.core import wire
from repro.core.transcript import HandshakeEntry, HandshakeTranscript, signed_message
from repro.crypto import hashing, mac, symmetric
from repro.crypto.cramer_shoup import CramerShoup
from repro.dgka.base import DgkaParty
from repro.dgka.burmester_desmedt import BurmesterDesmedtParty
from repro.errors import DecryptionError, ParameterError, ProtocolError
from repro.gsig import acjt, kty

DgkaFactory = Callable[[int, int, Optional[random.Random]], DgkaParty]


def default_dgka_factory(index: int, m: int,
                         rng: Optional[random.Random]) -> DgkaParty:
    return BurmesterDesmedtParty(index, m, rng=rng)


@dataclass(frozen=True)
class HandshakePolicy:
    """Selectable properties (Section 7 remark: the framework is tailorable
    to application semantics).

    * ``traceable=False`` runs only Phases I-II (no tracing transcript).
    * ``partial_success=True`` enables the partially-successful extension.
    * ``self_distinction=True`` imposes the common T7 (KTY members only).
    """

    traceable: bool = True
    partial_success: bool = False
    self_distinction: bool = False
    dgka_factory: DgkaFactory = default_dgka_factory


@dataclass
class HandshakeOutcome:
    """What one participant concludes from the handshake."""

    index: int
    success: bool
    #: For ``success=False`` outcomes from a networked transport: the
    #: failure was environmental (overload shed, lost transport, expired
    #: deadline) rather than a protocol verdict — a later attempt may
    #: succeed.  Always ``False`` for in-process engine outcomes.
    retryable: bool = False
    confirmed_peers: Set[int] = field(default_factory=set)
    session_key: Optional[bytes] = None
    transcript: Optional[HandshakeTranscript] = None
    distinct: Optional[bool] = None  # self-distinction verdict (scheme 2)
    duplicate_indices: Set[int] = field(default_factory=set)
    #: The participant's own k'_i (k* XOR k).  Part of the participant's
    #: secret session state — what an adversary obtains by corrupting a
    #: session participant (used by the unlinkability games).
    k_prime: Optional[bytes] = field(default=None, repr=False)

    @property
    def subset_size(self) -> int:
        """|Delta| for this participant (itself plus confirmed peers)."""
        return 1 + len(self.confirmed_peers)


def xor_keys(a: bytes, b: bytes) -> bytes:
    if len(a) != len(b):
        raise ParameterError("key length mismatch in XOR")
    return bytes(x ^ y for x, y in zip(a, b))


def _nominal_signature_length(member) -> int:
    """Length of a plausible signature blob for this member's scheme —
    the decoy theta must be drawn from (approximately) the right
    ciphertext space.  Built from a template with representative field
    magnitudes; real lengths vary by a few bytes (a size channel the
    paper's abstraction — and ours — ignores)."""
    cred = member.credential
    pk = member.info.gsig_public_key
    lengths = pk.lengths
    n_max = pk.n - 1
    c_max = (1 << lengths.k) - 1
    if isinstance(cred, acjt.AcjtCredential):
        eps, k, two_lp = lengths.epsilon, lengths.k, 2 * lengths.lp
        ln = pk.n.bit_length()
        template = acjt.AcjtSignature(
            t1=n_max, t2=n_max, t3=n_max, challenge=c_max,
            s1=-(1 << (eps * (lengths.gamma2 + k))),
            s2=-(1 << (eps * (lengths.lambda2 + k))),
            s3=-(1 << (eps * (lengths.gamma1 + two_lp + k + 1))),
            s4=-(1 << (eps * (two_lp + k))),
            c_e=n_max, c_u=n_max, c_r=n_max,
            s_r1=-(1 << (eps * (ln + k))),
            s_r2=-(1 << (eps * (ln + k))),
            s_r3=-(1 << (eps * (ln + k))),
            s_z=-(1 << (eps * (lengths.gamma1 + ln + k + 1))),
            s_w3=-(1 << (eps * (lengths.gamma1 + ln + k + 1))),
            acc_epoch=1,
        )
    else:
        eps, k, two_lp = lengths.epsilon, lengths.k, 2 * lengths.lp
        template = kty.KtySignature(
            t1=n_max, t2=n_max, t3=n_max, t4=n_max, t5=n_max, t6=n_max,
            t7=n_max, challenge=c_max,
            s_e=-(1 << (eps * (lengths.gamma2 + k))),
            s_x=-(1 << (eps * (lengths.lambda2 + k))),
            s_xt=-(1 << (eps * (lengths.lambda2 + k))),
            s_z=-(1 << (eps * (lengths.gamma1 + two_lp + k + 1))),
            s_w=-(1 << (eps * (two_lp + k))),
            s_k=-(1 << (eps * (two_lp + k))),
            shielded=False,
        )
    return len(wire.signature_to_bytes(template))


class _PartyRuntime:
    """Per-participant working state for one handshake session."""

    def __init__(self, index: int, member, dgka: DgkaParty,
                 rng: random.Random) -> None:
        self.index = index
        self.member = member
        self.dgka = dgka
        self.rng = rng
        self.k_prime: Optional[bytes] = None
        self.tag: Optional[bytes] = None
        self.valid_tags: Set[int] = set()
        self.is_decoy = False

    def scope(self) -> str:
        return f"hs:{self.index}"


def run_handshake(
    members: Sequence[object],
    policy: Optional[HandshakePolicy] = None,
    rng: Optional[random.Random] = None,
    tamper=None,
    *,
    rngs: Optional[Sequence[random.Random]] = None,
    pool=None,
) -> List[HandshakeOutcome]:
    """Execute SHS.Handshake among ``members`` (Fig. 1 / Fig. 6).

    ``members`` are :class:`repro.core.member.GcdMember` objects (or
    adversarial stand-ins duck-typing the same surface).  Returns one
    :class:`HandshakeOutcome` per participant, in order.

    ``rngs`` gives every party its own generator (``rngs[i]`` drives party
    ``i``), which decouples the parties' draw sequences; with the single
    shared ``rng`` the interleaved draw order serializes them.  ``pool``
    (a :class:`repro.accel.pool.WorkerPool`) is the executor for the
    Phase III crypto: CASE 1 publications and the verify scans run on its
    workers.  It therefore *requires* ``rngs`` — results, transcripts, and
    the guarded E1/E2 counters are bit-identical to in-process execution
    for the same ``rngs``.
    """
    policy = policy or HandshakePolicy()
    m = len(members)
    if m < 2:
        raise ProtocolError("a handshake needs at least two participants")
    if rngs is not None:
        if len(rngs) != m:
            raise ParameterError("need exactly one rng per participant")
        party_rngs = list(rngs)
    else:
        if pool is not None:
            raise ParameterError(
                "pool execution needs per-party rngs (rngs=...): a shared "
                "rng couples the parties' draw sequences, which only the "
                "serial inline order can reproduce"
            )
        shared = rng if rng is not None else random.Random()
        party_rngs = [shared] * m

    parties = [
        _PartyRuntime(i, member, policy.dgka_factory(i, m, party_rngs[i]),
                      party_rngs[i])
        for i, member in enumerate(members)
    ]

    started = time.perf_counter()
    try:
        with obs.span("handshake", m=m, transport="engine"):
            with metrics.scope("phase:I"), obs.span("phase:I"):
                _phase1_preparation(parties, tamper)
            with metrics.scope("phase:II"), obs.span("phase:II"):
                tags = _phase2_preliminary(parties)
                _phase2_validate(parties, tags)

            if not policy.traceable:
                return [conclude_without_tracing(party.index, party.k_prime,
                                                 party.valid_tags, party.dgka)
                        for party in parties]

            with metrics.scope("phase:III"), obs.span("phase:III"):
                return _phase3_full(parties, policy, pool)
    finally:
        metrics.observe("hs:latency", time.perf_counter() - started)


# ---------------------------------------------------------------------------
# Phase I.
# ---------------------------------------------------------------------------


def _phase1_preparation(parties: List[_PartyRuntime], tamper) -> None:
    """Run the DGKA rounds synchronously, then derive k'_i."""
    rounds = parties[0].dgka.rounds
    m = len(parties)
    for round_no in range(rounds):
        payloads: Dict[int, object] = {}
        for party in parties:
            with metrics.scope(party.scope()), \
                    obs.span("dgka:emit", party=party.index, round=round_no):
                payload = party.dgka.emit(round_no)
                if payload is not None:
                    payloads[party.index] = payload
                    metrics.count_message_sent()
                    metrics.bump(f"hs-sent:{party.index}")
        for party in parties:
            delivered = {}
            for sender, payload in payloads.items():
                if tamper is not None:
                    payload = tamper(round_no, sender, party.index, payload)
                if payload is not None:
                    delivered[sender] = payload
            with metrics.scope(party.scope()), \
                    obs.span("dgka:absorb", party=party.index, round=round_no):
                for sender in delivered:
                    if sender != party.index:
                        metrics.count_message_received()
                party.dgka.absorb(round_no, delivered)
    for party in parties:
        with metrics.scope(party.scope()):
            if not party.dgka.acc:
                continue
            k_star = party.dgka.session_key
            group_key = member_group_key(party.member, party.rng)
            party.k_prime = xor_keys(k_star, group_key)
    del m


def member_group_key(member, rng: random.Random) -> bytes:
    """The member's CGKD key k_i; an outsider (no key) gets random bytes —
    it simply cannot produce matching MACs."""
    try:
        key = member.group_key
    except Exception:
        key = None
    if key is None:
        key = rng.getrandbits(256).to_bytes(32, "big")
    return key


# ---------------------------------------------------------------------------
# Phase II.
# ---------------------------------------------------------------------------


def _phase2_preliminary(parties: List[_PartyRuntime]) -> Dict[int, bytes]:
    """Each party publishes MAC(k'_i, s_i, i)."""
    tags: Dict[int, bytes] = {}
    for party in parties:
        with metrics.scope(party.scope()), \
                obs.span("tag:publish", party=party.index):
            if party.k_prime is None:
                continue
            s_i = party.dgka.unique_string(party.index)
            party.tag = mac.mac(party.k_prime, s_i, party.index)
            if party.tag is not None:
                tags[party.index] = party.tag
                metrics.count_message_sent()
                metrics.bump(f"hs-sent:{party.index}")
    return tags


def _phase2_validate(parties: List[_PartyRuntime], tags: Dict[int, bytes]) -> None:
    """Each party checks every tag under its own k'."""
    for party in parties:
        with metrics.scope(party.scope()), \
                obs.span("tag:verify", party=party.index):
            if party.k_prime is None:
                continue
            for j, tag in tags.items():
                if j != party.index:
                    metrics.count_message_received()
                s_j = party.dgka.unique_string(j)
                if mac.verify(party.k_prime, tag, s_j, j):
                    party.valid_tags.add(j)


# ---------------------------------------------------------------------------
# Phase III, one party.  The engine below and the network device call
# these; message receipts are counted by each transport, not here.
# ---------------------------------------------------------------------------


def phase3_case1(k_prime: Optional[bytes], valid_tags: Set[int], m: int,
                 policy: HandshakePolicy) -> bool:
    """CASE 1 of Fig. 6: every Phase II tag verified — or, under the
    partial-success extension, at least one same-group peer's did."""
    return k_prime is not None and (
        valid_tags == set(range(m))
        or (policy.partial_success and len(valid_tags) > 1)
    )


def phase3_publish(member, k_prime: Optional[bytes], sid: Optional[bytes],
                   self_distinction: bool, rng: random.Random,
                   ) -> Tuple[bool, bytes, Tuple[int, int, int, int]]:
    """One party's publication ``(is_decoy, theta, delta)``.

    CASE 1 callers pass the session id and get the real pair — or a decoy
    when the member cannot produce one (an impostor that somehow passed
    Phase II, a failing signer).  CASE 2 callers pass ``sid=None`` and get
    a decoy."""
    if sid is not None:
        try:
            theta, delta = _publish_real(member, k_prime, sid,
                                         self_distinction, rng)
            return False, theta, delta
        except Exception:
            pass
    theta, delta = _publish_decoy(member, rng)
    return True, theta, delta


def _publish_real(member, k_prime: bytes, sid: bytes, self_distinction: bool,
                  rng: random.Random) -> Tuple[bytes, Tuple[int, int, int, int]]:
    pk_t = member.info.tracing_public_key
    delta_ct = CramerShoup.encrypt_bytes(pk_t, k_prime, rng)
    delta = delta_ct.as_tuple()
    message = signed_message(sid, delta)
    shield = None
    if self_distinction:
        shield = member.distinction_shield(sid)
    blob = member.gsig_sign(message, rng, shield=shield)
    theta = symmetric.encrypt(k_prime, blob, rng)
    return theta, delta


def _publish_decoy(member,
                   rng: random.Random) -> Tuple[bytes, Tuple[int, int, int, int]]:
    """CASE 2: random elements of the two ciphertext spaces."""
    try:
        sig_len = _nominal_signature_length(member)
        pk_t = member.info.tracing_public_key
        delta = CramerShoup.random_ciphertext(pk_t, rng).as_tuple()
    except Exception:
        # A credential-less impostor fabricates something shaped right.
        sig_len = 512
        draw = lambda: rng.getrandbits(512)  # noqa: E731
        delta = (draw(), draw(), draw(), draw())
    theta = symmetric.random_ciphertext(sig_len, rng)
    return theta, delta


@dataclass(frozen=True)
class ScanJob:
    """Everything one party's verify scan depends on.  Picklable, so a
    worker process can run the scan."""

    member: object
    k_prime: bytes
    sid: bytes
    valid_tags: FrozenSet[int]
    index: int
    shield: Optional[int]       # common T7 base under self-distinction
    self_distinction: bool


def phase3_scan_job(member, k_prime: Optional[bytes], sid: Optional[bytes],
                    valid_tags: Set[int], index: int, is_decoy: bool,
                    policy: HandshakePolicy) -> Optional[ScanJob]:
    """The party's verify scan, or ``None`` when it published a decoy or
    never derived k' — such a party fails without looking at its peers.
    Derives the distinction shield, so call it in the party's scope."""
    if k_prime is None or is_decoy:
        return None
    shield = (member.distinction_shield(sid)
              if policy.self_distinction else None)
    return ScanJob(member, k_prime, sid, frozenset(valid_tags), index,
                   shield, policy.self_distinction)


def _try_decrypt(k_prime: bytes, theta: bytes) -> Optional[bytes]:
    """Decrypt-or-None, so the result is cacheable as a plain value."""
    try:
        return symmetric.decrypt(k_prime, theta)
    except DecryptionError:
        return None


def phase3_scan(job: ScanJob, entries,
                cache=None) -> Tuple[Set[int], Dict[int, int]]:
    """Which peers published a decryptable theta carrying a valid group
    signature; returns ``(confirmed, distinction tag by peer)``.

    ``cache`` (a :class:`repro.accel.batch.ScanCache`) shares decrypt and
    verify results across the parties of one room: same-group parties
    hold equal ``k_prime`` and equal verification contexts, so each
    distinct theta/signature is processed once and the recorded counters
    are replayed for everyone else.  Members without a
    ``verification_context`` (adversarial stand-ins) verify uncached —
    their verdicts may legitimately differ from everyone else's."""
    member = job.member
    confirmed: Set[int] = set()
    tags_by_peer: Dict[int, int] = {}
    context = None
    if cache is not None:
        context_fn = getattr(member, "verification_context", None)
        context = context_fn() if context_fn is not None else None
    for entry in entries:
        if entry.index == job.index or entry.index not in job.valid_tags:
            continue
        if cache is None:
            blob = _try_decrypt(job.k_prime, entry.theta)
        else:
            blob = cache.compute(
                ("dec", job.k_prime, entry.theta),
                lambda t=entry.theta: _try_decrypt(job.k_prime, t))
        if blob is None:
            continue
        message = signed_message(job.sid, entry.delta)
        if context is None:
            ok = member.gsig_verify(message, blob, expected_shield=job.shield)
        else:
            ok = cache.compute(
                ("ver", context, job.shield, message, blob),
                lambda msg=message, b=blob: member.gsig_verify(
                    msg, b, expected_shield=job.shield))
        if not ok:
            continue
        if job.self_distinction:
            tags_by_peer[entry.index] = wire.signature_from_bytes(blob).t6
        confirmed.add(entry.index)
    return confirmed, tags_by_peer


def phase3_conclude(index: int, k_prime: Optional[bytes], sid: Optional[bytes],
                    entries, policy: HandshakePolicy, job: Optional[ScanJob],
                    scan: Optional[Tuple[Set[int], Dict[int, int]]],
                    ) -> HandshakeOutcome:
    """One party's verdict from its scan: self-distinction, success and
    the session key.  ``sid`` is ``None`` for a party whose DGKA never
    accepted (it gets no transcript); ``job`` is the party's
    :func:`phase3_scan_job` and ``scan`` the :func:`phase3_scan` result
    (both ``None`` for a party that fails without scanning)."""
    outcome = HandshakeOutcome(index=index, success=False, k_prime=k_prime)
    if sid is not None:
        # The published pairs are public regardless of success — what an
        # eavesdropper (or the tracing authority) gets to see.
        outcome.transcript = HandshakeTranscript(sid=sid, entries=entries)
    if job is None:
        return outcome
    confirmed, tags_by_peer = scan
    outcome.confirmed_peers = confirmed

    if policy.self_distinction:
        own_tag = job.member.credential.distinction_tag(job.shield)
        seen: Dict[int, int] = {index: own_tag}
        duplicates: Set[int] = set()
        for peer, tag in tags_by_peer.items():
            for other, other_tag in seen.items():
                if tag == other_tag:
                    duplicates.update({peer, other})
            seen[peer] = tag
        outcome.distinct = not duplicates
        outcome.duplicate_indices = duplicates

    full = confirmed == set(range(len(entries))) - {index}
    outcome.success = full and (outcome.distinct is not False)
    if outcome.success or (policy.partial_success and confirmed):
        outcome.session_key = _session_key(k_prime, sid)
    return outcome


def conclude_without_tracing(index: int, k_prime: Optional[bytes],
                             valid_tags: Set[int],
                             dgka: DgkaParty) -> HandshakeOutcome:
    """Phases I-II only (the 'traceability not required' tailoring)."""
    success = k_prime is not None and valid_tags == set(range(dgka.m))
    outcome = HandshakeOutcome(index=index, success=success,
                               confirmed_peers=set(valid_tags) - {index})
    if success:
        outcome.session_key = _session_key(k_prime, dgka.sid)
    return outcome


def _session_key(k_prime: bytes, sid: bytes) -> bytes:
    return hashing.kdf(k_prime + sid, "gcd-secure-channel")


# ---------------------------------------------------------------------------
# Phase III, the engine's room.
# ---------------------------------------------------------------------------


def _phase3_full(parties: List[_PartyRuntime], policy: HandshakePolicy,
                 pool=None) -> List[HandshakeOutcome]:
    m = len(parties)
    publish_sids: Dict[int, bytes] = {}
    for party in parties:
        if phase3_case1(party.k_prime, party.valid_tags, m, policy):
            with metrics.scope(party.scope()):
                publish_sids[party.index] = party.dgka.sid
    prebuilt = (_pooled_publications(pool, parties, publish_sids, policy)
                if pool is not None else {})

    published = []
    for party in parties:
        with metrics.scope(party.scope()), \
                obs.span("phase3:publish", party=party.index):
            if party.index in prebuilt:
                is_decoy, theta, delta = prebuilt[party.index]
            else:
                is_decoy, theta, delta = phase3_publish(
                    party.member, party.k_prime,
                    publish_sids.get(party.index), policy.self_distinction,
                    party.rng)
            party.is_decoy = is_decoy
            published.append(HandshakeEntry(index=party.index, theta=theta,
                                            delta=delta))
            metrics.count_message_sent()
            metrics.bump(f"hs-sent:{party.index}")
    entries = tuple(published)

    sids: List[Optional[bytes]] = []
    jobs: List[Optional[ScanJob]] = []
    for party in parties:
        with metrics.scope(party.scope()):
            sid = party.dgka.sid if party.dgka.acc else None
            sids.append(sid)
            jobs.append(phase3_scan_job(
                party.member, party.k_prime, sid, party.valid_tags,
                party.index, party.is_decoy, policy))
    with obs.span("phase3:scan"):
        scans = _run_scans(pool, entries,
                           [job for job in jobs if job is not None])

    outcomes: List[HandshakeOutcome] = []
    for party, sid, job in zip(parties, sids, jobs):
        with metrics.scope(party.scope()), \
                obs.span("phase3:conclude", party=party.index):
            # The engine books the m-1 Phase III receipts only for a party
            # that reads them in its scan (the E1/E2 books depend on it).
            if job is not None:
                for _ in range(m - 1):
                    metrics.count_message_received()
            outcomes.append(phase3_conclude(
                party.index, party.k_prime, sid, entries, policy, job,
                scans.get(party.index)))
    return outcomes


def _pooled_publications(pool, parties: List[_PartyRuntime],
                         sids: Dict[int, bytes], policy: HandshakePolicy):
    """The CASE 1 publications (the expensive encrypt+sign) computed
    concurrently on ``pool``.  Each party's rng state round-trips through
    its job, so the draw sequence matches in-process execution draw for
    draw; the workers' counts are replayed into each party's scope."""
    real = [party for party in parties if party.index in sids]
    results = pool.run_batch(
        _publish_task,
        [(party.member, party.k_prime, sids[party.index],
          policy.self_distinction, party.rng.getstate()) for party in real],
        scopes=[party.scope() for party in real],
    )
    prebuilt = {}
    for party, (publication, rng_state) in zip(real, results):
        party.rng.setstate(rng_state)
        prebuilt[party.index] = publication
    return prebuilt


def _publish_task(member, k_prime: bytes, sid: bytes, self_distinction: bool,
                  rng_state: tuple):
    """Worker-side :func:`phase3_publish` on a rng rebuilt from its state;
    returns the publication and the advanced state."""
    accel_batch.warm_member(member)
    rng = random.Random()
    rng.setstate(rng_state)
    publication = phase3_publish(member, k_prime, sid, self_distinction, rng)
    return publication, rng.getstate()


def _run_scans(pool, entries, jobs: List[ScanJob]
               ) -> Dict[int, Tuple[Set[int], Dict[int, int]]]:
    """Every scanning party's verify scan, as one in-process chunk or as
    ``min(workers, m)`` chunks on ``pool``.  Either way each party's
    recorded counts are replayed into its own scope, so the books do not
    depend on the executor.  Keyed by party index."""
    if not jobs:
        return {}
    use_cache = accel_state.is_enabled()
    if pool is None:
        chunk_results = [_scan_chunk(entries, jobs, use_cache)]
    else:
        chunks = _split(jobs, pool.workers)
        metrics.bump("accel:batch-chunks", len(chunks))
        chunk_results = pool.run_batch(
            _scan_chunk, [(entries, chunk, use_cache) for chunk in chunks])
    scans = {}
    for job, (result, counts) in zip(
            jobs, itertools.chain.from_iterable(chunk_results)):
        with metrics.scope(f"hs:{job.index}"):
            metrics.replay(counts)
        scans[job.index] = result
    return scans


def _split(jobs: List[ScanJob], workers: int) -> List[List[ScanJob]]:
    """``min(workers, len(jobs))`` contiguous chunks of near-equal size."""
    count = max(1, min(workers, len(jobs)))
    base, extra = divmod(len(jobs), count)
    chunks, start = [], 0
    for i in range(count):
        size = base + (1 if i < extra else 0)
        chunks.append(jobs[start:start + size])
        start += size
    return chunks


def _scan_chunk(entries, jobs: List[ScanJob], use_cache: bool):
    """Several parties' scans over one copy of the room's entries, sharing
    one :class:`~repro.accel.batch.ScanCache` when ``use_cache``.  Each
    scan runs under its own detached recorder and its counts come back
    with its result for the caller to replay."""
    for job in jobs:
        accel_batch.warm_member(job.member)
    cache = accel_batch.ScanCache() if use_cache else None
    out = []
    for job in jobs:
        with metrics.detached() as rec:
            result = phase3_scan(job, entries, cache)
        out.append((result, metrics.replayable_totals(rec)))
    return out
