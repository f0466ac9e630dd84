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

The protocol is written once, as the per-party state machine
:class:`HandshakeDevice`.  It buffers broadcasts, absorbs each DGKA round
once every sender the DGKA names for that round has spoken, and publishes
its Phase II tag and Phase III pair when its local state permits, so it
runs unchanged on every transport: :func:`run_handshake` drives devices
in lockstep on an in-memory bus, :mod:`repro.net.runner` runs them over
the message-passing simulator, and :mod:`repro.service` over sockets and
the cluster.  Its Phase III steps are per-party functions
(:func:`phase3_case1`, :func:`phase3_publish`, :func:`phase3_scan_job`,
:func:`phase3_scan`, :func:`phase3_conclude`,
:func:`conclude_without_tracing`).

Each device charges its work to its ``hs:<i>`` scope and to the
``phase:I``/``phase:II``/``phase:III`` scopes.  :func:`run_handshake`
supports a ``tamper`` hook on the DGKA deliveries (the MITM
experiments).  The partially-successful extension (Section 7) is a
policy switch: with ``partial_success=True``, parties with at least one
same-group peer run CASE 1 *within their subset* and each outcome
reports the confirmed subset, exactly as the paper's extension
describes.
"""

from __future__ import annotations

import contextlib
import itertools
import random
import time
from dataclasses import dataclass, field, replace
from typing import (Callable, Dict, FrozenSet, Iterator, List, Optional,
                    Sequence, Set, Tuple)

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
from repro.net.simulator import Message, Party

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
# Phase III, one party.  The device below calls these; message receipts
# are booked by the device's transport, not here.
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
    """Everything one party's verify scan depends on."""

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
# The state machine.
# ---------------------------------------------------------------------------


#: The phase scope a delivered frame is booked to, by frame kind.
_FRAME_PHASES = {"dgka": "phase:I", "tag": "phase:II", "phase3": "phase:III"}


def _frame_phase(payload: object) -> Optional[str]:
    if isinstance(payload, tuple) and payload and isinstance(payload[0], str):
        return _FRAME_PHASES.get(payload[0])
    return None


@dataclass(frozen=True)
class SessionPlan:
    """Public session parameters every device agrees on up front: the
    ordered roster of device names (index = position) and a session tag
    used as the broadcast channel."""

    session_id: str
    roster: Sequence[str]

    @property
    def m(self) -> int:
        return len(self.roster)

    def index_of(self, name: str) -> int:
        return self.roster.index(name)

    @property
    def channel(self) -> str:
        return f"handshake/{self.session_id}"


class HandshakeDevice(Party):
    """One participant's device: the Fig. 6 state machine over broadcasts.

    ``scan_cache`` (a :class:`repro.accel.batch.ScanCache`) is shared by
    the devices of one room running in one process; :func:`run_handshake`
    passes one whenever :mod:`repro.accel` is enabled.  ``None`` verifies
    every peer's signature in this device."""

    def __init__(self, name: str, member, plan: SessionPlan,
                 policy: Optional[HandshakePolicy] = None,
                 rng: Optional[random.Random] = None,
                 scan_cache=None) -> None:
        super().__init__(name)
        self.member = member
        self.plan = plan
        self.policy = policy or HandshakePolicy()
        self.rng = rng if rng is not None else random.Random()
        self.scan_cache = scan_cache
        self.index = plan.index_of(name)
        self.dgka = self.policy.dgka_factory(self.index, plan.m, self.rng)
        self._round_buffers: Dict[int, Dict[int, object]] = {}
        self._current_round = 0
        self._k_prime: Optional[bytes] = None
        self._tags: Dict[int, bytes] = {}
        self._valid_tags: Set[int] = set()
        self._entries: Dict[int, HandshakeEntry] = {}
        self._published_phase3 = False
        self._is_decoy = False
        self.outcome: Optional[HandshakeOutcome] = None
        # Span bookkeeping: phase boundaries end inside message callbacks,
        # so the device holds manual spans with explicit parents instead
        # of relying on the (task-local) context span.
        self._root_span = obs.NOOP_SPAN
        self._phase_span = obs.NOOP_SPAN

    @property
    def metrics_scope(self) -> str:
        """``hs:<i>`` on every transport, so per-party books compare
        directly (tested for parity)."""
        return f"hs:{self.index}"

    # Protocol driving ----------------------------------------------------

    def start(self) -> None:
        """Kick off Phase I: emit round 0 if the DGKA names this party."""
        self._root_span = obs.start_span(f"hs:{self.index}",
                                         party=self.index)
        self._enter_phase("phase:I")
        self._advance_dgka()

    def receive(self, message: Message, nbytes: int = 0) -> None:
        """Book the receipt to the phase the frame belongs to as well,
        then handle it."""
        with metrics.scope(_frame_phase(message.payload)
                           or self.metrics_scope):
            metrics.count_message_received(nbytes)
        self.on_message(message)

    def on_message(self, message: Message) -> None:
        payload = message.payload
        if not isinstance(payload, tuple) or len(payload) < 2:
            return
        kind, session_id = payload[0], payload[1]
        if session_id != self.plan.session_id:
            return
        if kind == "dgka":
            _, _, round_no, sender, body = payload
            self._round_buffers.setdefault(round_no, {})[sender] = body
            self._advance_dgka()
        elif kind == "tag":
            _, _, sender, tag = payload
            self._tags.setdefault(sender, tag)
            self._maybe_finish_phase2()
        elif kind == "phase3":
            _, _, sender, theta, delta = payload
            self._entries.setdefault(
                sender, HandshakeEntry(index=sender, theta=theta,
                                       delta=tuple(delta))
            )
            self._maybe_conclude()

    @contextlib.contextmanager
    def _step(self, phase: str, name: str, **attrs: object) -> Iterator[None]:
        """One unit of this party's work: charged to ``phase``'s scope and
        recorded as a span of this party (``gsig:*`` spans nest in it)."""
        with obs.span(name, party=self.index, **attrs), metrics.scope(phase):
            yield

    def _enter_phase(self, name: str) -> None:
        self._phase_span.end()
        self._phase_span = obs.start_span(name, parent=self._root_span,
                                          party=self.index)

    def _conclude(self, outcome: HandshakeOutcome) -> None:
        self.outcome = outcome
        self._phase_span.end()
        self._root_span.end(success=outcome.success)

    # Phase I -------------------------------------------------------------

    def _advance_dgka(self) -> None:
        """Run DGKA rounds as far as the frames at hand allow: emit when
        the DGKA names this party a speaker, absorb once every named
        speaker has been heard."""
        while not self.dgka.acc and self._current_round < self.dgka.rounds:
            round_no = self._current_round
            heard = self._round_buffers.setdefault(round_no, {})
            speakers = self.dgka.speakers(round_no)
            if self.index in speakers and self.index not in heard:
                with self._step("phase:I", "dgka:emit", round=round_no):
                    heard[self.index] = payload = self.dgka.emit(round_no)
                    self.broadcast(("dgka", self.plan.session_id, round_no,
                                    self.index, payload),
                                   channel=self.plan.channel)
            if any(sender not in heard for sender in speakers):
                return
            with self._step("phase:I", "dgka:absorb", round=round_no):
                self.dgka.absorb(round_no, {s: heard[s] for s in speakers})
            self._current_round += 1
            if self.dgka.acc:
                self._finish_phase1()

    def _finish_phase1(self) -> None:
        with metrics.scope("phase:I"):
            self._k_prime = xor_keys(self.dgka.session_key,
                                     member_group_key(self.member, self.rng))
        self._enter_phase("phase:II")
        with self._step("phase:II", "tag:publish"):
            tag = mac.mac(self._k_prime, self.dgka.unique_string(self.index),
                          self.index)
            self._tags[self.index] = tag
            self.broadcast(("tag", self.plan.session_id, self.index, tag),
                           channel=self.plan.channel)
        self._maybe_finish_phase2()

    # Phase II ------------------------------------------------------------

    def _maybe_finish_phase2(self) -> None:
        if self._published_phase3 or self._k_prime is None:
            return
        if len(self._tags) < self.plan.m:
            return
        with self._step("phase:II", "tag:verify"):
            for sender, tag in self._tags.items():
                if mac.verify(self._k_prime, tag,
                              self.dgka.unique_string(sender), sender):
                    self._valid_tags.add(sender)
        self._publish_phase3()

    # Phase III -----------------------------------------------------------

    def _publish_phase3(self) -> None:
        self._published_phase3 = True
        if not self.policy.traceable:
            # Phases I-II only: the session key ends Phase II.
            with metrics.scope("phase:II"):
                outcome = conclude_without_tracing(
                    self.index, self._k_prime, self._valid_tags, self.dgka)
            self._conclude(outcome)
            return
        self._enter_phase("phase:III")
        with self._step("phase:III", "phase3:publish"):
            case1 = phase3_case1(self._k_prime, self._valid_tags, self.plan.m,
                                 self.policy)
            self._is_decoy, theta, delta = phase3_publish(
                self.member, self._k_prime, self.dgka.sid if case1 else None,
                self.policy.self_distinction, self.rng)
            self._entries[self.index] = HandshakeEntry(
                index=self.index, theta=theta, delta=delta)
            self.broadcast(("phase3", self.plan.session_id, self.index,
                            theta, delta), channel=self.plan.channel)
        self._maybe_conclude()

    def _maybe_conclude(self) -> None:
        if self.outcome is not None or not self._published_phase3:
            return
        if len(self._entries) < self.plan.m:
            return
        entries = tuple(self._entries[i] for i in range(self.plan.m))
        with self._step("phase:III", "phase3:scan"):
            sid = self.dgka.sid
            job = phase3_scan_job(self.member, self._k_prime, sid,
                                  self._valid_tags, self.index,
                                  self._is_decoy, self.policy)
            scan = (phase3_scan(job, entries, self.scan_cache)
                    if job is not None else None)
        with self._step("phase:III", "phase3:conclude"):
            outcome = phase3_conclude(self.index, self._k_prime, sid,
                                      entries, self.policy, job, scan)
        self._conclude(outcome)


# ---------------------------------------------------------------------------
# Drivers.
# ---------------------------------------------------------------------------


class _LockstepBus:
    """The in-memory broadcast medium :func:`run_handshake` runs on.

    It delivers in receiver-major waves: the frames sent so far form a
    wave, and each device in roster order receives every frame of the
    wave it did not send before the next wave starts.  That is the order
    in which a shared rng's draws match a room-synchronous loop.  Frames
    have no wire format, so no bytes are booked.  ``tamper(round, sender,
    receiver, payload)`` filters each DGKA delivery: it returns the
    payload to deliver, or ``None`` to drop it."""

    def __init__(self, tamper=None) -> None:
        self.tamper = tamper
        self._devices: List[HandshakeDevice] = []
        self._outbox: List[Message] = []
        self._ids = itertools.count(1)

    def register(self, device: HandshakeDevice) -> HandshakeDevice:
        self._devices.append(device)
        device.attached(self)
        return device

    def send(self, sender: str, recipient: str, payload: object,
             channel: str = "p2p") -> None:
        metrics.count_message_sent()
        self._outbox.append(Message(msg_id=next(self._ids), sender=sender,
                                    recipient=recipient, channel=channel,
                                    payload=payload))

    def run(self) -> None:
        while self._outbox:
            wave, self._outbox = self._outbox, []
            for device in self._devices:
                with metrics.scope(device.metrics_scope):
                    for message in wave:
                        if message.sender == device.name:
                            continue
                        message = self._filter(message, device.index)
                        if message is not None:
                            device.receive(message)

    def _filter(self, message: Message, receiver: int) -> Optional[Message]:
        if self.tamper is None or message.payload[0] != "dgka":
            return message
        kind, session_id, round_no, sender, body = message.payload
        body = self.tamper(round_no, sender, receiver, body)
        if body is None:
            return None
        return replace(message,
                       payload=(kind, session_id, round_no, sender, body))


def run_devices(members: Sequence[object],
                policy: Optional[HandshakePolicy],
                rngs: Sequence[random.Random], medium, session_id: str,
                transport: str, scan_cache=None) -> List[HandshakeOutcome]:
    """Register one :class:`HandshakeDevice` per member on ``medium`` (the
    lockstep bus or a :class:`repro.net.simulator.Network`), start them in
    roster order and run the medium until it is quiet.  Returns outcomes
    in roster order; a device that could not conclude (a dropped frame,
    say) yields a failed outcome."""
    roster = tuple(f"device-{i}" for i in range(len(members)))
    plan = SessionPlan(session_id=session_id, roster=roster)
    started = time.perf_counter()
    try:
        with obs.span("handshake", m=plan.m, transport=transport):
            devices = [
                medium.register(HandshakeDevice(name, member, plan, policy,
                                                rng, scan_cache))
                for name, member, rng in zip(plan.roster, members, rngs)
            ]
            for device in devices:
                # start() performs the device's round-0 DGKA work; the
                # transport holds the party's scope, as it does for every
                # delivery.
                with metrics.scope(device.metrics_scope):
                    device.start()
            medium.run()
    finally:
        metrics.observe("hs:latency", time.perf_counter() - started)
    return [device.outcome
            or HandshakeOutcome(index=device.index, success=False)
            for device in devices]


def run_handshake(
    members: Sequence[object],
    policy: Optional[HandshakePolicy] = None,
    rng: Optional[random.Random] = None,
    tamper=None,
    *,
    rngs: Optional[Sequence[random.Random]] = None,
) -> List[HandshakeOutcome]:
    """Execute SHS.Handshake among ``members`` (Fig. 1 / Fig. 6).

    ``members`` are :class:`repro.core.member.GcdMember` objects (or
    adversarial stand-ins duck-typing the same surface).  Returns one
    :class:`HandshakeOutcome` per participant, in order.

    One device per member runs on an in-memory lockstep bus (see
    :class:`_LockstepBus`, which also applies ``tamper``).  ``rngs`` gives
    every party its own generator (``rngs[i]`` drives party ``i``), which
    decouples the parties' draw sequences; with the single shared ``rng``
    the lockstep order serializes them.  When :mod:`repro.accel` is
    enabled the room's devices share one
    :class:`~repro.accel.batch.ScanCache`.
    """
    m = len(members)
    if m < 2:
        raise ProtocolError("a handshake needs at least two participants")
    if rngs is None:
        rngs = [rng if rng is not None else random.Random()] * m
    elif len(rngs) != m:
        raise ParameterError("need exactly one rng per participant")
    cache = accel_batch.ScanCache() if accel_state.is_enabled() else None
    return run_devices(members, policy, rngs, _LockstepBus(tamper),
                       "engine", "engine", cache)
