"""Kiayias-(Tsiounis-)Yung traceable-signature variant (paper Appendix H)
with the self-distinction modification of Section 8.2.

Member key: ``(A, e, x, xt)`` with ``A^e = a0 * a^x * b^xt (mod n)``, where

* ``x``  — the *tracing trapdoor*, known to both the member and the group
  manager (this is what lets the GM trace and lets members check a CRL);
* ``xt`` — known only to the member (``x'`` in the paper; gives
  no-misattribution and powers the self-distinction tags).

A signature carries the seven values of Appendix H::

    T1 = A y^w   T2 = g^w   T3 = g^e h^w          (identity escrow)
    T4 = T5^x    T5 = g^k                          (GM tracing via x)
    T6 = T7^xt   T7 = g^k'                         (claiming / distinction)

plus a Fiat-Shamir SPK of ``(e, x, xt, w, ew, k)`` tying everything
together.  The paper's observation: ``T7`` is only an "anonymity shield" —
the signer need not prove knowledge of ``k'``.  So if a *common* ``T7`` is
imposed on all handshake participants (derived via an ideal hash from the
session transcript), each participant is forced to reveal a deterministic
``T6 = T7^xt`` — distinct signers yield distinct ``T6`` values, giving
**self-distinction**, while fresh ``T7`` values across sessions preserve
unlinkability.  :func:`common_shield` implements the hash-derived base, and
``sign(..., shield=...)`` the modified signing.

Because signatures by the same signer under the same ``T7`` are linkable by
design, this scheme offers *anonymity* (not full-anonymity) — exactly the
weakening Theorems 2/3 of the paper account for.

Revocation is CRL-based via the tracing trapdoor (the GM publishes revoked
members' ``x`` values to current members; verifiers reject any signature
with ``T4 == T5^x`` for a revoked ``x``).  This matches the KTY implicit-
tracing mechanism and keeps unrevoked members unlinkable.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Optional, Sequence, Tuple

from repro.accel.fixed_base import register_base
from repro.crypto import hashing
from repro.crypto.modmath import (
    int_in_symmetric_range,
    inverse,
    mexp,
    random_int_symmetric,
)
from repro.crypto.params import AcjtLengths, acjt_profile
from repro.crypto.primes import random_prime_in_interval
from repro.crypto.rsa import RsaGroup, generators
from repro.errors import (
    MembershipError,
    ParameterError,
    RevocationError,
    VerificationError,
)
from repro.gsig.base import (
    GroupMemberCredential,
    GroupSignatureManager,
    StateUpdate,
)

_CHALLENGE_DOMAIN = "kty-spk"
_JOIN_DOMAIN = "kty-join-pok"
_SHIELD_DOMAIN = "kty-common-shield"


@dataclass(frozen=True)
class KtyPublicKey:
    """Group public key: n, a, a0, b, g, h, y (Appendix H parameters)."""

    n: int
    lengths: AcjtLengths
    a: int
    a0: int
    b: int
    g: int
    h: int
    y: int


@dataclass(frozen=True)
class KtyMemberView:
    """Member-side verification state: the CRL of revoked tracing trapdoors
    (known only to current members, per SHS.CreateGroup)."""

    revoked_tags: FrozenSet[int]
    epoch: int


@dataclass(frozen=True)
class KtyJoinRequest:
    user_id: str
    commitment: int  # C = b^xt
    challenge: int
    response: int


@dataclass(frozen=True)
class KtyJoinResponse:
    big_a: int
    e: int
    x: int
    epoch: int


@dataclass(frozen=True)
class KtySignature:
    t1: int
    t2: int
    t3: int
    t4: int
    t5: int
    t6: int
    t7: int
    challenge: int
    s_e: int
    s_x: int
    s_xt: int
    s_z: int  # for e*w
    s_w: int
    s_k: int
    shielded: bool  # True when T7 is an externally imposed common base


def common_shield(pk: KtyPublicKey, *context) -> int:
    """The paper's ideal-hash-derived common T7 base for a handshake
    session: H : {0,1}* -> QR(n) applied to the session context (e.g. the
    concatenation of all DGKA messages)."""
    return hashing.hash_to_qr(_SHIELD_DOMAIN, pk.n, *context)


def _spk_challenge(pk: KtyPublicKey, message: bytes,
                   t_values: Tuple[int, ...], d_values: Tuple[int, ...]) -> int:
    return hashing.hash_to_int(
        _CHALLENGE_DOMAIN, pk.lengths.k,
        pk.n, pk.a, pk.a0, pk.b, pk.g, pk.h, pk.y,
        message, tuple(t_values), tuple(d_values),
    )


# ---------------------------------------------------------------------------
# Join protocol.
# ---------------------------------------------------------------------------


def begin_join(pk: KtyPublicKey, user_id: str,
               rng: Optional[random.Random] = None) -> Tuple[KtyJoinRequest, int]:
    """User step 1: pick the private ``xt``, commit ``C = b^xt``, prove it.

    Returns ``(request, xt)``."""
    rng = rng or random
    lengths = pk.lengths
    xt = rng.randrange(lengths.x_low + 1, lengths.x_high)
    commitment = mexp(pk.b, xt, pk.n)
    t = random_int_symmetric(lengths.epsilon * (lengths.lambda2 + lengths.k), rng)
    d = mexp(pk.b, t, pk.n)
    challenge = hashing.hash_to_int(
        _JOIN_DOMAIN, lengths.k, pk.n, pk.b, user_id, commitment, d
    )
    response = t - challenge * (xt - (1 << lengths.lambda1))
    return KtyJoinRequest(user_id, commitment, challenge, response), xt


def _verify_join_request(pk: KtyPublicKey, request: KtyJoinRequest) -> bool:
    lengths = pk.lengths
    if not int_in_symmetric_range(
        request.response, lengths.epsilon * (lengths.lambda2 + lengths.k) + 1
    ):
        return False
    if not 1 < request.commitment < pk.n:
        return False
    shifted = request.response - request.challenge * (1 << lengths.lambda1)
    d = (
        mexp(request.commitment, request.challenge, pk.n)
        * mexp(pk.b, shifted, pk.n)
    ) % pk.n
    expected = hashing.hash_to_int(
        _JOIN_DOMAIN, lengths.k, pk.n, pk.b, request.user_id, request.commitment, d
    )
    return expected == request.challenge


def finish_join(pk: KtyPublicKey, user_id: str, xt: int,
                response: KtyJoinResponse) -> "KtyCredential":
    """User step 2: check ``A^e = a0 a^x b^xt`` and build the credential."""
    lhs = mexp(response.big_a, response.e, pk.n)
    rhs = (
        pk.a0 * mexp(pk.a, response.x, pk.n) * mexp(pk.b, xt, pk.n)
    ) % pk.n
    if lhs != rhs:
        raise VerificationError("manager issued an invalid KTY certificate")
    if not pk.lengths.e_low < response.e < pk.lengths.e_high:
        raise VerificationError("certificate prime outside Gamma")
    if not pk.lengths.x_low < response.x < pk.lengths.x_high:
        raise VerificationError("tracing trapdoor outside Lambda")
    return KtyCredential(
        public_key=pk, user_id=user_id,
        big_a=response.big_a, e=response.e, x=response.x, xt=xt,
        epoch=response.epoch,
    )


# ---------------------------------------------------------------------------
# Manager.
# ---------------------------------------------------------------------------


@dataclass
class _MemberRecord:
    user_id: str
    big_a: int
    e: int
    x: int
    revoked: bool = False


class KtyManager(GroupSignatureManager):
    """GM for the KTY variant: holds the opening trapdoor theta and the
    per-member tracing trapdoors x."""

    def __init__(self, profile: str = "tiny",
                 rng: Optional[random.Random] = None) -> None:
        rng = rng or random
        self._lengths = acjt_profile(profile)
        self._group = RsaGroup.from_precomputed(self._lengths.lp)
        a, a0, b, g, h = generators(self._group, 5, rng)
        self._theta = rng.randrange(1, self._group.n // 4)
        y = self._group.exp(g, self._theta)
        self._pk = KtyPublicKey(
            n=self._group.n, lengths=self._lengths,
            a=a, a0=a0, b=b, g=g, h=h, y=y,
        )
        # Long-lived bases for repro.accel's fixed-base tables (the ACJT
        # manager has done this since the accel layer landed; the KTY
        # verifier exponentiates a, b, g, h, y just as hard).
        for base in (a, a0, b, g, h, y):
            register_base(base, self._group.n)
        self._members: Dict[str, _MemberRecord] = {}
        self._by_big_a: Dict[int, str] = {}
        self._revoked_tags: set = set()
        self._epoch = 0
        self._rng = rng

    @property
    def public_key(self) -> KtyPublicKey:
        return self._pk

    @property
    def lengths(self) -> AcjtLengths:
        return self._lengths

    def member_view(self) -> KtyMemberView:
        return KtyMemberView(
            revoked_tags=frozenset(self._revoked_tags), epoch=self._epoch
        )

    def admit(self, request: KtyJoinRequest) -> Tuple[KtyJoinResponse, StateUpdate]:
        if request.user_id in self._members:
            raise MembershipError(f"{request.user_id} already joined")
        if not _verify_join_request(self._pk, request):
            raise VerificationError("join request proof rejected")
        lengths = self._lengths
        x = self._rng.randrange(lengths.x_low + 1, lengths.x_high)
        while True:
            e = random_prime_in_interval(lengths.e_low, lengths.e_high, self._rng)
            if self._group.coprime_to_order(e):
                break
        base = (
            self._pk.a0
            * self._group.exp(self._pk.a, x)
            * request.commitment
        ) % self._pk.n
        big_a = self._group.exp(base, self._group.invert_exponent(e))
        self._members[request.user_id] = _MemberRecord(request.user_id, big_a, e, x)
        self._by_big_a[big_a] = request.user_id
        self._epoch += 1
        response = KtyJoinResponse(big_a=big_a, e=e, x=x, epoch=self._epoch)
        update = StateUpdate(epoch=self._epoch, kind="join", payload={})
        return response, update

    def join(self, user_id: str, rng=None) -> Tuple["KtyCredential", StateUpdate]:
        """Convenience one-call Join running both sides locally."""
        request, xt = begin_join(self._pk, user_id, rng or self._rng)
        response, update = self.admit(request)
        return finish_join(self._pk, user_id, xt, response), update

    def revoke(self, user_id: str) -> StateUpdate:
        record = self._members.get(user_id)
        if record is None:
            raise MembershipError(f"unknown member {user_id}")
        if record.revoked:
            raise RevocationError(f"{user_id} already revoked")
        record.revoked = True
        self._revoked_tags.add(record.x)
        self._epoch += 1
        return StateUpdate(
            epoch=self._epoch, kind="revoke", payload={"revoked_tag": record.x}
        )

    def revoke_batch(self, user_ids: Sequence[str]) -> StateUpdate:
        """Revoke several members in one epoch: the CRL analogue of the
        accumulator's batched delete — one epoch bump, one update record
        carrying every newly revoked tracing tag."""
        ids = list(user_ids)
        if not ids:
            raise RevocationError("empty revocation batch")
        if len(set(ids)) != len(ids):
            raise RevocationError("duplicate user in revocation batch")
        records = []
        for user_id in ids:
            record = self._members.get(user_id)
            if record is None:
                raise MembershipError(f"unknown member {user_id}")
            if record.revoked:
                raise RevocationError(f"{user_id} already revoked")
            records.append(record)
        tags = tuple(record.x for record in records)
        for record in records:
            record.revoked = True
        self._revoked_tags.update(tags)
        self._epoch += 1
        return StateUpdate(
            epoch=self._epoch, kind="epoch", payload={"revoked_tags": tags}
        )

    def open(self, message: bytes, signature: KtySignature,
             member_view: Optional[KtyMemberView] = None) -> Optional[str]:
        """Open via the escrow pair: A = T1 / T2^theta."""
        view = member_view or self.member_view()
        if not verify(self._pk, message, signature, view):
            return None
        big_a = (
            signature.t1
            * inverse(self._group.exp(signature.t2, self._theta), self._pk.n)
        ) % self._pk.n
        return self._by_big_a.get(big_a)

    def trace_tag(self, user_id: str) -> int:
        """The tracing trapdoor x for ``user_id`` (GM-side tracing)."""
        record = self._members.get(user_id)
        if record is None:
            raise MembershipError(f"unknown member {user_id}")
        return record.x

    def signature_is_by(self, signature: KtySignature, user_id: str) -> bool:
        """KTY implicit tracing: check T4 == T5^x for the user's trapdoor."""
        x = self.trace_tag(user_id)
        return mexp(signature.t5, x, self._pk.n) == signature.t4

    def is_member(self, user_id: str) -> bool:
        record = self._members.get(user_id)
        return record is not None and not record.revoked


# ---------------------------------------------------------------------------
# Member credential & signing.
# ---------------------------------------------------------------------------


@dataclass
class KtyCredential(GroupMemberCredential):
    public_key: KtyPublicKey
    user_id: str
    big_a: int
    e: int
    x: int = field(repr=False)
    xt: int = field(repr=False)
    epoch: int = 0
    revoked: bool = False
    _revoked_tags: set = field(default_factory=set, repr=False)

    def apply_update(self, update: StateUpdate) -> None:
        if update.epoch <= self.epoch:
            return  # Stale replay (board posts carry increasing epochs).
        if update.kind == "join":
            pass  # No member-side state for joins in the KTY variant.
        elif update.kind == "revoke":
            tag = update.payload["revoked_tag"]
            if tag == self.x:
                self.revoked = True
            self._revoked_tags.add(tag)
        elif update.kind == "epoch":
            tags = tuple(update.payload["revoked_tags"])
            if self.x in tags:
                self.revoked = True
            self._revoked_tags.update(tags)
        else:
            raise ParameterError(f"unknown update kind {update.kind!r}")
        self.epoch = update.epoch

    def member_view(self) -> KtyMemberView:
        """This member's local view (CRL) for verifying peers' signatures."""
        return KtyMemberView(revoked_tags=frozenset(self._revoked_tags),
                             epoch=self.epoch)

    def sign(self, message: bytes, rng: Optional[random.Random] = None,
             shield: Optional[int] = None) -> KtySignature:
        """Sign ``message``.

        ``shield`` — if given, the common T7 base of the self-distinction
        mode (Section 8.2): T7 := shield and T6 = T7^xt becomes
        deterministic for this session.  If ``None``, a fresh random T7 is
        used (plain Appendix-H signing).
        """
        if self.revoked:
            raise RevocationError("credential has been revoked")
        rng = rng or random
        pk = self.public_key
        n, lengths = pk.n, pk.lengths
        eps, k_len = lengths.epsilon, lengths.k
        two_lp = 2 * lengths.lp

        w = rng.getrandbits(two_lp)
        k = rng.getrandbits(two_lp)
        t1 = (self.big_a * mexp(pk.y, w, n)) % n
        t2 = mexp(pk.g, w, n)
        t3 = (mexp(pk.g, self.e, n) * mexp(pk.h, w, n)) % n
        t5 = mexp(pk.g, k, n)
        t4 = mexp(t5, self.x, n)
        if shield is None:
            k_prime = rng.getrandbits(two_lp)
            t7 = mexp(pk.g, k_prime, n)
            shielded = False
        else:
            if not 1 < shield < n:
                raise ParameterError("shield out of range")
            t7 = shield % n
            shielded = True
        t6 = mexp(t7, self.xt, n)

        t_e = random_int_symmetric(eps * (lengths.gamma2 + k_len), rng)
        t_x = random_int_symmetric(eps * (lengths.lambda2 + k_len), rng)
        t_xt = random_int_symmetric(eps * (lengths.lambda2 + k_len), rng)
        t_z = random_int_symmetric(eps * (lengths.gamma1 + two_lp + k_len + 1), rng)
        t_w = random_int_symmetric(eps * (two_lp + k_len), rng)
        t_k = random_int_symmetric(eps * (two_lp + k_len), rng)

        d1 = (
            mexp(t1, t_e, n)
            * inverse(
                (mexp(pk.a, t_x, n) * mexp(pk.b, t_xt, n) * mexp(pk.y, t_z, n)) % n,
                n,
            )
        ) % n
        d2 = (mexp(t2, t_e, n) * inverse(mexp(pk.g, t_z, n), n)) % n
        d3 = mexp(pk.g, t_w, n)
        d4 = (mexp(pk.g, t_e, n) * mexp(pk.h, t_w, n)) % n
        d5 = mexp(pk.g, t_k, n)
        d6 = mexp(t5, t_x, n)
        d7 = mexp(t7, t_xt, n)

        challenge = _spk_challenge(
            pk, message, (t1, t2, t3, t4, t5, t6, t7),
            (d1, d2, d3, d4, d5, d6, d7),
        )

        return KtySignature(
            t1=t1, t2=t2, t3=t3, t4=t4, t5=t5, t6=t6, t7=t7,
            challenge=challenge,
            s_e=t_e - challenge * (self.e - (1 << lengths.gamma1)),
            s_x=t_x - challenge * (self.x - (1 << lengths.lambda1)),
            s_xt=t_xt - challenge * (self.xt - (1 << lengths.lambda1)),
            s_z=t_z - challenge * (self.e * w),
            s_w=t_w - challenge * w,
            s_k=t_k - challenge * k,
            shielded=shielded,
        )

    def distinction_tag(self, shield: int) -> int:
        """The deterministic T6 this member would produce for ``shield``."""
        return mexp(shield, self.xt, self.public_key.n)

    def claim(self, signature: KtySignature,
              rng: Optional[random.Random] = None) -> "KtyClaim":
        """Claim authorship of one of this member's signatures.

        Appendix H: "(T6, T7) allows one to claim its signatures" — the
        claimer proves knowledge of ``xt`` with ``T6 = T7^xt``, without
        revealing ``xt`` and without affecting any *other* signature's
        anonymity (each unshielded signature has its own fresh T7).
        """
        if mexp(signature.t7, self.xt, self.public_key.n) != signature.t6:
            raise VerificationError("cannot claim a signature by someone else")
        return KtyClaim.create(self.public_key, signature, self.xt, rng)


# ---------------------------------------------------------------------------
# Verification.
# ---------------------------------------------------------------------------


def spk_structural_ok(pk: KtyPublicKey, signature: KtySignature,
                      expected_shield: Optional[int] = None) -> bool:
    """The cheap Verify prechecks, in their exact original order: shield
    match, response-interval checks, and range/coprimality of the seven
    T values."""
    lengths = pk.lengths
    n = pk.n
    eps, k_len = lengths.epsilon, lengths.k
    two_lp = 2 * lengths.lp

    if expected_shield is not None and signature.t7 != expected_shield % n:
        return False
    if not int_in_symmetric_range(signature.s_e, eps * (lengths.gamma2 + k_len) + 1):
        return False
    if not int_in_symmetric_range(signature.s_x, eps * (lengths.lambda2 + k_len) + 1):
        return False
    if not int_in_symmetric_range(signature.s_xt, eps * (lengths.lambda2 + k_len) + 1):
        return False
    if not int_in_symmetric_range(signature.s_z, eps * (lengths.gamma1 + two_lp + k_len + 1) + 1):
        return False
    if not int_in_symmetric_range(signature.s_w, eps * (two_lp + k_len) + 1):
        return False
    if not int_in_symmetric_range(signature.s_k, eps * (two_lp + k_len) + 1):
        return False
    for value in (signature.t1, signature.t2, signature.t3, signature.t4,
                  signature.t5, signature.t6, signature.t7):
        if not 1 <= value < n or math.gcd(value, n) != 1:
            return False
    return True


def spk_d_groups(pk: KtyPublicKey, signature: KtySignature,
                 ) -> Tuple[Tuple[Tuple[Tuple[int, int], ...],
                                  Tuple[Tuple[int, int], ...]], ...]:
    """The seven SPK reconstruction equations as ``(numerator_terms,
    denominator_terms)`` pairs of ``(base, exponent)`` tuples, in
    challenge-hash order: ``d_i = prod(num) * inverse(prod(den))``.

    The split (rather than folding denominators into negative exponents)
    preserves the verifier's exact operation pattern — one ``inverse``
    per non-empty denominator *product*, not per term — which is what
    keeps the ``inversions`` counter identical however the equations are
    evaluated (see :func:`eval_d_group`)."""
    c = signature.challenge
    lengths = pk.lengths
    se_hat = signature.s_e - c * (1 << lengths.gamma1)
    sx_hat = signature.s_x - c * (1 << lengths.lambda1)
    sxt_hat = signature.s_xt - c * (1 << lengths.lambda1)
    return (
        (((pk.a0, c), (signature.t1, se_hat)),
         ((pk.a, sx_hat), (pk.b, sxt_hat), (pk.y, signature.s_z))),
        (((signature.t2, se_hat),), ((pk.g, signature.s_z),)),
        (((signature.t2, c), (pk.g, signature.s_w)), ()),
        (((signature.t3, c), (pk.g, se_hat), (pk.h, signature.s_w)), ()),
        (((signature.t5, c), (pk.g, signature.s_k)), ()),
        (((signature.t4, c), (signature.t5, sx_hat)), ()),
        (((signature.t6, c), (signature.t7, sxt_hat)), ()),
    )


def eval_d_group(group: Tuple[Tuple[Tuple[int, int], ...],
                              Tuple[Tuple[int, int], ...]], n: int) -> int:
    """Evaluate one :func:`spk_d_groups` pair with the verifier's exact
    operation pattern: one ``mexp`` per term (negative exponents handled
    inside ``mexp``, as before), one ``inverse`` per non-empty
    denominator product."""
    numerator, denominator = group
    value = 1
    for base, exponent in numerator:
        value = (value * mexp(base, exponent, n)) % n
    if denominator:
        product = 1
        for base, exponent in denominator:
            product = (product * mexp(base, exponent, n)) % n
        value = (value * inverse(product, n)) % n
    return value


def spk_challenge(pk: KtyPublicKey, message: bytes, signature: KtySignature,
                  d_values: Tuple[int, ...]) -> int:
    """Recompute the Fiat-Shamir challenge for ``signature`` given its
    reconstructed ``d`` values."""
    return _spk_challenge(
        pk, message,
        (signature.t1, signature.t2, signature.t3, signature.t4,
         signature.t5, signature.t6, signature.t7),
        d_values,
    )


def crl_ok(pk: KtyPublicKey, signature: KtySignature,
           member_view: KtyMemberView) -> bool:
    """CRL check (KTY implicit tracing): reject revoked tracing
    trapdoors — ``T4 == T5^x`` exposes a revoked signer."""
    for tag in member_view.revoked_tags:
        if mexp(signature.t5, tag, pk.n) == signature.t4:
            return False
    return True


def verify(pk: KtyPublicKey, message: bytes, signature: KtySignature,
           member_view: KtyMemberView,
           expected_shield: Optional[int] = None) -> bool:
    """Verify a KTY signature against the member's view (CRL).

    ``expected_shield`` — in self-distinction mode, the common T7 the
    session imposes; a signature with any other T7 is rejected.
    """
    if not spk_structural_ok(pk, signature, expected_shield):
        return False
    n = pk.n
    d_values = tuple(
        eval_d_group(group, n) for group in spk_d_groups(pk, signature)
    )
    expected = spk_challenge(pk, message, signature, d_values)
    if expected != signature.challenge:
        return False
    return crl_ok(pk, signature, member_view)


@dataclass(frozen=True)
class KtyClaim:
    """NIZK proof of knowledge of ``xt`` with ``T6 = T7^xt`` for a specific
    signature — the KTY claiming operation.  The challenge binds the whole
    signature, so a claim cannot be transplanted onto another one."""

    challenge: int
    response: int

    @staticmethod
    def create(pk: KtyPublicKey, signature: KtySignature, xt: int,
               rng: Optional[random.Random] = None) -> "KtyClaim":
        rng = rng or random
        lengths = pk.lengths
        t = random_int_symmetric(
            lengths.epsilon * (lengths.lambda2 + lengths.k), rng
        )
        d = mexp(signature.t7, t, pk.n)
        challenge = hashing.hash_to_int(
            "kty-claim", lengths.k,
            pk.n, signature.t6, signature.t7, signature.challenge, d,
        )
        response = t - challenge * (xt - (1 << lengths.lambda1))
        return KtyClaim(challenge, response)

    def verify(self, pk: KtyPublicKey, signature: KtySignature) -> bool:
        lengths = pk.lengths
        if not int_in_symmetric_range(
            self.response, lengths.epsilon * (lengths.lambda2 + lengths.k) + 1
        ):
            return False
        shifted = self.response - self.challenge * (1 << lengths.lambda1)
        d = (
            mexp(signature.t6, self.challenge, pk.n)
            * mexp(signature.t7, shifted, pk.n)
        ) % pk.n
        expected = hashing.hash_to_int(
            "kty-claim", lengths.k,
            pk.n, signature.t6, signature.t7, signature.challenge, d,
        )
        return expected == self.challenge


def check_self_distinction(signatures: Sequence[KtySignature],
                           shield: int) -> bool:
    """True iff every signature uses the common shield and all T6 tags are
    pairwise distinct — i.e. all signers are distinct (Section 8.2)."""
    tags = []
    for signature in signatures:
        if signature.t7 != shield:
            return False
        tags.append(signature.t6)
    return len(set(tags)) == len(tags)
