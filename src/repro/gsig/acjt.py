"""ACJT group signatures (Ateniese, Camenisch, Joye, Tsudik — CRYPTO 2000)
with dynamic-accumulator revocation (Camenisch-Lysyanskaya, CRYPTO 2002).

This is the GSIG component of the paper's first instantiation (Section 8.1,
"GSIG based on [1, 12]").

Structure
---------
* Setup: RSA modulus ``n = pq`` of safe primes; random QR(n) generators
  ``a, a0, g, h``; opening key ``y = g^theta``; accumulator for revocation;
  Pedersen bases for the accumulator membership proof.
* Join (interactive, 2 messages): the user picks membership secret
  ``x in Lambda`` and sends ``C = a^x`` with a proof of knowledge; the
  manager picks certificate prime ``e in Gamma``, computes
  ``A = (a0 * C)^{1/e} mod n`` and accumulates ``e``.  The user ends with
  credential ``(A, e, x)`` satisfying ``A^e = a0 * a^x``; the manager never
  learns ``x`` (required for no-misattribution).
* Sign: ``T1 = A y^w, T2 = g^w, T3 = g^e h^w`` plus a Fiat-Shamir SPK of
  ``(x, e, w, ew)`` with interval checks on ``x`` and ``e`` — and, fused
  under the *same challenge*, a Camenisch-Lysyanskaya proof that the very
  same ``e`` is currently accumulated (revocation check).  Sharing the
  ``s_e`` response across both sub-proofs binds the accumulated prime to
  the certificate prime, which defeats the mix-and-match attack where a
  revoked member borrows a non-revoked member's accumulator witness.
* Verify: recompute the challenge; check response intervals and the
  accumulator epoch.
* Open: ``A = T1 / T2^theta``; look up ``A`` in the membership registry.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Dict, Iterable, Optional, Sequence, Tuple

from repro import metrics
from repro.accel.fixed_base import register_base, unregister_base
from repro.accel.multi_exp import multi_exp
from repro.crypto import hashing
from repro.crypto.accumulator import (
    Accumulator,
    AccumulatorPublic,
    update_witness_after_add,
    update_witness_after_delete,
    update_witness_epoch,
    verify_witness,
)
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
    GroupSignatureScheme,
    StateUpdate,
)

_CHALLENGE_DOMAIN = "acjt-spk"
_JOIN_DOMAIN = "acjt-join-pok"


@dataclass(frozen=True)
class AcjtPublicKey:
    """Group public key pk_GM (plus accumulator-proof bases)."""

    n: int
    lengths: AcjtLengths
    a: int
    a0: int
    g: int
    h: int
    y: int
    ped_g: int
    ped_h: int


@dataclass(frozen=True)
class AcjtMemberView:
    """The member-side system state required by ``Verify``: the current
    accumulator value.  In GCD this travels to members encrypted under the
    CGKD group key, so outsiders cannot verify signatures against it."""

    acc_value: int
    acc_epoch: int


@dataclass(frozen=True)
class JoinRequest:
    """User -> manager: commitment to the membership secret plus a PoK."""

    user_id: str
    commitment: int  # C = a^x
    challenge: int
    response: int


@dataclass(frozen=True)
class JoinResponse:
    """Manager -> user: certificate, accumulator witness, current state."""

    big_a: int
    e: int
    witness: int
    acc_value: int
    acc_epoch: int


@dataclass(frozen=True)
class AcjtSignature:
    """A group signature with the fused accumulator-membership proof."""

    t1: int
    t2: int
    t3: int
    challenge: int
    s1: int  # response for e
    s2: int  # response for x
    s3: int  # response for e*w
    s4: int  # response for w
    c_e: int  # Pedersen commitment to e (accumulator binding)
    c_u: int  # blinded accumulator witness
    c_r: int
    s_r1: int
    s_r2: int
    s_r3: int
    s_z: int
    s_w3: int
    acc_epoch: int


def _spk_challenge(pk: AcjtPublicKey, acc_value: int, message: bytes,
                   t1: int, t2: int, t3: int, c_e: int, c_u: int, c_r: int,
                   d_values: Tuple[int, ...]) -> int:
    return hashing.hash_to_int(
        _CHALLENGE_DOMAIN, pk.lengths.k,
        pk.n, pk.a, pk.a0, pk.g, pk.h, pk.y, pk.ped_g, pk.ped_h,
        acc_value, message, t1, t2, t3, c_e, c_u, c_r, tuple(d_values),
    )


# ---------------------------------------------------------------------------
# Join protocol (user side).
# ---------------------------------------------------------------------------


def begin_join(pk: AcjtPublicKey, user_id: str,
               rng: Optional[random.Random] = None) -> Tuple[JoinRequest, int]:
    """User step 1: pick x in Lambda, commit C = a^x, prove knowledge.

    Returns ``(request, x)``; the caller keeps ``x`` secret.
    """
    rng = rng or random
    lengths = pk.lengths
    x = rng.randrange(lengths.x_low + 1, lengths.x_high)
    commitment = mexp(pk.a, x, pk.n)
    t = random_int_symmetric(lengths.epsilon * (lengths.lambda2 + lengths.k), rng)
    d = mexp(pk.a, t, pk.n)
    challenge = hashing.hash_to_int(
        _JOIN_DOMAIN, lengths.k, pk.n, pk.a, user_id, commitment, d
    )
    response = t - challenge * (x - (1 << lengths.lambda1))
    return JoinRequest(user_id, commitment, challenge, response), x


def _verify_join_request(pk: AcjtPublicKey, request: JoinRequest) -> bool:
    lengths = pk.lengths
    if not int_in_symmetric_range(
        request.response, lengths.epsilon * (lengths.lambda2 + lengths.k) + 1
    ):
        return False
    if not 1 < request.commitment < pk.n:
        return False
    shifted = request.response - request.challenge * (1 << lengths.lambda1)
    d = multi_exp(
        ((request.commitment, request.challenge), (pk.a, shifted)), pk.n
    )
    expected = hashing.hash_to_int(
        _JOIN_DOMAIN, lengths.k, pk.n, pk.a, request.user_id, request.commitment, d
    )
    return expected == request.challenge


def finish_join(pk: AcjtPublicKey, user_id: str, x: int,
                response: JoinResponse) -> "AcjtCredential":
    """User step 2: validate the certificate and build the credential."""
    lhs = mexp(response.big_a, response.e, pk.n)
    rhs = (pk.a0 * mexp(pk.a, x, pk.n)) % pk.n
    if lhs != rhs:
        raise VerificationError("manager issued an invalid ACJT certificate")
    if not pk.lengths.e_low < response.e < pk.lengths.e_high:
        raise VerificationError("certificate prime outside Gamma")
    # The accumulator value is a fixed base for the whole epoch (it
    # anchors d6 in every Verify) — warm it for the accel tables.
    register_base(response.acc_value, pk.n)
    return AcjtCredential(
        public_key=pk,
        user_id=user_id,
        big_a=response.big_a,
        e=response.e,
        x=x,
        witness=response.witness,
        acc_value=response.acc_value,
        acc_epoch=response.acc_epoch,
    )


# ---------------------------------------------------------------------------
# Manager.
# ---------------------------------------------------------------------------


@dataclass
class _MemberRecord:
    user_id: str
    big_a: int
    e: int
    revoked: bool = False


class AcjtManager(GroupSignatureManager):
    """GM: admits members, revokes via the accumulator, opens signatures."""

    def __init__(self, profile: str = "tiny",
                 rng: Optional[random.Random] = None) -> None:
        rng = rng or random
        self._lengths = acjt_profile(profile)
        self._group = RsaGroup.from_precomputed(self._lengths.lp)
        a, a0, g, h, ped_g, ped_h = generators(self._group, 6, rng)
        self._theta = rng.randrange(1, self._group.n // 4)
        y = self._group.exp(g, self._theta)
        self._pk = AcjtPublicKey(
            n=self._group.n, lengths=self._lengths,
            a=a, a0=a0, g=g, h=h, y=y, ped_g=ped_g, ped_h=ped_h,
        )
        # These bases are exponentiated for the lifetime of the group —
        # mark them for repro.accel's fixed-base precomputation tables.
        for base in (a, a0, g, h, y, ped_g, ped_h):
            register_base(base, self._group.n)
        self._accumulator = Accumulator(self._group, rng)
        # Epoch -> accumulator value, so Open can verify signatures made
        # under older system states (tracing must survive later rekeys).
        self._acc_history: Dict[int, int] = {
            self._accumulator.epoch: self._accumulator.value
        }
        self._members: Dict[str, _MemberRecord] = {}
        self._by_big_a: Dict[int, str] = {}
        self._rng = rng

    # Interface ---------------------------------------------------------------

    @property
    def public_key(self) -> AcjtPublicKey:
        return self._pk

    @property
    def lengths(self) -> AcjtLengths:
        return self._lengths

    def member_view(self) -> AcjtMemberView:
        """Current member-side verification state."""
        return AcjtMemberView(
            acc_value=self._accumulator.value,
            acc_epoch=self._accumulator.epoch,
        )

    def admit(self, request: JoinRequest) -> Tuple[JoinResponse, StateUpdate]:
        """Manager side of Join: verify the PoK, issue (A, e), accumulate e."""
        if request.user_id in self._members:
            raise MembershipError(f"{request.user_id} already joined")
        if not _verify_join_request(self._pk, request):
            raise VerificationError("join request proof rejected")
        lengths = self._lengths
        while True:
            e = random_prime_in_interval(lengths.e_low, lengths.e_high, self._rng)
            if self._group.coprime_to_order(e) and not self._accumulator.contains(e):
                break
        e_inverse = self._group.invert_exponent(e)
        base = (self._pk.a0 * request.commitment) % self._pk.n
        big_a = self._group.exp(base, e_inverse)
        witness = self._accumulator.add(e)
        self._acc_history[self._accumulator.epoch] = self._accumulator.value
        self._members[request.user_id] = _MemberRecord(request.user_id, big_a, e)
        self._by_big_a[big_a] = request.user_id
        response = JoinResponse(
            big_a=big_a, e=e, witness=witness,
            acc_value=self._accumulator.value,
            acc_epoch=self._accumulator.epoch,
        )
        update = StateUpdate(
            epoch=self._accumulator.epoch,
            kind="join",
            payload={"added_e": e, "acc_value": self._accumulator.value},
        )
        return response, update

    def join(self, user_id: str, rng=None) -> Tuple["AcjtCredential", StateUpdate]:
        """Convenience one-call Join running both protocol sides locally."""
        request, x = begin_join(self._pk, user_id, rng or self._rng)
        response, update = self.admit(request)
        return finish_join(self._pk, user_id, x, response), update

    def revoke(self, user_id: str) -> StateUpdate:
        record = self._members.get(user_id)
        if record is None:
            raise MembershipError(f"unknown member {user_id}")
        if record.revoked:
            raise RevocationError(f"{user_id} already revoked")
        self._accumulator.delete(record.e)
        self._acc_history[self._accumulator.epoch] = self._accumulator.value
        record.revoked = True
        return StateUpdate(
            epoch=self._accumulator.epoch,
            kind="revoke",
            payload={"deleted_e": record.e, "acc_value": self._accumulator.value},
        )

    def revoke_batch(self, user_ids: Sequence[str]) -> StateUpdate:
        """Revoke a whole epoch's worth of members with ONE accumulator
        trapdoor exponentiation (product of the deleted primes) and ONE
        epoch bump.  Returns a ``kind="epoch"`` update carrying the full
        delta so members apply a single coalesced witness update."""
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
        primes = tuple(record.e for record in records)
        self._accumulator.delete_batch(primes)
        self._acc_history[self._accumulator.epoch] = self._accumulator.value
        for record in records:
            record.revoked = True
        return StateUpdate(
            epoch=self._accumulator.epoch,
            kind="epoch",
            payload={"deleted": primes, "acc_value": self._accumulator.value},
        )

    def fresh_witness(self, user_id: str) -> int:
        """Manager-assisted witness reissue (lazy-refresh fallback): one
        trapdoor modexp hands a returning member a current witness no
        matter how many epochs it slept through."""
        record = self._members.get(user_id)
        if record is None:
            raise MembershipError(f"unknown member {user_id}")
        if record.revoked:
            raise RevocationError(f"{user_id} has been revoked")
        return self._accumulator.issue_witness(record.e)

    def open(self, message: bytes, signature: AcjtSignature) -> Optional[str]:
        """Recover the signer: A = T1 / T2^theta, then registry lookup.

        Opens only structurally valid signatures (Fig. 3: Open runs Verify
        first).  Verification uses the accumulator value at the signature's
        epoch so that older transcripts stay traceable after later rekeys —
        the paper's point that traceability remains valuable "for
        investigating activities of group members before they become
        corrupt"."""
        acc_value = self._acc_history.get(signature.acc_epoch)
        if acc_value is None:
            return None
        view = AcjtMemberView(acc_value=acc_value, acc_epoch=signature.acc_epoch)
        if not verify(self._pk, message, signature, view):
            return None
        big_a = (
            signature.t1
            * inverse(self._group.exp(signature.t2, self._theta), self._pk.n)
        ) % self._pk.n
        return self._by_big_a.get(big_a)

    def is_member(self, user_id: str) -> bool:
        record = self._members.get(user_id)
        return record is not None and not record.revoked

    def certificate_prime(self, user_id: str) -> int:
        """The e issued to ``user_id`` (manager bookkeeping, used by tests)."""
        record = self._members.get(user_id)
        if record is None:
            raise MembershipError(f"unknown member {user_id}")
        return record.e


# ---------------------------------------------------------------------------
# Member credential.
# ---------------------------------------------------------------------------


@dataclass
class AcjtCredential(GroupMemberCredential):
    """Member secrets plus the evolving accumulator witness."""

    public_key: AcjtPublicKey
    user_id: str
    big_a: int
    e: int
    x: int = field(repr=False)
    witness: int = field(repr=False)
    acc_value: int
    acc_epoch: int
    revoked: bool = False

    def apply_update(self, update: StateUpdate) -> None:
        """Fig. 3 Update: refresh the accumulator witness.

        Idempotent against replays: board posts carry strictly increasing
        accumulator epochs, so an update at or below this credential's
        epoch has already been absorbed (e.g. by a lazy refresh that ran
        ahead of the board cursor) and is skipped — re-applying a witness
        update would corrupt the witness.

        Also rotates the warm-rejoin verification material: the old
        accumulator value's fixed-base table can never serve a current
        verification again (epoch mismatch rejects first), so it is
        dropped and the new value registered in its place."""
        if update.epoch <= self.acc_epoch:
            return
        n = self.public_key.n
        if update.kind == "join":
            added = update.payload["added_e"]
            if added != self.e:
                self.witness = update_witness_after_add(self.witness, added, n)
            new_value = update.payload["acc_value"]
        elif update.kind == "revoke":
            deleted = update.payload["deleted_e"]
            new_value = update.payload["acc_value"]
            if deleted == self.e:
                self.revoked = True
            else:
                self.witness = update_witness_after_delete(
                    self.witness, self.e, deleted, new_value, n
                )
        elif update.kind == "epoch":
            deleted = tuple(update.payload["deleted"])
            new_value = update.payload["acc_value"]
            metrics.bump("rev:delta-applies")
            if self.e in deleted:
                self.revoked = True
            else:
                self.witness = update_witness_epoch(
                    self.witness, self.e, (), deleted, new_value, n
                )
        else:
            raise ParameterError(f"unknown update kind {update.kind!r}")
        if new_value != self.acc_value:
            unregister_base(self.acc_value, n)
            register_base(new_value, n)
        self.acc_value = new_value
        self.acc_epoch = update.epoch

    def apply_epochs(self, deltas: Iterable) -> int:
        """Lazy refresh: coalesce a replayed delta log into ONE witness
        update and ONE warm-rejoin base rotation.

        ``deltas`` is an epoch-ordered iterable of records with ``epoch``,
        ``added``, ``deleted`` and ``acc_value`` attributes (the revocation
        service's delta log).  Entries at or below the credential's epoch
        are skipped.  Returns the number of epochs absorbed; costs at most
        3 modexps + 1 egcd total (vs 1 modexp per missed add and 2 per
        missed delete replayed one by one) and rotates the fixed-base
        table once, not once per missed epoch."""
        added: list = []
        deleted: list = []
        new_value = self.acc_value
        last_epoch = self.acc_epoch
        applied = 0
        for delta in deltas:
            if delta.epoch <= last_epoch:
                continue
            added.extend(e for e in delta.added if e != self.e)
            deleted.extend(delta.deleted)
            new_value = delta.acc_value
            last_epoch = delta.epoch
            applied += 1
        if not applied:
            return 0
        n = self.public_key.n
        metrics.bump("rev:lazy-epochs-coalesced", applied)
        if self.e in deleted:
            self.revoked = True
        else:
            self.witness = update_witness_epoch(
                self.witness, self.e, added, deleted, new_value, n
            )
        if new_value != self.acc_value:
            unregister_base(self.acc_value, n)
            register_base(new_value, n)
        self.acc_value = new_value
        self.acc_epoch = last_epoch
        return applied

    def install_fresh_witness(self, witness: int, acc_value: int,
                              acc_epoch: int) -> None:
        """Adopt a manager-reissued witness (lazy-refresh fallback past the
        delta-log horizon), rotating the warm-rejoin base exactly once."""
        n = self.public_key.n
        public = AccumulatorPublic(n, acc_value, acc_epoch)
        if not verify_witness(public, witness, self.e):
            raise VerificationError("reissued witness does not open the accumulator")
        self.witness = witness
        if acc_value != self.acc_value:
            unregister_base(self.acc_value, n)
            register_base(acc_value, n)
        self.acc_value = acc_value
        self.acc_epoch = acc_epoch

    def witness_is_current(self) -> bool:
        public = AccumulatorPublic(self.public_key.n, self.acc_value, self.acc_epoch)
        return verify_witness(public, self.witness, self.e)

    def sign(self, message: bytes,
             rng: Optional[random.Random] = None) -> AcjtSignature:
        """ACJT Sign with the fused accumulator-membership proof."""
        if self.revoked:
            raise RevocationError("credential has been revoked")
        rng = rng or random
        pk = self.public_key
        n, lengths = pk.n, pk.lengths
        eps, k = lengths.epsilon, lengths.k
        two_lp = 2 * lengths.lp

        w = rng.getrandbits(two_lp)
        t1 = (self.big_a * mexp(pk.y, w, n)) % n
        t2 = mexp(pk.g, w, n)
        t3 = multi_exp(((pk.g, self.e), (pk.h, w)), n)

        # Accumulator blinding.
        r1 = rng.randrange(1, n // 4)
        r2 = rng.randrange(1, n // 4)
        r3 = rng.randrange(1, n // 4)
        c_e = multi_exp(((pk.ped_g, self.e), (pk.ped_h, r1)), n)
        c_u = (self.witness * mexp(pk.ped_h, r2, n)) % n
        c_r = multi_exp(((pk.ped_g, r2), (pk.ped_h, r3)), n)
        z = self.e * r2
        w3 = self.e * r3

        ln = n.bit_length()
        t_e = random_int_symmetric(eps * (lengths.gamma2 + k), rng)
        t_x = random_int_symmetric(eps * (lengths.lambda2 + k), rng)
        t_z = random_int_symmetric(eps * (lengths.gamma1 + two_lp + k + 1), rng)
        t_w = random_int_symmetric(eps * (two_lp + k), rng)
        t_r1 = random_int_symmetric(eps * (ln + k), rng)
        t_r2 = random_int_symmetric(eps * (ln + k), rng)
        t_r3 = random_int_symmetric(eps * (ln + k), rng)
        t_az = random_int_symmetric(eps * (lengths.gamma1 + ln + k + 1), rng)
        t_w3 = random_int_symmetric(eps * (lengths.gamma1 + ln + k + 1), rng)

        d1 = multi_exp(((t1, t_e), (pk.a, -t_x), (pk.y, -t_z)), n)
        d2 = multi_exp(((t2, t_e), (pk.g, -t_z)), n)
        d3 = mexp(pk.g, t_w, n)
        d4 = multi_exp(((pk.g, t_e), (pk.h, t_w)), n)
        d5 = multi_exp(((pk.ped_g, t_e), (pk.ped_h, t_r1)), n)
        d6 = multi_exp(((c_u, t_e), (pk.ped_h, -t_az)), n)
        d7 = multi_exp(((pk.ped_g, t_r2), (pk.ped_h, t_r3)), n)
        d8 = multi_exp(((c_r, t_e), (pk.ped_g, -t_az), (pk.ped_h, -t_w3)), n)

        challenge = _spk_challenge(
            pk, self.acc_value, message, t1, t2, t3, c_e, c_u, c_r,
            (d1, d2, d3, d4, d5, d6, d7, d8),
        )

        return AcjtSignature(
            t1=t1, t2=t2, t3=t3, challenge=challenge,
            s1=t_e - challenge * (self.e - (1 << lengths.gamma1)),
            s2=t_x - challenge * (self.x - (1 << lengths.lambda1)),
            s3=t_z - challenge * (self.e * w),
            s4=t_w - challenge * w,
            c_e=c_e, c_u=c_u, c_r=c_r,
            s_r1=t_r1 - challenge * r1,
            s_r2=t_r2 - challenge * r2,
            s_r3=t_r3 - challenge * r3,
            s_z=t_az - challenge * z,
            s_w3=t_w3 - challenge * w3,
            acc_epoch=self.acc_epoch,
        )


# ---------------------------------------------------------------------------
# Verification.
# ---------------------------------------------------------------------------


def spk_structural_ok(pk: AcjtPublicKey, signature: AcjtSignature,
                      member_view: AcjtMemberView) -> bool:
    """The cheap Verify prechecks, in their exact original order: epoch
    match, response-interval checks, and range/coprimality of the group
    elements."""
    lengths = pk.lengths
    n = pk.n
    eps, k = lengths.epsilon, lengths.k
    two_lp = 2 * lengths.lp

    if signature.acc_epoch != member_view.acc_epoch:
        return False
    if not int_in_symmetric_range(signature.s1, eps * (lengths.gamma2 + k) + 1):
        return False
    if not int_in_symmetric_range(signature.s2, eps * (lengths.lambda2 + k) + 1):
        return False
    if not int_in_symmetric_range(signature.s3, eps * (lengths.gamma1 + two_lp + k + 1) + 1):
        return False
    if not int_in_symmetric_range(signature.s4, eps * (two_lp + k) + 1):
        return False
    for value in (signature.t1, signature.t2, signature.t3,
                  signature.c_e, signature.c_u, signature.c_r):
        if not 1 <= value < n or math.gcd(value, n) != 1:
            return False
    return True


def spk_d_terms(pk: AcjtPublicKey, signature: AcjtSignature,
                member_view: AcjtMemberView,
                ) -> Tuple[Tuple[Tuple[int, int], ...], ...]:
    """The eight SPK reconstruction equations as ``(base, exponent)``
    term tuples: ``d_i = prod(base**exp) mod n`` for each tuple, in
    challenge-hash order.

    Every large exponent (``s3``/``s_z``/``s_w3``, ``s2_hat``) attaches
    to a *fixed* base (``a, y, g, h, ped_g, ped_h``, the accumulator
    value), which is what lets shared fixed-base tables evaluate a whole
    room's signatures; the per-signature bases only carry the short
    ``c`` and ``s1_hat``.
    """
    c = signature.challenge
    lengths = pk.lengths
    s1_hat = signature.s1 - c * (1 << lengths.gamma1)
    s2_hat = signature.s2 - c * (1 << lengths.lambda1)
    return (
        ((pk.a0, c), (signature.t1, s1_hat),
         (pk.a, -s2_hat), (pk.y, -signature.s3)),
        ((signature.t2, s1_hat), (pk.g, -signature.s3)),
        ((signature.t2, c), (pk.g, signature.s4)),
        ((signature.t3, c), (pk.g, s1_hat), (pk.h, signature.s4)),
        ((signature.c_e, c), (pk.ped_g, s1_hat),
         (pk.ped_h, signature.s_r1)),
        ((member_view.acc_value, c), (signature.c_u, s1_hat),
         (pk.ped_h, -signature.s_z)),
        ((signature.c_r, c), (pk.ped_g, signature.s_r2),
         (pk.ped_h, signature.s_r3)),
        ((signature.c_r, s1_hat), (pk.ped_g, -signature.s_z),
         (pk.ped_h, -signature.s_w3)),
    )


def spk_challenge(pk: AcjtPublicKey, acc_value: int, message: bytes,
                  signature: AcjtSignature,
                  d_values: Tuple[int, ...]) -> int:
    """Recompute the Fiat-Shamir challenge for ``signature`` given its
    reconstructed ``d`` values."""
    return _spk_challenge(
        pk, acc_value, message,
        signature.t1, signature.t2, signature.t3,
        signature.c_e, signature.c_u, signature.c_r,
        d_values,
    )


def verify(pk: AcjtPublicKey, message: bytes, signature: AcjtSignature,
           member_view: AcjtMemberView) -> bool:
    """Verify an ACJT signature against the member's current system view."""
    if not spk_structural_ok(pk, signature, member_view):
        return False
    n = pk.n
    d_values = tuple(
        multi_exp(terms, n)
        for terms in spk_d_terms(pk, signature, member_view)
    )
    expected = spk_challenge(pk, member_view.acc_value, message,
                             signature, d_values)
    return expected == signature.challenge


class AcjtScheme(GroupSignatureScheme):
    """Factory conforming to :class:`GroupSignatureScheme`."""

    name = "acjt"

    def __init__(self, profile: str = "tiny") -> None:
        self._profile = profile

    def setup(self, rng=None) -> AcjtManager:
        return AcjtManager(self._profile, rng)

    def verify(self, public_key: AcjtPublicKey, message: bytes,
               signature: AcjtSignature, member_state=None) -> bool:
        if member_state is None:
            raise ParameterError("ACJT verification needs the member view")
        return verify(public_key, message, signature, member_state)
