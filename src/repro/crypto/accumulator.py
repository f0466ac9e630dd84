"""Camenisch-Lysyanskaya dynamic accumulator (CRYPTO 2002).

The paper's Section 3 observes that group-signature revocation is "usually
based on dynamic accumulators [12]"; scheme 1 therefore revokes GSIG
credentials through this accumulator.  An accumulator value ``v`` in QR(n)
absorbs a set of primes {e_i}; each member holds a witness ``w`` with
``w^{e_i} = v (mod n)``.

Operations:

* ``add(e)``      — v' = v^e; every existing witness updates as w' = w^e.
* ``delete(e)``   — v' = v^{1/e mod p'q'} (manager, with trapdoor); every
  remaining member updates its witness *without* the trapdoor via the
  Bezout identity a*e_del + b*e_mine = 1:  w' = w^a * v'^b.
* ``verify``      — w^e == v.
* :class:`AccumulatorMembershipProof` — zero-knowledge proof of knowledge of
  a witness for a *committed* value (so a group signature can prove
  "my certificate prime is currently accumulated" without revealing it).

The ZK proof follows the Camenisch-Lysyanskaya commitment technique: blind
the witness as ``Cu = w * h^{r2}``, publish auxiliary commitment
``Cr = g^{r2} h^{r3}``, and prove consistency of the exponents with a
Fiat-Shamir proof over the hidden-order group, including an interval check
on the certificate prime.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Dict, Iterable, Optional, Sequence

from repro.crypto import hashing
from repro.crypto.commitments import IntegerPedersenScheme
from repro.crypto.modmath import egcd, int_in_symmetric_range, mexp, random_int_symmetric
from repro.crypto.params import AcjtLengths
from repro.crypto.rsa import RsaGroup
from repro.errors import ParameterError, RevocationError


@dataclass(frozen=True)
class AccumulatorPublic:
    """Everything a verifier needs: the modulus and the current value."""

    n: int
    value: int
    epoch: int


class Accumulator:
    """Manager-side dynamic accumulator (holds the trapdoor)."""

    def __init__(self, group: RsaGroup, rng: Optional[random.Random] = None) -> None:
        if not group.has_trapdoor:
            raise ParameterError("accumulator manager needs the RSA trapdoor")
        self._group = group
        self._value = group.random_generator(rng)
        self._members: Dict[int, int] = {}  # prime -> epoch added
        self._epoch = 0

    # Introspection ----------------------------------------------------------

    @property
    def group(self) -> RsaGroup:
        return self._group

    @property
    def value(self) -> int:
        return self._value

    @property
    def epoch(self) -> int:
        return self._epoch

    def public(self) -> AccumulatorPublic:
        return AccumulatorPublic(n=self._group.n, value=self._value, epoch=self._epoch)

    def contains(self, e: int) -> bool:
        return e in self._members

    def __len__(self) -> int:
        return len(self._members)

    # Mutation ----------------------------------------------------------------

    def add(self, e: int) -> int:
        """Accumulate prime ``e``; returns the *witness* for ``e`` (the value
        before this addition, exponentiated by everything added since — which
        at add time is simply the pre-add value)."""
        self._check_prime(e)
        if e in self._members:
            raise RevocationError(f"{e} already accumulated")
        witness = self._value
        self._value = self._group.exp(self._value, e)
        self._members[e] = self._epoch
        self._epoch += 1
        return witness

    def delete(self, e: int) -> None:
        """Remove prime ``e`` using the trapdoor: v' = v^{1/e}."""
        if e not in self._members:
            raise RevocationError(f"{e} not accumulated")
        inv = self._group.invert_exponent(e)
        self._value = self._group.exp(self._value, inv)
        del self._members[e]
        self._epoch += 1

    def delete_batch(self, primes: Sequence[int]) -> None:
        """Remove a whole revocation epoch's primes with ONE trapdoor
        exponentiation: v' = v^{1/(e_1*...*e_k) mod p'q'}.

        This is the manager side of batched epoch rekey — k sequential
        :meth:`delete` calls cost k modexps, the batch costs exactly one
        (plus one egcd for the inverted exponent), and the whole batch
        advances the epoch counter by a single step so members can apply
        one coalesced witness update per epoch.
        """
        batch = list(primes)
        if not batch:
            raise RevocationError("empty revocation batch")
        if len(set(batch)) != len(batch):
            raise RevocationError("duplicate prime in revocation batch")
        for e in batch:
            if e not in self._members:
                raise RevocationError(f"{e} not accumulated")
        product = math.prod(batch)
        inv = self._group.invert_exponent(product)
        self._value = self._group.exp(self._value, inv)
        for e in batch:
            del self._members[e]
        self._epoch += 1

    def issue_witness(self, e: int) -> int:
        """Fresh witness for an accumulated prime via the trapdoor:
        w = v^{1/e}.  One modexp regardless of how many epochs the member
        slept through — the manager-assisted fallback of lazy refresh."""
        if e not in self._members:
            raise RevocationError(f"{e} not accumulated")
        inv = self._group.invert_exponent(e)
        return self._group.exp(self._value, inv)

    def _check_prime(self, e: int) -> None:
        if e < 3 or e % 2 == 0:
            raise ParameterError("accumulated values must be odd primes >= 3")
        if not self._group.coprime_to_order(e):
            raise ParameterError("prime shares a factor with the group order")

    # Verification -------------------------------------------------------------

    def verify_witness(self, witness: int, e: int) -> bool:
        return verify_witness(self.public(), witness, e)


def verify_witness(public: AccumulatorPublic, witness: int, e: int) -> bool:
    """Public check: witness^e == value (mod n)."""
    if not 1 < witness < public.n:
        return False
    return pow(witness, e, public.n) == public.value


def update_witness_after_add(witness: int, added_e: int, n: int) -> int:
    """Member-side witness refresh after another prime was accumulated.

    Counted through :func:`mexp` so the witness-maintenance books are as
    honest as the handshake books (one modexp per missed addition)."""
    return mexp(witness, added_e, n)


def update_witness_after_delete(
    witness: int, own_e: int, deleted_e: int, new_value: int, n: int
) -> int:
    """Member-side witness refresh after ``deleted_e`` was removed.

    Uses Bezout: a*deleted_e + b*own_e = 1, then  w' = w^a * v'^b.
    Exactly two counted modexps (negative Bezout coefficients route
    through the counted inversion inside :func:`mexp`).
    """
    g, a, b = egcd(deleted_e, own_e)
    if g != 1:
        raise ParameterError("accumulated primes must be distinct (gcd != 1)")
    return (mexp(witness, a, n) * mexp(new_value, b, n)) % n


def update_witness_epoch(
    witness: int,
    own_e: int,
    added: Iterable[int],
    deleted: Iterable[int],
    new_value: int,
    n: int,
) -> int:
    """Coalesced member-side witness update across one or more epochs.

    ``added``/``deleted`` are every prime accumulated/removed since this
    witness was last current (own prime excluded from ``added``), and
    ``new_value`` the accumulator value after all of them.  Let
    P_A = prod(added) and P_D = prod(deleted); then

        w1 = w^{P_A}                        (absorb the additions)
        a*P_D + b*own_e = 1   (Bezout)      (batched deletion update)
        w' = w1^a * new_value^b

    Correct for any interleaving because  w1^e = v_old^{P_A} = v'^{P_D},
    so  w'^e = v'^{a*P_D + b*e} = v'.  Cost: at most THREE counted
    modexps + one egcd no matter how many epochs were missed — the
    member-side half of the batched-epoch revocation cost model (a
    sequential replay pays 1 modexp per add plus 2 per delete).
    """
    add_product = math.prod(added, start=1)
    del_product = math.prod(deleted, start=1)
    if del_product % own_e == 0:
        raise ParameterError("cannot update a witness for a deleted prime")
    if add_product != 1:
        witness = mexp(witness, add_product, n)
    if del_product == 1:
        return witness
    g, a, b = egcd(del_product, own_e)
    if g != 1:
        raise ParameterError("accumulated primes must be distinct (gcd != 1)")
    return (mexp(witness, a, n) * mexp(new_value, b, n)) % n


@dataclass(frozen=True)
class AccumulatorMembershipProof:
    """NIZK proof of knowledge of (e, w) with w^e = v and e in the ACJT
    certificate interval, bound to the Pedersen commitment ``c_e`` to e."""

    c_e: int
    c_u: int
    c_r: int
    challenge: int
    s_e: int
    s_r1: int
    s_r2: int
    s_r3: int
    s_z: int
    s_w3: int

    @staticmethod
    def create(
        public: AccumulatorPublic,
        pedersen: IntegerPedersenScheme,
        lengths: AcjtLengths,
        e: int,
        witness: int,
        context: bytes = b"",
        rng: Optional[random.Random] = None,
    ) -> "AccumulatorMembershipProof":
        rng = rng or random
        n = public.n
        g, h = pedersen.g, pedersen.h
        if pow(witness, e, n) != public.value:
            raise ParameterError("witness does not open the accumulator")

        r1 = pedersen.group.random_qr_exponent(rng)
        r2 = pedersen.group.random_qr_exponent(rng)
        r3 = pedersen.group.random_qr_exponent(rng)
        c_e = pedersen.commit_with(e, r1)
        c_u = (witness * pow(h, r2, n)) % n
        c_r = pedersen.commit_with(r2, r3)
        z = e * r2
        w3 = e * r3

        ln = n.bit_length()
        eps, k = lengths.epsilon, lengths.k
        t_e = random_int_symmetric(eps * (lengths.gamma2 + k), rng)
        t_r1 = random_int_symmetric(eps * (ln + k), rng)
        t_r2 = random_int_symmetric(eps * (ln + k), rng)
        t_r3 = random_int_symmetric(eps * (ln + k), rng)
        t_z = random_int_symmetric(eps * (lengths.gamma1 + ln + k + 1), rng)
        t_w3 = random_int_symmetric(eps * (lengths.gamma1 + ln + k + 1), rng)

        def gexp(base: int, exponent: int) -> int:
            return mexp(base, exponent, n)

        d1 = (gexp(g, t_e) * gexp(h, t_r1)) % n
        d2 = (gexp(c_u, t_e) * gexp(h, -t_z)) % n
        d3 = (gexp(g, t_r2) * gexp(h, t_r3)) % n
        d4 = (gexp(c_r, t_e) * gexp(g, -t_z) * gexp(h, -t_w3)) % n

        challenge = hashing.hash_to_int(
            "cl-accumulator", k,
            n, public.value, g, h, c_e, c_u, c_r, d1, d2, d3, d4, context,
        )

        return AccumulatorMembershipProof(
            c_e=c_e,
            c_u=c_u,
            c_r=c_r,
            challenge=challenge,
            s_e=t_e - challenge * (e - (1 << lengths.gamma1)),
            s_r1=t_r1 - challenge * r1,
            s_r2=t_r2 - challenge * r2,
            s_r3=t_r3 - challenge * r3,
            s_z=t_z - challenge * z,
            s_w3=t_w3 - challenge * w3,
        )

    def verify(
        self,
        public: AccumulatorPublic,
        pedersen: IntegerPedersenScheme,
        lengths: AcjtLengths,
        context: bytes = b"",
    ) -> bool:
        n = public.n
        g, h = pedersen.g, pedersen.h
        eps, k = lengths.epsilon, lengths.k

        if not int_in_symmetric_range(self.s_e, eps * (lengths.gamma2 + k) + 1):
            return False
        for value in (self.c_e, self.c_u, self.c_r):
            if not 1 <= value < n or math.gcd(value, n) != 1:
                return False

        c = self.challenge
        se_hat = self.s_e - c * (1 << lengths.gamma1)

        def gexp(base: int, exponent: int) -> int:
            return mexp(base, exponent, n)

        d1 = (gexp(self.c_e, c) * gexp(g, se_hat) * gexp(h, self.s_r1)) % n
        d2 = (gexp(public.value, c) * gexp(self.c_u, se_hat) * gexp(h, -self.s_z)) % n
        d3 = (gexp(self.c_r, c) * gexp(g, self.s_r2) * gexp(h, self.s_r3)) % n
        d4 = (gexp(self.c_r, se_hat) * gexp(g, -self.s_z) * gexp(h, -self.s_w3)) % n

        expected = hashing.hash_to_int(
            "cl-accumulator", k,
            n, public.value, g, h, self.c_e, self.c_u, self.c_r,
            d1, d2, d3, d4, context,
        )
        return expected == c
