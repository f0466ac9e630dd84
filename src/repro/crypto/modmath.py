"""Modular arithmetic helpers.

All modular exponentiations in the library go through :func:`mexp` so the
benchmark harness can count them (the paper states per-party cost in modular
exponentiations).  The remaining helpers are standard: inverses, CRT, Jacobi
symbols, modular square roots, and random units.
"""

from __future__ import annotations

import math
import random
from typing import Optional, Sequence, Tuple

from repro import metrics
from repro.errors import ParameterError


#: Optional fast path installed by :mod:`repro.accel` on import:
#: ``hook(base, exponent, modulus)`` returns the power for bases with a
#: precomputed table, or ``None`` to fall back to builtin ``pow``.  The
#: hook only ever sees non-negative exponents and runs inside
#: :func:`uncounted_pow`, so the E1 books are hook-independent.
_ACCEL_POW = None


def _install_accel_pow(hook) -> None:
    global _ACCEL_POW
    _ACCEL_POW = hook


def uncounted_pow(base: int, exponent: int, modulus: int) -> int:
    """``base ** exponent % modulus`` without charging a modexp.

    For callers that charge their own (:func:`mexp`,
    :func:`repro.accel.multi_exp.multi_exp`).  The power comes from the
    base's fixed-base table when :mod:`repro.accel` serves it, and from
    builtin ``pow`` otherwise — the same residue either way.

    A negative exponent is evaluated as ``b^(-e) = (b^e)^(-1)``: ``b^e``
    takes that same route and the result goes through :func:`inverse`,
    so the inversion is visible to the ``inversions`` counter.  Inverting
    the power rather than the base keeps a registered base on its table
    (the inverse of a registered base is not registered).  ``b^e`` is a
    unit exactly when ``b`` is, so a non-invertible base still raises
    :class:`ParameterError`.
    """
    if exponent < 0:
        return inverse(uncounted_pow(base, -exponent, modulus), modulus)
    if _ACCEL_POW is not None:
        accelerated = _ACCEL_POW(base, exponent, modulus)
        if accelerated is not None:
            return accelerated
    return pow(base, exponent, modulus)


def mexp(base: int, exponent: int, modulus: int) -> int:
    """Counted modular exponentiation; supports negative exponents for units.

    Charges one modexp, then evaluates through :func:`uncounted_pow`: a
    negative exponent costs one extra, counted, :func:`inverse` — the E1
    ledger stays honest about what the protocol actually computes.
    """
    if modulus <= 0:
        raise ParameterError("modulus must be positive")
    metrics.count_modexp()
    return uncounted_pow(base, exponent, modulus)


def inverse(a: int, modulus: int) -> int:
    """Modular inverse of ``a`` mod ``modulus``; raises if not invertible.

    Counted under the ``inversions`` extra counter: an inverse costs about
    as much as an exponentiation and the paper's cost model should not be
    able to hide them (negative-exponent ``mexp`` calls route through
    here for exactly that reason)."""
    metrics.bump("inversions")
    try:
        return pow(a, -1, modulus)
    except ValueError as exc:
        raise ParameterError(f"{a} not invertible mod {modulus}") from exc


def egcd(a: int, b: int) -> Tuple[int, int, int]:
    """Extended GCD: returns ``(g, x, y)`` with ``a*x + b*y == g``."""
    old_r, r = a, b
    old_x, x = 1, 0
    old_y, y = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_x, x = x, old_x - q * x
        old_y, y = y, old_y - q * y
    return old_r, old_x, old_y


def crt(residues: Sequence[int], moduli: Sequence[int]) -> int:
    """Chinese remainder theorem for pairwise-coprime moduli."""
    if len(residues) != len(moduli) or not residues:
        raise ParameterError("need equally many residues and moduli")
    result, modulus = residues[0] % moduli[0], moduli[0]
    for r, m in zip(residues[1:], moduli[1:]):
        g, p, _ = egcd(modulus, m)
        if g != 1:
            raise ParameterError("moduli must be pairwise coprime")
        diff = (r - result) % m
        result = result + modulus * ((diff * p) % m)
        modulus *= m
        result %= modulus
    return result


def jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a/n) for odd n > 0."""
    if n <= 0 or n % 2 == 0:
        raise ParameterError("Jacobi symbol needs odd positive n")
    a %= n
    result = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def sqrt_mod_prime(a: int, p: int) -> int:
    """A square root of ``a`` mod prime ``p`` (Tonelli-Shanks).

    Raises :class:`ParameterError` if ``a`` is a non-residue.
    """
    a %= p
    if a == 0:
        return 0
    if p == 2:
        return a
    if jacobi(a, p) != 1:
        raise ParameterError("not a quadratic residue")
    if p % 4 == 3:
        return pow(a, (p + 1) // 4, p)
    # Tonelli-Shanks for p = 1 mod 4.
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while jacobi(z, p) != -1:
        z += 1
    m, c, t, r = s, pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        t2 = t
        i = 0
        while t2 != 1:
            t2 = (t2 * t2) % p
            i += 1
            if i == m:
                raise ParameterError("not a quadratic residue")
        b = pow(c, 1 << (m - i - 1), p)
        m, c = i, (b * b) % p
        t, r = (t * c) % p, (r * b) % p
    return r


def random_unit(modulus: int, rng: Optional[random.Random] = None) -> int:
    """Uniform element of ``Z_modulus^*``.

    Rejection-samples over the full residue range ``[1, modulus)`` — every
    unit, including 1 and ``modulus - 1`` (≡ −1), must be reachable or the
    draw is not uniform over the group."""
    if modulus <= 1:
        raise ParameterError("modulus must exceed 1")
    rng = rng or random
    while True:
        candidate = rng.randrange(1, modulus)
        if math.gcd(candidate, modulus) == 1:
            return candidate


def random_qr(modulus: int, rng: Optional[random.Random] = None) -> int:
    """Random quadratic residue mod ``modulus`` (square of a random unit)."""
    u = random_unit(modulus, rng)
    return (u * u) % modulus


def int_in_symmetric_range(value: int, bits: int) -> bool:
    """True iff ``value`` lies in ``[-2^bits, 2^bits]`` (the +/-{0,1}^bits
    notation used by the ACJT signature range checks)."""
    return -(1 << bits) <= value <= (1 << bits)


def random_int_symmetric(bits: int, rng: Optional[random.Random] = None) -> int:
    """Uniform integer from ``[-(2^bits - 1), 2^bits - 1]``.

    A single draw over the whole symmetric range — the magnitude-then-sign
    construction samples 0 with double weight (+0 and −0 collapse)."""
    rng = rng or random
    return rng.randrange(-(1 << bits) + 1, 1 << bits)
