"""Multi-term modular exponentiation with fixed-base splitting (layer 1b).

ACJT signing and verification are dominated by multi-term products of
the form ``b1^e1 * b2^e2 * ... (mod n)`` (the ``d1..d8`` commitment and
reconstruction values).  Most of those terms raise *long-lived* bases —
the group public key and Pedersen bases, the accumulator value — to the
very largest exponents (the ``s3``/``s_z`` responses run to ~6x the
modulus size), which is exactly what :mod:`repro.accel.fixed_base`
windowed tables are good at: one multiply per non-zero window digit, no
squarings.  The enabled path therefore splits each product by base:
registered bases evaluate through their shared table, everything else
(the per-signature ``T``-values, which only carry the short challenge
and ``s1_hat`` exponents) falls back to builtin ``pow``.

An earlier revision ran a pure-Python Shamir/Straus shared ladder here.
Profiling showed it *loses* to CPython's C ``pow`` on the mixed exponent
sizes these products actually contain — the shared squarings are Python
big-int multiplies, and the shortest exponent pads up to the longest —
so the ladder is gone; the split evaluation above is what made accel-on
finally beat accel-off on one core.

Accounting contract (the E1 invariant): a ``k``-term call charges
exactly ``k`` modexps — the number of :func:`repro.crypto.modmath.mexp`
calls it replaces — whether or not acceleration is enabled.  Negative
exponents are normalized per-pair through
:func:`repro.crypto.modmath.inverse`, mirroring what each replaced
``mexp`` would have done, so the ``inversions`` extra counter is also
independent of the accel switch.
"""

from __future__ import annotations

from typing import Iterable, List, Tuple

from repro import metrics
from repro.accel import fixed_base, state
from repro.crypto.modmath import inverse

def multi_exp(pairs: Iterable[Tuple[int, int]], modulus: int) -> int:
    """``prod(base**exp for base, exp in pairs) % modulus``, counted as
    ``len(pairs)`` modular exponentiations.

    Bit-identical to the naive per-term product for any input; the
    fixed-base split only changes *how* the same residue is reached, and
    only runs while :mod:`repro.accel` is enabled.
    """
    if modulus <= 0:
        raise ValueError("modulus must be positive")
    terms: List[Tuple[int, int]] = []
    for base, exponent in pairs:
        if exponent < 0:
            base = inverse(base, modulus)
            exponent = -exponent
        terms.append((base % modulus, exponent))
    if not terms:
        return 1 % modulus
    metrics.count_modexp(len(terms))
    if modulus == 1:
        return 0
    if not state.is_enabled():
        result = 1
        for base, exponent in terms:
            result = (result * pow(base, exponent, modulus)) % modulus
        return result
    result = 1
    for base, exponent in terms:
        power = fixed_base.lookup_pow(base, exponent, modulus)
        if power is None:
            power = pow(base, exponent, modulus)
        result = (result * power) % modulus
    return result
