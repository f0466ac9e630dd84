"""Multi-term modular exponentiation with fixed-base splitting (layer 1b).

ACJT signing and verification are dominated by multi-term products of
the form ``b1^e1 * b2^e2 * ... (mod n)`` (the ``d1..d8`` commitment and
reconstruction values).  Most of those terms raise *long-lived* bases —
the group public key and Pedersen bases, the accumulator value — to the
very largest exponents (the ``s3``/``s_z`` responses run to ~6x the
modulus size), which is exactly what :mod:`repro.accel.fixed_base`
windowed tables are good at: one multiply per non-zero window digit, no
squarings.  Each product is therefore split by base: while accel is
enabled, registered bases evaluate through their shared table, and
everything else (the per-signature ``T``-values, which only carry the
short challenge and ``s1_hat`` exponents) falls back to builtin ``pow``.

An earlier revision ran a pure-Python Shamir/Straus shared ladder here.
Profiling showed it *loses* to CPython's C ``pow`` on the mixed exponent
sizes these products actually contain — the shared squarings are Python
big-int multiplies, and the shortest exponent pads up to the longest —
so the ladder is gone; the split evaluation above is what made accel-on
finally beat accel-off on one core.

Every term is evaluated by :func:`repro.crypto.modmath.uncounted_pow`,
the step ``mexp`` uses too: a negative exponent is evaluated as
``b^(-e) = (b^e)^(-1)``, so a sigma response that came out negative
still lands on its base's table.

Accounting contract (the E1 invariant): a ``k``-term call charges
exactly ``k`` modexps — the number of :func:`repro.crypto.modmath.mexp`
calls it replaces — whether or not acceleration is enabled.  Each
negative term costs one :func:`repro.crypto.modmath.inverse`, mirroring
what each replaced ``mexp`` would have done, so the ``inversions`` extra
counter is also independent of the accel switch; a non-invertible base
raises :class:`repro.errors.ParameterError` before any modexp is
charged.
"""

from __future__ import annotations

from typing import Iterable, Tuple

from repro import metrics
from repro.crypto.modmath import uncounted_pow


def multi_exp(pairs: Iterable[Tuple[int, int]], modulus: int) -> int:
    """``prod(base**exp for base, exp in pairs) % modulus``, counted as
    ``len(pairs)`` modular exponentiations.

    Bit-identical to the naive per-term product for any input; the
    fixed-base tables (used only while :mod:`repro.accel` is enabled)
    change *how* each factor is reached, not the residue.
    """
    if modulus <= 0:
        raise ValueError("modulus must be positive")
    result = 1 % modulus
    terms = 0
    for base, exponent in pairs:
        result = (result * uncounted_pow(base, exponent, modulus)) % modulus
        terms += 1
    if terms:
        metrics.count_modexp(terms)
    return result
