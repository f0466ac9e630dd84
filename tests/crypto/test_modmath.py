"""Property tests for the modular-arithmetic helpers."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import metrics
from repro.accel import fixed_base, state
from repro.crypto import modmath
from repro.crypto.primes import is_prime, next_prime
from repro.errors import ParameterError

_PRIMES = [101, 257, 7919, (1 << 61) - 1]
#: Exponents of either sign, out to the ~3000-bit SPK response size.
_SIGNED_EXPONENTS = st.integers(min_value=-(1 << 3000), max_value=1 << 3000)
#: ``(modulus, base)`` pairs where the base is a zero divisor.
_ZERO_DIVISORS = st.sampled_from([(7919 * 101, 101), (1 << 96, 6), (15, 10)])


class TestMexp:
    def test_basic(self):
        assert modmath.mexp(2, 10, 1000) == 24

    def test_negative_exponent(self):
        p = 101
        x = modmath.mexp(5, -1, p)
        assert (5 * x) % p == 1

    def test_negative_exponent_general(self):
        p = 7919
        assert modmath.mexp(3, -5, p) == pow(pow(3, -1, p), 5, p)

    def test_bad_modulus(self):
        with pytest.raises(ParameterError):
            modmath.mexp(2, 3, 0)

    @given(st.integers(min_value=2, max_value=10**6),
           st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=50)
    def test_matches_pow(self, base, exp):
        assert modmath.mexp(base, exp, 7919) == pow(base, exp, 7919)


def _counted_mexp(base, exponent, modulus, enabled):
    """``(value or ParameterError, modexp, inversions, table lookups)``
    of one ``mexp`` call with ``(base, modulus)`` registered."""
    state.configure(enabled=enabled)
    fixed_base.register_base(base, modulus)
    rec = metrics.Recorder()
    try:
        with metrics.using(rec):
            try:
                value = modmath.mexp(base, exponent, modulus)
            except ParameterError:
                value = ParameterError
    finally:
        fixed_base.unregister_base(base, modulus)
        state.configure(enabled=False)
    total = rec.total()
    return (value, total.modexp, total.extra.get("inversions", 0),
            total.extra.get("accel:fb-hit", 0)
            + total.extra.get("accel:fb-miss", 0))


class TestMexpOnRegisteredBases:
    """``b^(-e) = (b^e)^(-1)``: a registered base is served by its
    fixed-base table whatever the exponent's sign, with the residue and
    the books of the accel-off call."""

    @given(base=st.integers(min_value=1, max_value=1 << 64),
           exponent=_SIGNED_EXPONENTS, modulus=st.sampled_from(_PRIMES))
    @settings(max_examples=60, deadline=None)
    def test_same_value_and_books_with_tables(self, base, exponent, modulus):
        if base % modulus == 0:
            base += 1
        inversions = 1 if exponent < 0 else 0
        expected = pow(base, exponent, modulus)
        assert _counted_mexp(base, exponent, modulus, enabled=False) == (
            expected, 1, inversions, 0)
        assert _counted_mexp(base, exponent, modulus, enabled=True) == (
            expected, 1, inversions, 1)

    @given(bad=_ZERO_DIVISORS,
           exponent=st.integers(min_value=-(1 << 1024), max_value=-1))
    @settings(max_examples=30, deadline=None)
    def test_non_invertible_base_still_raises(self, bad, exponent):
        modulus, base = bad
        for enabled in (False, True):
            assert _counted_mexp(base, exponent, modulus, enabled)[:3] == (
                ParameterError, 1, 1)

    @given(base=st.integers(min_value=0, max_value=1 << 64),
           exponent=_SIGNED_EXPONENTS)
    @settings(max_examples=30, deadline=None)
    def test_modulus_one(self, base, exponent):
        inversions = 1 if exponent < 0 else 0
        for enabled in (False, True):
            assert _counted_mexp(base, exponent, 1, enabled) == (
                0, 1, inversions, 0)


class TestInverse:
    @given(st.integers(min_value=1, max_value=7918))
    @settings(max_examples=50)
    def test_inverse_law(self, a):
        inv = modmath.inverse(a, 7919)
        assert (a * inv) % 7919 == 1

    def test_not_invertible(self):
        with pytest.raises(ParameterError):
            modmath.inverse(6, 12)


class TestEgcd:
    @given(st.integers(min_value=0, max_value=10**9),
           st.integers(min_value=0, max_value=10**9))
    @settings(max_examples=100)
    def test_bezout(self, a, b):
        g, x, y = modmath.egcd(a, b)
        assert a * x + b * y == g
        assert g == math.gcd(a, b)


class TestCrt:
    def test_two_moduli(self):
        x = modmath.crt([2, 3], [5, 7])
        assert x % 5 == 2 and x % 7 == 3

    def test_three_moduli(self):
        x = modmath.crt([1, 2, 3], [3, 5, 7])
        assert x % 3 == 1 and x % 5 == 2 and x % 7 == 3

    def test_non_coprime_rejected(self):
        with pytest.raises(ParameterError):
            modmath.crt([1, 2], [6, 9])

    def test_empty_rejected(self):
        with pytest.raises(ParameterError):
            modmath.crt([], [])

    @given(st.integers(min_value=0, max_value=34))
    def test_roundtrip(self, v):
        assert modmath.crt([v % 5, v % 7], [5, 7]) == v


class TestJacobi:
    def test_known_values(self):
        # (2/7) = 1, (3/7) = -1
        assert modmath.jacobi(2, 7) == 1
        assert modmath.jacobi(3, 7) == -1
        assert modmath.jacobi(0, 7) == 0

    def test_even_modulus_rejected(self):
        with pytest.raises(ParameterError):
            modmath.jacobi(3, 8)

    @given(st.integers(min_value=1, max_value=7918))
    @settings(max_examples=50)
    def test_matches_euler_criterion(self, a):
        p = 7919
        euler = pow(a, (p - 1) // 2, p)
        expected = 1 if euler == 1 else (-1 if euler == p - 1 else 0)
        assert modmath.jacobi(a, p) == expected

    @given(st.integers(min_value=1, max_value=1000),
           st.integers(min_value=1, max_value=1000))
    @settings(max_examples=50)
    def test_multiplicative(self, a, b):
        n = 9907  # prime
        assert modmath.jacobi(a * b, n) == modmath.jacobi(a, n) * modmath.jacobi(b, n)


class TestSqrtModPrime:
    @pytest.mark.parametrize("p", [7919, 7927, 104729, (1 << 61) - 1])
    @pytest.mark.parametrize("a", [2, 3, 5, 1234])
    def test_square_roots(self, p, a):
        square = (a * a) % p
        root = modmath.sqrt_mod_prime(square, p)
        assert (root * root) % p == square

    def test_p_equals_3_mod_4(self):
        p = 1000003  # = 3 mod 4
        root = modmath.sqrt_mod_prime(4, p)
        assert (root * root) % p == 4

    def test_non_residue_rejected(self):
        p = 7919
        # Find a non-residue.
        a = next(x for x in range(2, 100) if modmath.jacobi(x, p) == -1)
        with pytest.raises(ParameterError):
            modmath.sqrt_mod_prime(a, p)

    def test_zero(self):
        assert modmath.sqrt_mod_prime(0, 7919) == 0


class TestRandomHelpers:
    def test_random_unit_is_coprime(self, rng):
        n = 91  # 7 * 13
        for _ in range(50):
            u = modmath.random_unit(n, rng)
            assert math.gcd(u, n) == 1

    def test_random_qr_is_square(self, rng):
        p = 7919
        for _ in range(20):
            q = modmath.random_qr(p, rng)
            assert modmath.jacobi(q, p) == 1

    @given(st.integers(min_value=1, max_value=512))
    @settings(max_examples=30)
    def test_symmetric_range(self, bits):
        import random as _random
        r = _random.Random(bits)
        v = modmath.random_int_symmetric(bits, r)
        assert modmath.int_in_symmetric_range(v, bits)
        assert not modmath.int_in_symmetric_range((1 << bits) + 1, bits)


class TestCounterHonesty:
    """Regression: negative exponents route through ``inverse`` and every
    leg of that trip is counted — one modexp for the call itself plus one
    ``inversions`` extra for the modular inverse it hides (E1 honesty)."""

    def test_negative_exponent_counts_modexp_and_inversion(self):
        from repro import metrics

        rec = metrics.Recorder()
        with metrics.using(rec):
            result = modmath.mexp(5, -3, 101)
        assert result == pow(pow(5, -1, 101), 3, 101)
        assert rec.total().modexp == 1
        assert rec.total().extra.get("inversions") == 1

    def test_positive_exponent_counts_no_inversion(self):
        from repro import metrics

        rec = metrics.Recorder()
        with metrics.using(rec):
            modmath.mexp(5, 3, 101)
        assert rec.total().modexp == 1
        assert "inversions" not in rec.total().extra

    def test_direct_inverse_is_counted(self):
        from repro import metrics

        rec = metrics.Recorder()
        with metrics.using(rec):
            modmath.inverse(7, 101)
        assert rec.total().extra.get("inversions") == 1
