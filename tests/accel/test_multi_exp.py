"""Property tests for multi-term modular exponentiation.

``multi_exp`` must be bit-identical to the naive per-term product for
every input — enabled or disabled — and must charge exactly one modexp
per term (the E1 invariant: each term replaces one ``mexp`` call).
"""

import contextlib
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import metrics
from repro.accel import fixed_base, state
from repro.accel.multi_exp import multi_exp
from repro.crypto.modmath import inverse
from repro.errors import ParameterError

PRIME_MODULI = st.sampled_from([2, 3, 101, 7919, (1 << 61) - 1])
#: Exponents of either sign, out to the ~3000-bit size of the SPK
#: responses that the fixed-base tables serve.
SIGNED_EXPONENTS = st.integers(min_value=-(1 << 3000), max_value=1 << 3000)
#: Composite moduli, with a base that shares a factor with each.
COMPOSITE_WITH_ZERO_DIVISOR = st.sampled_from(
    [(7919 * 101, 101), (1 << 96, 6), (15, 10)])


def _naive(pairs, modulus):
    result = 1 % modulus
    for base, exponent in pairs:
        if exponent < 0:
            base = inverse(base, modulus)
            exponent = -exponent
        result = (result * pow(base, exponent, modulus)) % modulus
    return result


@pytest.fixture(autouse=True)
def _clean_accel_state():
    state.configure(enabled=False, window=5, cache_size=64)
    yield
    state.configure(enabled=False, window=5, cache_size=64)


@pytest.mark.parametrize("enabled", [False, True])
class TestCorrectness:
    @given(pairs=st.lists(
        st.tuples(st.integers(min_value=0, max_value=1 << 64),
                  st.integers(min_value=0, max_value=1 << 128)),
        min_size=0, max_size=9),
        modulus=st.sampled_from([1, 2, 3, 101, 7919, (1 << 61) - 1, 1 << 96]))
    @settings(max_examples=120, deadline=None)
    def test_matches_naive_product(self, enabled, pairs, modulus):
        state.configure(enabled=enabled)
        assert multi_exp(pairs, modulus) == _naive(pairs, modulus)

    @given(pairs=st.lists(
        st.tuples(st.integers(min_value=1, max_value=1 << 64),
                  st.integers(min_value=-(1 << 96), max_value=1 << 96)),
        min_size=1, max_size=5),
        modulus=PRIME_MODULI)
    @settings(max_examples=100, deadline=None)
    def test_negative_exponents_via_inverse(self, enabled, pairs, modulus):
        # Prime modulus keeps every nonzero base invertible.
        pairs = [(b, e) for b, e in pairs if b % modulus != 0]
        state.configure(enabled=enabled)
        assert multi_exp(pairs, modulus) == _naive(pairs, modulus)

    def test_edge_inputs(self, enabled):
        state.configure(enabled=enabled)
        assert multi_exp([], 101) == 1          # empty product
        assert multi_exp([], 1) == 0            # empty product mod 1
        assert multi_exp([(1, 0)], 101) == 1    # base 1, exponent 0
        assert multi_exp([(7, 0), (9, 0)], 101) == 1
        assert multi_exp([(5, 3), (4, 2)], 1) == 0   # modulus boundary

    def test_bad_modulus_rejected(self, enabled):
        state.configure(enabled=enabled)
        with pytest.raises(ValueError):
            multi_exp([(2, 3)], 0)


@contextlib.contextmanager
def _registered(bases, modulus):
    """Register ``bases`` for the block; leave the registry as found."""
    for base in bases:
        fixed_base.register_base(base, modulus)
    try:
        yield
    finally:
        for base in bases:
            fixed_base.unregister_base(base, modulus)


def _run(pairs, modulus, enabled):
    """``(value or ParameterError, modexp, inversions, table lookups)``."""
    state.configure(enabled=enabled)
    rec = metrics.Recorder()
    with metrics.using(rec):
        try:
            value = multi_exp(pairs, modulus)
        except ParameterError:
            value = ParameterError
    total = rec.total()
    return (value, total.modexp, total.extra.get("inversions", 0),
            total.extra.get("accel:fb-hit", 0)
            + total.extra.get("accel:fb-miss", 0))


class TestRegisteredBases:
    """``b^(-e)`` is evaluated as ``(b^e)^(-1)``, so a registered base is
    served by its table whatever its exponent's sign — with the residue
    and the books of the accel-off run."""

    @given(pairs=st.lists(
        st.tuples(st.integers(min_value=1, max_value=1 << 64),
                  SIGNED_EXPONENTS),
        min_size=1, max_size=4),
        modulus=PRIME_MODULI)
    @settings(max_examples=60, deadline=None)
    def test_negative_exponents_use_the_tables(self, pairs, modulus):
        pairs = [(b, e) for b, e in pairs if b % modulus != 0]
        expected = 1 % modulus
        for base, exponent in pairs:
            expected = (expected * pow(base, exponent, modulus)) % modulus
        negatives = sum(1 for _, e in pairs if e < 0)
        with _registered([b for b, _ in pairs], modulus):
            off = _run(pairs, modulus, enabled=False)
            on = _run(pairs, modulus, enabled=True)
        assert off == (expected, len(pairs), negatives, 0)
        assert on == (expected, len(pairs), negatives, len(pairs))

    @given(pairs=st.lists(
        st.tuples(st.integers(min_value=1, max_value=1 << 64),
                  SIGNED_EXPONENTS),
        min_size=0, max_size=4),
        bad=COMPOSITE_WITH_ZERO_DIVISOR,
        exponent=st.integers(min_value=-(1 << 1024), max_value=-1))
    @settings(max_examples=40, deadline=None)
    def test_non_invertible_base_raises_before_charging(self, pairs, bad,
                                                         exponent):
        modulus, base = bad
        pairs = [(b, e) for b, e in pairs
                 if e >= 0 or math.gcd(b, modulus) == 1]
        pairs.append((base, exponent))
        negatives = sum(1 for _, e in pairs if e < 0)
        with _registered([b for b, _ in pairs], modulus):
            for enabled in (False, True):
                value, modexp, inversions, _ = _run(pairs, modulus, enabled)
                assert (value, modexp, inversions) == (
                    ParameterError, 0, negatives)

    @given(pairs=st.lists(
        st.tuples(st.integers(min_value=0, max_value=1 << 64),
                  SIGNED_EXPONENTS),
        min_size=0, max_size=4))
    @settings(max_examples=40, deadline=None)
    def test_modulus_one(self, pairs):
        # Every residue mod 1 is 0 and a unit: no error, no table.
        negatives = sum(1 for _, e in pairs if e < 0)
        with _registered([b for b, _ in pairs], 1):
            for enabled in (False, True):
                assert _run(pairs, 1, enabled) == (
                    0, len(pairs), negatives, 0)


class TestAccounting:
    @pytest.mark.parametrize("enabled", [False, True])
    def test_charges_one_modexp_per_term(self, enabled):
        state.configure(enabled=enabled)
        rec = metrics.Recorder()
        with metrics.using(rec):
            multi_exp([(2, 10), (3, 20), (5, 30)], 7919)
        assert rec.total().modexp == 3

    @pytest.mark.parametrize("enabled", [False, True])
    def test_inversion_count_independent_of_switch(self, enabled):
        state.configure(enabled=enabled)
        rec = metrics.Recorder()
        with metrics.using(rec):
            multi_exp([(2, -10), (3, 20), (5, -30)], 7919)
        assert rec.total().extra.get("inversions") == 2

    def test_empty_product_charges_nothing(self):
        rec = metrics.Recorder()
        with metrics.using(rec):
            multi_exp([], 101)
        assert rec.total().modexp == 0
