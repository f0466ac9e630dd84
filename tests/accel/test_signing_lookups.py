"""Every long-lived base in a group signature is served by its table.

A sigma response is negative about half the time.  ``mexp`` and
``multi_exp`` evaluate ``b^(-e)`` as ``(b^e)^(-1)``, so a registered
base reaches its fixed-base table whatever the response's sign: the
number of table lookups per sign / verify is a constant of the scheme,
not of the signing seed.  The books (``modexp``, ``inversions``) stay
those of the accel-off run of the same seed.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import metrics
from repro.accel import state
from repro.gsig import acjt, kty

SEEDS = st.integers(min_value=0, max_value=(1 << 32) - 1)

#: (sign, verify) fixed-base lookups with accel on: one per term whose
#: base is a registered key base (ACJT: a, a0, g, h, y, ped_g, ped_h and
#: the accumulator value; KTY: a, a0, b, g, h, y).
LOOKUPS = {"acjt": (22, 15), "kty": (14, 9)}
#: (sign, verify) modexps, the E1 per-signature constants.
MODEXP = {"acjt": (26, 23), "kty": (20, 18)}


@pytest.fixture(scope="module")
def worlds():
    """Private one-member groups, so key generation registers their bases
    after any other module's registry clean-up."""
    acjt_manager = acjt.AcjtManager("tiny", random.Random(1301))
    acjt_credential, _ = acjt_manager.join("alice", random.Random(1302))
    kty_manager = kty.KtyManager("tiny", random.Random(1303))
    kty_credential, _ = kty_manager.join("alice", random.Random(1304))
    yield {"acjt": (acjt, acjt_manager, acjt_credential),
           "kty": (kty, kty_manager, kty_credential)}
    state.configure(enabled=False)


def _books(fn):
    rec = metrics.Recorder()
    with metrics.using(rec):
        result = fn()
    total = rec.total()
    lookups = (total.extra.get("accel:fb-hit", 0)
               + total.extra.get("accel:fb-miss", 0))
    return result, (total.modexp, total.extra.get("inversions", 0)), lookups


def _sign_and_verify(world, seed, enabled):
    module, manager, credential = world
    state.configure(enabled=enabled)
    message = b"lookup-count"
    signature, sign_books, sign_lookups = _books(
        lambda: credential.sign(message, random.Random(seed)))
    valid, verify_books, verify_lookups = _books(
        lambda: module.verify(manager.public_key, message, signature,
                              manager.member_view()))
    assert valid
    return signature, (sign_books, verify_books), (sign_lookups,
                                                   verify_lookups)


@pytest.mark.parametrize("scheme", ["acjt", "kty"])
@given(seed=SEEDS)
@settings(max_examples=20, deadline=None)
def test_lookups_per_signature_are_constant(worlds, scheme, seed):
    off_sig, off_books, off_lookups = _sign_and_verify(
        worlds[scheme], seed, enabled=False)
    on_sig, on_books, on_lookups = _sign_and_verify(
        worlds[scheme], seed, enabled=True)
    assert on_sig == off_sig
    assert off_lookups == (0, 0)
    assert on_lookups == LOOKUPS[scheme]
    assert on_books == off_books
    assert (on_books[0][0], on_books[1][0]) == MODEXP[scheme]
