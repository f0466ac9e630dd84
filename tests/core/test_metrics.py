"""Tests for the metrics instrumentation and the O(m) accounting that the
complexity benchmarks (E1/E2) rely on."""

from repro import metrics
from repro.core.handshake import run_handshake
from repro.core.scheme1 import scheme1_policy
from repro.crypto.modmath import mexp


class TestScopes:
    def test_total_accumulates(self):
        metrics.reset()
        mexp(2, 10, 101)
        mexp(3, 10, 101)
        assert metrics.total().modexp == 2

    def test_named_scope_attribution(self):
        metrics.reset()
        with metrics.scope("a"):
            mexp(2, 10, 101)
        with metrics.scope("b"):
            mexp(2, 10, 101)
            mexp(2, 10, 101)
        snap = metrics.snapshot()
        assert snap["a"].modexp == 1
        assert snap["b"].modexp == 2
        assert snap["total"].modexp == 3

    def test_nested_scopes(self):
        metrics.reset()
        with metrics.scope("outer"):
            with metrics.scope("inner"):
                mexp(2, 2, 7)
        snap = metrics.snapshot()
        assert snap["outer"].modexp == snap["inner"].modexp == 1

    def test_reset(self):
        metrics.reset()
        mexp(2, 2, 7)
        metrics.reset()
        assert metrics.total().modexp == 0

    def test_extra_counters(self):
        metrics.reset()
        metrics.bump("custom", 3)
        assert metrics.total().extra["custom"] == 3

    def test_duplicate_name_nesting_counts_once(self):
        """Regression: the seed charged every *frame*, so a scope nested
        inside itself (a party scope around a sub-protocol that re-opens
        the same scope) double-counted every operation."""
        metrics.reset()
        with metrics.scope("party"):
            with metrics.scope("party"):
                mexp(2, 10, 101)
        snap = metrics.snapshot()
        assert snap["party"].modexp == 1
        assert snap["total"].modexp == 1

    def test_reentrant_same_name_teardown(self):
        """Regression: the seed tore down with ``_active.remove(name)``,
        popping the *first* occurrence of a re-entered name; exit must
        restore the exact prior stack."""
        metrics.reset()
        with metrics.scope("a"):
            with metrics.scope("b"):
                with metrics.scope("a"):
                    mexp(2, 10, 101)
                # The outer "a" must still be active here.
                assert metrics.active_scopes() == ["a", "b"]
                mexp(2, 10, 101)
        snap = metrics.snapshot()
        assert snap["a"].modexp == 2
        assert snap["b"].modexp == 2
        assert snap["total"].modexp == 2
        assert metrics.active_scopes() == []

    def test_scope_teardown_on_exception(self):
        metrics.reset()
        try:
            with metrics.scope("doomed"):
                with metrics.scope("doomed"):
                    raise RuntimeError("boom")
        except RuntimeError:
            pass
        assert metrics.active_scopes() == []
        mexp(2, 10, 101)
        snap = metrics.snapshot()
        assert snap["doomed"].modexp == 0
        assert snap["total"].modexp == 1


class TestHandshakeAccounting:
    def test_per_party_scopes_populated(self, scheme1_world):
        metrics.reset()
        run_handshake(scheme1_world.lineup("alice", "bob"),
                      scheme1_policy(), scheme1_world.rng)
        snap = metrics.snapshot()
        assert snap["hs:0"].modexp > 0
        assert snap["hs:1"].modexp > 0

    def test_per_party_message_counts(self, scheme1_world):
        metrics.reset()
        run_handshake(scheme1_world.lineup("alice", "bob", "carol"),
                      scheme1_policy(), scheme1_world.rng)
        snap = metrics.snapshot()
        # Each party broadcasts: 2 DGKA rounds + 1 tag + 1 (theta, delta).
        for i in range(3):
            assert snap[f"hs:{i}"].messages_sent == 4

    def test_messages_linear_in_m(self, scheme1_world):
        counts = {}
        for names in (("alice", "bob"), ("alice", "bob", "carol", "dave")):
            metrics.reset()
            run_handshake(scheme1_world.lineup(*names), scheme1_policy(),
                          scheme1_world.rng)
            counts[len(names)] = metrics.total().messages_sent
        # Total messages scale linearly: 4 per party.
        assert counts[2] == 8
        assert counts[4] == 16

    def test_per_party_modexp_linear_in_m(self, scheme1_world):
        """The Section 8.1 claim: O(m) modular exponentiations per party.
        Growth from m=2 to m=4 must be at most linear (+ constant)."""
        per_party = {}
        for names in (("alice", "bob"), ("alice", "bob", "carol", "dave")):
            metrics.reset()
            run_handshake(scheme1_world.lineup(*names), scheme1_policy(),
                          scheme1_world.rng)
            snap = metrics.snapshot()
            per_party[len(names)] = snap["hs:0"].modexp
        growth = per_party[4] - per_party[2]
        # Doubling m adds only a handful of exponentiations (BD key
        # assembly + extra verifications), far below the fixed cost.
        assert 0 <= growth < per_party[2]
