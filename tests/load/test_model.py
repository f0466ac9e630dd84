"""The symbolic capacity model: closed forms, the polynomial type,
validation strictness, and the capacity inversion."""

import random

import pytest

from repro import metrics
from repro.core.framework import GcdFramework
from repro.core.handshake import run_handshake
from repro.core.scheme1 import scheme1_policy
from repro.core.scheme2 import scheme2_policy
from repro.load import model as model_module
from repro.load.model import BYTES_TOLERANCE, HandshakeModel, capacity_report
from repro.revocation import RevocationService


class TestClosedForms:
    @pytest.mark.parametrize("scheme,slope,const", [("1", 24, 10),
                                                    ("2", 19, 9)])
    def test_per_party_modexp(self, scheme, slope, const):
        model = HandshakeModel(scheme)
        for m in (2, 3, 5, 8, 16):
            predicted = model.per_party(m)
            assert predicted["modexp"] == slope * m + const
            assert predicted["messages_sent"] == 4
            assert predicted["messages_received"] == 4 * (m - 1)

    def test_expressions_render(self):
        assert HandshakeModel("1").expressions()["modexp"] == "24*m + 10"
        assert HandshakeModel("2").expressions()["modexp"] == "19*m + 9"

    def test_per_room_is_m_times_per_party(self):
        model = HandshakeModel("1")
        party, room = model.per_party(5), model.per_room(5)
        assert room == {name: 5 * value for name, value in party.items()}

    def test_predict_folds_the_mix_and_ignores_shards(self):
        model = HandshakeModel("1")
        expected = {
            name: 3 * model.per_room(2)[name] + 1 * model.per_room(5)[name]
            for name in model.per_room(2)
        }
        assert model.predict({2: 3, 5: 1}, shards=1) == expected
        # The shard-invariance claim: the router is a byte splice.
        assert model.predict({2: 3, 5: 1}, shards=7) == expected

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            HandshakeModel("3")
        with pytest.raises(ValueError):
            HandshakeModel("1").per_party(1)


class TestAgainstEngine:
    """The model's counts are the measured books, not an approximation."""

    @pytest.mark.parametrize("room", ["1", "2", "churned"])
    def test_engine_books_match_exactly(self, room, scheme1_world,
                                        scheme2_world):
        if room == "churned":
            # A scheme-1 room right after a sealed revocation epoch: the
            # revocation machinery must not perturb the handshake books.
            rng = random.Random(92)
            framework = GcdFramework.create("churned", gsig_kind="acjt",
                                            gsig_profile="tiny", rng=rng)
            service = RevocationService(framework, register=False)
            for i in range(5):
                service.admit(f"g{i}", rng)
            service.revoke("g3")
            service.revoke("g4")
            service.seal_epoch()
            members = [framework.member(f"g{i}") for i in range(3)]
            scheme, policy = "1", scheme1_policy()
        else:
            world = scheme1_world if room == "1" else scheme2_world
            policy = scheme1_policy() if room == "1" else scheme2_policy()
            members = [world.members[n] for n in sorted(world.members)][:3]
            scheme = room
        model = HandshakeModel(scheme)
        recorder = metrics.Recorder()
        with metrics.using(recorder):
            outcomes = run_handshake(members, policy, random.Random(17))
            snapshot = recorder.snapshot()
        assert all(o.success for o in outcomes)
        for i in range(3):
            measured = snapshot[f"hs:{i}"]
            predicted = model.per_party(3)
            # The engine transport books no wire bytes; counts only here
            # (bytes are exercised end-to-end in test_generator).
            assert measured.modexp == predicted["modexp"]
            assert measured.messages_sent == predicted["messages_sent"]
            assert measured.messages_received == \
                predicted["messages_received"]


class TestValidation:
    def _clean_books(self, model, m):
        return {name: value for name, value in model.per_party(m).items()}

    def test_clean_books_pass(self):
        model = HandshakeModel("1")
        assert model.validate_party(4, self._clean_books(model, 4)) == []

    def test_one_modexp_of_drift_fails(self):
        model = HandshakeModel("1")
        books = self._clean_books(model, 4)
        books["modexp"] += 1
        mismatches = model.validate_party(4, books, "p")
        assert len(mismatches) == 1 and "modexp" in mismatches[0]

    def test_bytes_have_tolerance_counts_do_not(self):
        model = HandshakeModel("1")
        books = self._clean_books(model, 4)
        books["bytes_sent"] = int(books["bytes_sent"]
                                  * (1 + BYTES_TOLERANCE / 2))
        assert model.validate_party(4, books) == []
        books["bytes_sent"] = int(books["bytes_sent"] * 1.2)
        assert any("bytes_sent" in line
                   for line in model.validate_party(4, books))

    def test_validate_room_reports_missing_party_books(self):
        model = HandshakeModel("1")
        books = {"hs:0": self._clean_books(model, 2)}
        mismatches = model.validate_room(2, books, "r")
        assert mismatches == ["r: no books for hs:1"]


class TestPythonBackend:
    """The closed forms' one expression type."""

    def test_poly_arithmetic(self):
        m = model_module._Poly.m()
        squared = (m + 2) * (m - 1)        # m**2 + m - 2
        assert squared.eval(5) == 28
        assert str(squared) == "m**2 + m - 2"
        assert str(model_module._Poly.const(0)) == "0"


class TestCapacityReport:
    def test_both_bounds_and_their_minimum(self):
        report = capacity_report(
            scheme="1", mean_m=2.0, shards=2, max_rooms_per_shard=4,
            mean_room_lifetime_s=2.0, measured_modexp=1160,
            measured_busy_s=5.8, cores=1)
        # Admission: 2 shards * 4 rooms / 2s lifetime = 4 rooms/s.
        assert report["admission_bound_rooms_per_s"] == pytest.approx(4.0)
        # Compute: room modexp at m=2 is 2*(24*2+10)=116; s/modexp is
        # 5.8/1160=0.005 -> 1/(116*0.005) ~ 1.724 rooms/s.
        assert report["compute_bound_rooms_per_s"] == pytest.approx(
            1.724, abs=0.001)
        assert report["capacity_rooms_per_s"] == \
            report["compute_bound_rooms_per_s"]

    def test_unlimited_admission_omits_that_bound(self):
        report = capacity_report(
            scheme="1", mean_m=2.0, shards=2, max_rooms_per_shard=None,
            mean_room_lifetime_s=2.0, measured_modexp=100,
            measured_busy_s=1.0)
        assert "admission_bound_rooms_per_s" not in report
        assert report["capacity_rooms_per_s"] == \
            report["compute_bound_rooms_per_s"]

    def test_no_measurements_no_capacity_claim(self):
        report = capacity_report(
            scheme="1", mean_m=2.0, shards=1, max_rooms_per_shard=None,
            mean_room_lifetime_s=None, measured_modexp=0,
            measured_busy_s=0.0)
        assert "capacity_rooms_per_s" not in report
        assert report["modexp_per_party_expr"] == "24*m + 10"
