"""The witness-maintenance cost model: closed forms and churn simulation.

The closed forms get unit coverage (edges, validation, and the scaling
invariants the extrapolation relies on) and are checked exactly against
the books of real sequential and batched revocations at small scale.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import metrics
from repro.errors import ParameterError
from repro.gsig.acjt import AcjtManager
from repro.revocation.model import (
    ChurnSpec,
    lazy_refresh_modexps,
    manager_modexps,
    member_update_modexps,
    rekey_broadcasts,
    simulate_churn,
)


class TestClosedForms:
    def test_manager_costs(self):
        assert manager_modexps(0, batched=True) == 0
        assert manager_modexps(0, batched=False) == 0
        assert manager_modexps(7, batched=False) == 7
        assert manager_modexps(7, batched=True) == 1
        with pytest.raises(ParameterError):
            manager_modexps(-1, batched=True)

    def test_member_costs(self):
        assert member_update_modexps(0, 0, coalesced=True) == 0
        assert member_update_modexps(3, 0, coalesced=False) == 3
        assert member_update_modexps(0, 4, coalesced=False) == 8
        assert member_update_modexps(3, 4, coalesced=False) == 11
        # Coalesced: bounded by 3 regardless of churn volume.
        assert member_update_modexps(100, 0, coalesced=True) == 1
        assert member_update_modexps(0, 100, coalesced=True) == 2
        assert member_update_modexps(100, 100, coalesced=True) == 3
        with pytest.raises(ParameterError):
            member_update_modexps(-1, 0, coalesced=True)

    def test_lazy_refresh_split(self):
        within = lazy_refresh_modexps(5, 9, within_horizon=True)
        assert within == {"member": 3, "manager": 0}
        beyond = lazy_refresh_modexps(5, 9, within_horizon=False)
        assert beyond == {"member": 0, "manager": 1}

    def test_broadcast_counts(self):
        assert rekey_broadcasts(0, batched=True) == 0
        assert rekey_broadcasts(5, batched=False) == 5
        assert rekey_broadcasts(5, batched=True) == 1


class TestChurnSpec:
    def test_validation(self):
        with pytest.raises(ParameterError):
            ChurnSpec(members=0, epochs=1, revocations_per_epoch=1)
        with pytest.raises(ParameterError):
            ChurnSpec(members=10, epochs=0, revocations_per_epoch=1)
        with pytest.raises(ParameterError):
            ChurnSpec(members=10, epochs=1, revocations_per_epoch=-1)
        with pytest.raises(ParameterError):
            ChurnSpec(members=10, epochs=1, revocations_per_epoch=1,
                      sleepers=11)


class TestSimulateChurn:
    @given(st.integers(min_value=1, max_value=6),   # log10 members
           st.integers(min_value=1, max_value=100),  # epochs
           st.integers(min_value=1, max_value=50),   # revocations/epoch
           st.integers(min_value=0, max_value=25))   # joins/epoch
    @settings(max_examples=50, deadline=None)
    def test_batched_never_loses(self, exp, epochs, k, j):
        spec = ChurnSpec(members=10 ** exp, epochs=epochs,
                         revocations_per_epoch=k, joins_per_epoch=j)
        doc = simulate_churn(spec)
        assert (doc["batched"]["total_modexps"]
                <= doc["sequential"]["total_modexps"])
        assert doc["speedup_total"] >= 1.0
        # Manager books: exactly epochs vs epochs*k trapdoor modexps.
        assert doc["batched"]["manager_modexps"] == epochs
        assert doc["sequential"]["manager_modexps"] == epochs * k

    def test_strictly_better_with_real_churn(self):
        for members in (10_000, 100_000, 1_000_000):
            doc = simulate_churn(ChurnSpec(
                members=members, epochs=24, revocations_per_epoch=50,
                joins_per_epoch=25, sleepers=members // 100, horizon=64))
            assert (doc["batched"]["total_modexps"]
                    < doc["sequential"]["total_modexps"])
            assert doc["lazy_refresh"]["within_horizon"]
            assert doc["lazy_refresh"]["per_sleeper_member_modexps"] == 3
            assert doc["lazy_refresh"]["per_sleeper_manager_modexps"] == 0

    def test_past_horizon_switches_to_reissue(self):
        doc = simulate_churn(ChurnSpec(
            members=1000, epochs=100, revocations_per_epoch=5,
            sleepers=10, horizon=64))
        assert not doc["lazy_refresh"]["within_horizon"]
        assert doc["lazy_refresh"]["per_sleeper_member_modexps"] == 0
        assert doc["lazy_refresh"]["per_sleeper_manager_modexps"] == 1
        assert doc["lazy_refresh"]["sleepers_total_modexps"] == 10

    def test_sleepers_skip_online_updates(self):
        busy = simulate_churn(ChurnSpec(
            members=100, epochs=4, revocations_per_epoch=2))
        sleepy = simulate_churn(ChurnSpec(
            members=100, epochs=4, revocations_per_epoch=2, sleepers=50))
        assert (sleepy["batched"]["member_modexps_total"]
                < busy["batched"]["member_modexps_total"])


class TestMeasuredBooks:
    K = 6

    @pytest.mark.parametrize("batched", [False, True],
                             ids=["sequential", "batched"])
    def test_books_equal_the_closed_forms(self, batched):
        """K revocations at the group-signature layer, one by one or as one
        batch: the manager's and a survivor's counted modexps equal
        ``manager_modexps`` and ``member_update_modexps`` exactly, and the
        survivor's witness still verifies."""
        rng = random.Random(90)
        manager = AcjtManager("tiny", rng)
        survivor, _ = manager.join("survivor", rng)
        doomed = [f"d{i}" for i in range(self.K)]
        for uid in doomed:
            _, update = manager.join(uid, rng)
            survivor.apply_update(update)
        assert survivor.witness_is_current()

        with metrics.detached() as manager_books:
            if batched:
                updates = [manager.revoke_batch(doomed)]
            else:
                updates = [manager.revoke(uid) for uid in doomed]
        with metrics.detached() as survivor_books:
            for update in updates:
                survivor.apply_update(update)

        assert manager_books.total().modexp == \
            manager_modexps(self.K, batched=batched)
        assert survivor_books.total().modexp == \
            member_update_modexps(0, self.K, coalesced=batched)
        assert len(updates) == rekey_broadcasts(self.K, batched=batched)
        assert survivor.witness_is_current()
