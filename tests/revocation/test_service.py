"""RevocationService behaviour: queue/seal, delta log, lazy refresh,
registry aggregation, and the guard rails around all of it.

Membership here is mutated constantly, so every test world is private
(the conftest session worlds are read-only by contract).
"""

import random

import pytest

from repro import metrics
from repro.core.framework import GcdFramework
from repro.errors import ParameterError, RevocationError
from repro.revocation import (
    EpochDelta,
    RevocationService,
    registered_services,
    reset_registry,
    stats,
)


@pytest.fixture
def world(rng):
    framework = GcdFramework.create("rev-test", gsig_kind="acjt",
                                    gsig_profile="tiny", rng=rng)
    service = RevocationService(framework, register=False)
    members = {name: service.admit(name, rng) for name in ("a", "b", "c")}
    return framework, service, members


@pytest.fixture(autouse=True)
def _clean_registry():
    reset_registry()
    yield
    reset_registry()


class TestConstruction:
    def test_kty_framework_rejected(self, rng):
        framework = GcdFramework.create("kty-grp", gsig_kind="kty",
                                        gsig_profile="tiny", rng=rng)
        with pytest.raises(ParameterError):
            RevocationService(framework, register=False)

    def test_bad_horizon_rejected(self, rng):
        framework = GcdFramework.create("h-grp", gsig_kind="acjt",
                                        gsig_profile="tiny", rng=rng)
        with pytest.raises(ParameterError):
            RevocationService(framework, horizon=0, register=False)


class TestQueueAndSeal:
    def test_admissions_land_in_delta_log(self, world):
        _, service, _ = world
        log = service.delta_log()
        assert len(log) == 3
        assert all(len(d.added) == 1 and not d.deleted for d in log)
        epochs = [d.epoch for d in log]
        assert epochs == sorted(epochs)

    def test_revoke_queues_without_taking_effect(self, world, rng):
        framework, service, members = world
        service.revoke("c")
        assert service.pending() == ("c",)
        # Not sealed yet: the whole room still handshakes.
        outcomes = framework.handshake(["a", "b", "c"], rng=rng)
        assert all(o.success for o in outcomes)

    def test_unknown_member_rejected(self, world):
        _, service, _ = world
        with pytest.raises(RevocationError):
            service.revoke("nobody")

    def test_double_queue_rejected(self, world):
        _, service, _ = world
        service.revoke("c")
        with pytest.raises(RevocationError):
            service.revoke("c")

    def test_empty_seal_is_a_noop(self, world):
        _, service, _ = world
        epoch = service.epoch
        assert service.seal_epoch() is None
        assert service.epoch == epoch

    def test_seal_batches_one_epoch(self, world, rng):
        framework, service, members = world
        epoch_before = service.epoch
        service.revoke("b")
        service.revoke("c")
        delta = service.seal_epoch()
        assert isinstance(delta, EpochDelta)
        assert delta.revoked_users == ("b", "c")
        assert len(delta.deleted) == 2
        # The whole batch is ONE accumulator epoch.
        assert service.epoch == epoch_before + 1
        assert service.pending() == ()
        # The leavers cannot decrypt the epoch post (dual revocation):
        # their CGKD rekey fails and the handle flags itself revoked.
        assert members["b"].revoked
        assert members["c"].revoked
        # The survivor's witness tracked the batch.
        assert members["a"].credential.witness_is_current()
        outcomes = framework.handshake(["a", "b"], rng=rng)
        assert not all(o.success for o in outcomes)

    def test_manager_pays_one_trapdoor_modexp(self, world):
        _, service, _ = world
        for uid in ("b", "c"):
            service.revoke(uid)
        with metrics.detached() as recorder:
            service.seal_epoch()
        books = recorder.snapshot().get("rev:seal")
        assert books is not None and books.modexp > 0
        assert service.stats()["epochs_sealed"] == 1

    def test_sequential_epochs_accumulate(self, world):
        _, service, _ = world
        service.revoke("b")
        service.seal_epoch()
        service.revoke("c")
        service.seal_epoch()
        assert service.stats()["revoked"] == 2
        assert service.stats()["epochs_sealed"] == 2


class TestLazyRefresh:
    def test_current_member_untouched(self, world):
        _, service, members = world
        assert service.refresh(members["a"]) == "current"

    def test_replayed_within_horizon(self, rng):
        framework = GcdFramework.create("lazy", gsig_kind="acjt",
                                        gsig_profile="tiny", rng=rng)
        service = RevocationService(framework, horizon=32, register=False)
        for name in ("a", "b"):
            service.admit(name, rng)
        sleeper = service.admit("sleeper", rng, enroll=False)
        start = sleeper.acc_epoch
        for i in range(5):
            service.admit(f"churn{i}", rng)
            service.revoke(f"churn{i}")
            service.seal_epoch()
        missed = service.epoch - start
        assert missed >= 10
        with metrics.detached() as recorder:
            assert service.refresh(sleeper) == "replayed"
        assert recorder.total().modexp <= 3
        assert sleeper.witness_is_current()
        assert sleeper.acc_epoch == service.epoch
        # Idempotent: a second refresh has nothing to do.
        assert service.refresh(sleeper) == "current"

    def test_reissued_past_horizon(self, rng):
        framework = GcdFramework.create("deep", gsig_kind="acjt",
                                        gsig_profile="tiny", rng=rng)
        service = RevocationService(framework, horizon=2, register=False)
        service.admit("a", rng)
        sleeper = service.admit("sleeper", rng, enroll=False)
        for i in range(4):  # > horizon: log trimmed past the sleeper's gap
            service.admit(f"w{i}", rng)
        assert service.refresh(sleeper) == "reissued"
        assert sleeper.witness_is_current()

    def test_revoked_sleeper_detected_on_replay(self, rng):
        framework = GcdFramework.create("gone", gsig_kind="acjt",
                                        gsig_profile="tiny", rng=rng)
        service = RevocationService(framework, register=False)
        service.admit("a", rng)
        sleeper = service.admit("sleeper", rng, enroll=False)
        service.revoke("sleeper")
        service.seal_epoch()
        assert service.refresh(sleeper) == "revoked"
        assert sleeper.revoked

    def test_revoked_sleeper_detected_past_horizon(self, rng):
        framework = GcdFramework.create("gone2", gsig_kind="acjt",
                                        gsig_profile="tiny", rng=rng)
        service = RevocationService(framework, horizon=1, register=False)
        service.admit("a", rng)
        sleeper = service.admit("sleeper", rng, enroll=False)
        service.revoke("sleeper")
        service.seal_epoch()
        for i in range(3):  # push the sealed epoch out of the log
            service.admit(f"w{i}", rng)
        assert service.refresh(sleeper) == "revoked"
        assert sleeper.revoked

    def test_stale_update_after_refresh_is_ignored(self, rng):
        """A rekey replayed out of order after a lazy refresh must not
        corrupt the refreshed witness (the stale-epoch guard)."""
        framework = GcdFramework.create("stale", gsig_kind="acjt",
                                        gsig_profile="tiny", rng=rng)
        service = RevocationService(framework, register=False)
        service.admit("a", rng)
        sleeper = service.admit("sleeper", rng, enroll=False)
        service.admit("late", rng)
        service.revoke("late")
        manager = framework.authority.gsig_manager
        update = manager.revoke_batch(["late"])
        service._log.append(EpochDelta(
            epoch=manager.member_view().acc_epoch, added=(),
            deleted=tuple(update.payload["deleted"]),
            acc_value=update.payload["acc_value"],
            revoked_users=("late",)))
        framework.update_all()
        assert service.refresh(sleeper) == "replayed"
        witness = sleeper.witness
        sleeper.apply_update(update)  # stale now — epoch already applied
        assert sleeper.witness == witness
        assert sleeper.witness_is_current()


class TestRegistry:
    def test_stats_aggregate(self, rng):
        framework = GcdFramework.create("reg", gsig_kind="acjt",
                                        gsig_profile="tiny", rng=rng)
        service = RevocationService(framework, name="reg")
        assert service in registered_services()
        service.admit("a", rng)
        service.admit("b", rng)
        service.revoke("b")
        snap = stats()
        assert snap["services"] == 1
        assert snap["pending"] == 1
        assert snap["epoch"] == service.epoch
        service.seal_epoch()
        snap = stats()
        assert snap["pending"] == 0
        assert snap["revoked"] == 1
        assert snap["epochs_sealed"] == 1

    def test_empty_registry_all_zero(self):
        snap = stats()
        assert snap["services"] == 0
        assert snap["revoked"] == 0
