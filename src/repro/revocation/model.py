"""Exact witness-maintenance cost model: sequential vs batched vs lazy.

Every number here is in **counted modexps** — the same ledger
:func:`repro.crypto.modmath.mexp` feeds — not wall-clock, so the model
can be validated *exactly* against measured books at small scale (the
:mod:`repro.load.model` idiom) and then extrapolated to 1e4–1e6 members
with plain integer arithmetic (:func:`simulate_churn`).

The closed forms, straight from the accumulator algebra:

===============================  =========================  ==================
operation                        sequential (k revocations) batched epoch
===============================  =========================  ==================
manager (trapdoor deletions)     ``k``                      ``1``
per online member (witness)      ``2k``                     ``2``
CGKD rekey broadcasts            ``k``                      ``1``
===============================  =========================  ==================

Member-side: one deletion update is the Bezout pair ``w^a * v'^b`` — two
counted modexps (:func:`~repro.crypto.accumulator
.update_witness_after_delete`); the coalesced epoch update
(:func:`~repro.crypto.accumulator.update_witness_epoch`) pays the same
two for ANY number of deletions (plus one more if the window also
contains additions).  An addition update is one modexp.

Lazy refresh over ``E`` missed epochs totalling ``A`` additions and
``D`` deletions therefore costs

* replayed one-by-one:  ``A + 2*D`` member modexps,
* coalesced (in-horizon): ``(1 if A else 0) + (2 if D else 0)`` — at
  most **3**, independent of ``E``, ``A`` and ``D``,
* reissued (past horizon): **0** member modexps, 1 manager trapdoor
  modexp.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.errors import ParameterError


# ---------------------------------------------------------------------------
# Closed forms (exact counted-modexp costs).
# ---------------------------------------------------------------------------


def manager_modexps(revocations: int, *, batched: bool) -> int:
    """Manager trapdoor exponentiations to revoke ``revocations`` members:
    one per deletion sequentially, one per *epoch* batched."""
    if revocations < 0:
        raise ParameterError("revocations must be >= 0")
    if revocations == 0:
        return 0
    return 1 if batched else revocations


def member_update_modexps(additions: int, deletions: int, *,
                          coalesced: bool) -> int:
    """Modexps one member pays to absorb a window of churn.

    Sequential replay: 1 per addition + 2 per deletion.  Coalesced: the
    products of the added/deleted primes are formed first (integer
    multiplications, not modexps), so the whole window costs at most 3.
    """
    if additions < 0 or deletions < 0:
        raise ParameterError("churn counts must be >= 0")
    if coalesced:
        return (1 if additions else 0) + (2 if deletions else 0)
    return additions + 2 * deletions


def lazy_refresh_modexps(additions: int, deletions: int, *,
                         within_horizon: bool) -> Dict[str, int]:
    """Split cost of one lazy refresh: member-side and manager-side."""
    if within_horizon:
        return {
            "member": member_update_modexps(additions, deletions,
                                            coalesced=True),
            "manager": 0,
        }
    return {"member": 0, "manager": 1}  # fresh witness: v^{1/e}


def rekey_broadcasts(revocations: int, *, batched: bool) -> int:
    """CGKD rekey messages emitted for ``revocations`` removals (LKH
    replaces the union of the removed paths once when batched)."""
    if revocations == 0:
        return 0
    return 1 if batched else revocations


# ---------------------------------------------------------------------------
# Counter-only churn simulation (1e4 – 1e6 members).
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ChurnSpec:
    """One simulated churn run.

    ``members`` online members each absorb every epoch's delta;
    ``sleepers`` members instead sleep through all ``epochs`` and
    lazily refresh once at the end (in-horizon iff
    ``epochs <= horizon``)."""

    members: int
    epochs: int
    revocations_per_epoch: int
    joins_per_epoch: int = 0
    sleepers: int = 0
    horizon: int = 64

    def __post_init__(self) -> None:
        if self.members <= 0 or self.epochs <= 0:
            raise ParameterError("members and epochs must be positive")
        if self.revocations_per_epoch < 0 or self.joins_per_epoch < 0:
            raise ParameterError("churn rates must be >= 0")
        if self.sleepers < 0 or self.sleepers > self.members:
            raise ParameterError("sleepers must be within the population")


def simulate_churn(spec: ChurnSpec) -> Dict[str, object]:
    """Total modexp books for the run under both strategies.

    Pure integer arithmetic — no bignums, no RSA group — so a 1e6-member
    simulation is instant; the closed forms it multiplies out are the
    ones ``tests/revocation/test_model.py`` checks against real measured
    books at small scale.
    """
    k = spec.revocations_per_epoch
    j = spec.joins_per_epoch
    online = spec.members - spec.sleepers

    seq_manager = spec.epochs * manager_modexps(k, batched=False)
    bat_manager = spec.epochs * manager_modexps(k, batched=True)

    per_member_seq = spec.epochs * member_update_modexps(j, k, coalesced=False)
    per_member_bat = spec.epochs * member_update_modexps(j, k, coalesced=True)
    seq_members = online * per_member_seq
    bat_members = online * per_member_bat

    lazy = lazy_refresh_modexps(
        spec.epochs * j, spec.epochs * k,
        within_horizon=spec.epochs <= spec.horizon,
    )

    return {
        "spec": {
            "members": spec.members,
            "epochs": spec.epochs,
            "revocations_per_epoch": k,
            "joins_per_epoch": j,
            "sleepers": spec.sleepers,
            "horizon": spec.horizon,
        },
        "sequential": {
            "manager_modexps": seq_manager,
            "member_modexps_each": per_member_seq,
            "member_modexps_total": seq_members,
            "rekey_broadcasts": spec.epochs * rekey_broadcasts(k, batched=False),
            "total_modexps": seq_manager + seq_members,
        },
        "batched": {
            "manager_modexps": bat_manager,
            "member_modexps_each": per_member_bat,
            "member_modexps_total": bat_members,
            "rekey_broadcasts": spec.epochs * rekey_broadcasts(k, batched=True),
            "total_modexps": bat_manager + bat_members,
        },
        "lazy_refresh": {
            "per_sleeper_member_modexps": lazy["member"],
            "per_sleeper_manager_modexps": lazy["manager"],
            "sleepers_total_modexps":
                spec.sleepers * (lazy["member"] + lazy["manager"]),
            "within_horizon": spec.epochs <= spec.horizon,
        },
        "speedup_total":
            (seq_manager + seq_members) / max(1, bat_manager + bat_members),
    }


__all__ = [
    "ChurnSpec",
    "lazy_refresh_modexps",
    "manager_modexps",
    "member_update_modexps",
    "rekey_broadcasts",
    "simulate_churn",
]
