"""Room-scale verification of Phase III signature scans.

The handshake's Phase III conclude makes every party verify every other
party's group signature: ``8·(m-1)`` ACJT multi-exps per party,
``O(m^2)`` per room.  Parties of the same group verify *identical*
``(public key, member view, message, blob)`` tuples — the verdict cannot
differ between them — so a :class:`ScanCache` shared by the room
computes each distinct decrypt/verify once under a detached metrics
recorder and replays the recorded counts into every later consumer's
scopes.  Each party's books are bit-identical to having done the work
itself (the E1 invariant survives because *charges* are duplicated even
though *work* is not).  The engine
(:func:`repro.core.handshake.run_handshake`) hands one cache to all the
devices of a room whenever :mod:`repro.accel` is enabled.

Every large SPK exponent (``s3``/``s_z``/``s_w3``) attaches to a
long-lived base (the group public key, the Pedersen pair, the
accumulator value), so the cached verifications evaluate out of a
handful of shared :mod:`repro.accel.fixed_base` tables, registered where
the keys are generated and, per epoch, for the accumulator in
:mod:`repro.gsig.acjt` (re-verifying after a rejoin at the same
``acc_epoch`` reuses the table; any epoch change unregisters it).

Why not random-linear-combination batching?  The classic small-exponent
batch test (combine ``N`` verification equations with random
``l``-bit multipliers, check one product) needs signatures in ``(R, s)``
form, where the commitment values are *carried* and the verifier checks
an exponent identity over them.  ACJT/KTY signatures are Fiat-Shamir
``(c, s)`` form: the ``d`` values are not transmitted — they must be
*recomputed exactly* to feed the challenge hash, and a hash input admits
no algebraic combination.  Converting the wire format to ``(d, s)`` form
would enable RLC but change every transcript byte and message size,
which the accel contract (seed books byte-identical with accel off)
forbids.  So the honest win is amortization — shared tables, shared
verdicts — and cached acceptance equals sequential acceptance exactly.

New counters (extras, outside the guarded books):
``accel:batch-scan-hit`` / ``accel:batch-scan-miss`` — cache reuse.
"""

from __future__ import annotations

import threading
from typing import Callable, Dict, Hashable, Tuple

from repro import metrics


class ScanCache:
    """Verdict/counter memo for one verification scan.

    ``compute(key, fn)`` runs ``fn`` once per distinct key under a
    detached recorder, stores ``(result, counts)``, and *replays* the
    counts into the caller's scopes on every access (first or cached) —
    so every consumer's books look exactly as if it had done the work
    inline, while the work itself happens once per room instead of once
    per party.

    ``fn`` must be pure given the key: the key must fingerprint every
    input the result depends on (the handshake keys on the member's
    :meth:`~repro.core.member.GcdMember.verification_context`).
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._entries: Dict[Hashable, Tuple[object, Dict[str, int]]] = {}

    def compute(self, key: Hashable, fn: Callable[[], object]) -> object:
        with self._lock:
            cached = self._entries.get(key)
        if cached is not None:
            result, counts = cached
            metrics.bump("accel:batch-scan-hit")
            metrics.replay(counts)
            return result
        metrics.bump("accel:batch-scan-miss")
        with metrics.detached() as rec:
            result = fn()
        counts = metrics.replayable_totals(rec)
        with self._lock:
            self._entries.setdefault(key, (result, counts))
        metrics.replay(counts)
        return result

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

