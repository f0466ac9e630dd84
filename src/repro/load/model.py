"""Symbolic capacity model: closed-form handshake costs in ``m``.

The paper states per-participant costs as closed forms in the room size
``m`` (Sections 8.1 / 8.2: "O(m) modular exponentiations, O(m)
messages").  The E1/E2 benches *measure* those counts; this module writes
them down as symbolic expressions, predicts the books of any load run
from ``(m, rooms, shards, scheme)``, and validates the prediction against
the measured per-room recorder books — **exactly** for operation and
message counts, within a documented tolerance for wire bytes.

Closed forms (per party, per completed handshake)
-------------------------------------------------

* Phase I, Burmester–Desmedt DGKA: ``m + 2`` modexp — one for the
  ephemeral ``z_i = g^{r_i}``, one for the ratio ``X_i``, and ``m`` in
  the cyclic key fold.
* Phase III, SPK sign + verify: one signature (``SIGN`` modexp, constant
  in ``m``) plus one verification per peer (``VERIFY`` modexp each).
  Scheme 1 (ACJT group signature): ``SIGN + VERIFY·(m-1) = 31 + 23(m-1)``.
  Scheme 2 (KTY): ``25 + 18(m-1)``.
* Messages: 4 broadcasts sent, ``4(m-1)`` received per party — one per
  protocol round, independent of scheme (the E2 claim).

So per-party modexp is ``24m + 10`` (scheme 1) and ``19m + 9`` (scheme 2);
a completed room of size ``m`` books ``m`` times that, and a load run of
``rooms(m)`` completed rooms per size books the mix-weighted sum.  The
``shards`` symbol does not change the books at all — the cluster router
is a byte splice (the PR-5 parity theorem) — which is itself a prediction
this model validates: cost is a function of ``(m, rooms, scheme)`` only.

Wire bytes are affine too, but their constants are *calibration*
constants, not derivations: frame sizes vary by a few bytes with bigint
leading zeros and varint lengths, so byte predictions carry a ±5%
tolerance (``BYTES_TOLERANCE``) instead of exactness.  Operation and
message counts carry **zero** tolerance: one modexp of drift fails the
run, because a drifting count means the instrumentation or the protocol
changed — the same contract as CI's E1 drift guard.

Backends: expressions are built with :mod:`sympy` when it is importable
(pretty symbolic output, ``subs``-based evaluation) and fall back to a
small pure-Python polynomial type with the same surface otherwise — the
model never requires an install.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Tuple

try:                                    # optional extra, never required
    import sympy as _sympy
except Exception:                       # pragma: no cover - env dependent
    _sympy = None

#: Relative tolerance for wire-byte predictions (see module docstring).
BYTES_TOLERANCE = 0.05

#: Per-party modexp constants, derived in the module docstring.
DGKA_SLOPE, DGKA_CONST = 1, 2           # Burmester-Desmedt: m + 2
SIGN_MODEXP = {"1": 31, "2": 25}        # SPK sign + key-confirm, constant
VERIFY_MODEXP = {"1": 23, "2": 18}      # SPK verify, per peer

#: Messages per party (round structure, scheme-independent).
SENT_PER_PARTY = 4

#: Wire-byte calibration constants (bytes per broadcast frame as sent by
#: one party over the rendezvous transport, amortised over the 4 rounds;
#: DELIVER re-wrapping adds a small constant per relayed copy).
BYTES_SENT_PER_PARTY = {"1": 3030, "2": 2090}
DELIVER_OVERHEAD = 8


class _Poly:
    """Minimal univariate integer polynomial in ``m`` — the pure-Python
    stand-in for a sympy expression (supports +, *, int evaluation and a
    sympy-style string form)."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Mapping[int, int]) -> None:
        self.coeffs = {p: int(c) for p, c in coeffs.items() if c}

    @classmethod
    def const(cls, value: int) -> "_Poly":
        return cls({0: value})

    @classmethod
    def m(cls) -> "_Poly":
        return cls({1: 1})

    def _as_poly(self, other) -> "_Poly":
        return other if isinstance(other, _Poly) else _Poly.const(other)

    def __add__(self, other) -> "_Poly":
        other = self._as_poly(other)
        merged = dict(self.coeffs)
        for p, c in other.coeffs.items():
            merged[p] = merged.get(p, 0) + c
        return _Poly(merged)

    __radd__ = __add__

    def __sub__(self, other) -> "_Poly":
        other = self._as_poly(other)
        return self + _Poly({p: -c for p, c in other.coeffs.items()})

    def __mul__(self, other) -> "_Poly":
        other = self._as_poly(other)
        product: Dict[int, int] = {}
        for p1, c1 in self.coeffs.items():
            for p2, c2 in other.coeffs.items():
                product[p1 + p2] = product.get(p1 + p2, 0) + c1 * c2
        return _Poly(product)

    __rmul__ = __mul__

    def eval(self, m: int) -> int:
        return sum(c * m ** p for p, c in self.coeffs.items())

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts: List[str] = []
        for p in sorted(self.coeffs, reverse=True):
            c = self.coeffs[p]
            if p == 0:
                term = str(abs(c))
            elif p == 1:
                term = f"{abs(c)}*m" if abs(c) != 1 else "m"
            else:
                term = f"{abs(c)}*m**{p}" if abs(c) != 1 else f"m**{p}"
            parts.append(("- " if c < 0 else "+ ") + term)
        text = " ".join(parts)
        return text[2:] if text.startswith("+ ") else "-" + text[2:]


def _symbol_m():
    if _sympy is not None:
        return _sympy.Symbol("m", positive=True, integer=True)
    return _Poly.m()


def _evaluate(expr, m: int) -> int:
    if _sympy is not None and isinstance(expr, _sympy.Basic):
        return int(expr.subs({_sympy.Symbol("m", positive=True,
                                            integer=True): m}))
    if isinstance(expr, _Poly):
        return expr.eval(m)
    return int(expr)


def backend() -> str:
    """Which expression backend is active ("sympy" | "python")."""
    return "sympy" if _sympy is not None else "python"


class HandshakeModel:
    """Closed-form cost model for one scheme's handshake.

    Expressions are per *party*; :meth:`per_room` multiplies by ``m``,
    :meth:`predict` folds a whole run's room mix.  All counts refer to
    the client-side ``hs:<i>`` books over the rendezvous transport (the
    engine/simulator/socket parity theorem makes them transport-
    independent for operations and messages; bytes are socket-specific).
    """

    def __init__(self, scheme: str = "1") -> None:
        scheme = str(scheme)
        if scheme not in SIGN_MODEXP:
            raise ValueError(f"unknown scheme {scheme!r} (expected '1'/'2')")
        self.scheme = scheme
        m = _symbol_m()
        self._m = m
        #: Per-party symbolic expressions.
        self.dgka_modexp = m + DGKA_CONST              # phase I
        self.phase3_modexp = (SIGN_MODEXP[scheme]
                              + VERIFY_MODEXP[scheme] * (m - 1))
        self.modexp = self.dgka_modexp + self.phase3_modexp
        self.messages_sent = _const_expr(SENT_PER_PARTY)
        self.messages_received = SENT_PER_PARTY * (m - 1)
        self.bytes_sent = _const_expr(BYTES_SENT_PER_PARTY[scheme])
        self.bytes_received = ((BYTES_SENT_PER_PARTY[scheme]
                                + DELIVER_OVERHEAD) * (m - 1))

    # Closed forms ---------------------------------------------------------

    def expressions(self) -> Dict[str, str]:
        """The per-party closed forms as printable strings."""
        return {
            "modexp": str(self.modexp),
            "messages_sent": str(self.messages_sent),
            "messages_received": str(self.messages_received),
            "bytes_sent~": str(self.bytes_sent),
            "bytes_received~": str(self.bytes_received),
        }

    def per_party(self, m: int) -> Dict[str, int]:
        """Predicted books for one party in a completed room of size m."""
        if m < 2:
            raise ValueError("a handshake needs m >= 2")
        return {
            "modexp": _evaluate(self.modexp, m),
            "messages_sent": _evaluate(self.messages_sent, m),
            "messages_received": _evaluate(self.messages_received, m),
            "bytes_sent": _evaluate(self.bytes_sent, m),
            "bytes_received": _evaluate(self.bytes_received, m),
        }

    def per_room(self, m: int) -> Dict[str, int]:
        """Summed over the room's m parties."""
        return {name: m * value for name, value in self.per_party(m).items()}

    def predict(self, rooms_by_m: Mapping[int, int],
                shards: int = 1) -> Dict[str, int]:
        """Aggregate prediction for a run: ``rooms_by_m`` maps room size
        to the number of *completed* rooms of that size.  ``shards`` is
        accepted to make the claim explicit: it multiplies nothing —
        the router is a byte splice, the books are shard-invariant."""
        del shards                       # shard-invariance IS the model
        totals = {"modexp": 0, "messages_sent": 0, "messages_received": 0,
                  "bytes_sent": 0, "bytes_received": 0}
        for m, rooms in rooms_by_m.items():
            per_room = self.per_room(m)
            for name in totals:
                totals[name] += rooms * per_room[name]
        return totals

    # Validation -----------------------------------------------------------

    def validate_party(self, m: int, books: Mapping[str, int],
                       label: str = "party") -> List[str]:
        """Check one party's measured books against the closed forms.

        Returns human-readable mismatch strings (empty = clean).  Exact
        equality for modexp and message counts; bytes within
        ±``BYTES_TOLERANCE``."""
        predicted = self.per_party(m)
        mismatches: List[str] = []
        for name in ("modexp", "messages_sent", "messages_received"):
            measured = int(books.get(name, 0))
            if measured != predicted[name]:
                mismatches.append(
                    f"{label}: {name} measured {measured} != "
                    f"predicted {predicted[name]} (m={m}, "
                    f"scheme {self.scheme})")
        for name in ("bytes_sent", "bytes_received"):
            measured = int(books.get(name, 0))
            want = predicted[name]
            if abs(measured - want) > BYTES_TOLERANCE * want:
                mismatches.append(
                    f"{label}: {name} measured {measured} outside "
                    f"{want}±{BYTES_TOLERANCE:.0%} (m={m}, "
                    f"scheme {self.scheme})")
        return mismatches

    def validate_room(self, m: int,
                      books: Mapping[str, Mapping[str, int]],
                      label: str = "room") -> List[str]:
        """Validate a completed room's per-party ``hs:<i>`` books."""
        mismatches: List[str] = []
        for i in range(m):
            party = books.get(f"hs:{i}")
            if party is None:
                mismatches.append(f"{label}: no books for hs:{i}")
                continue
            mismatches.extend(
                self.validate_party(m, party, f"{label}/hs:{i}"))
        return mismatches


def _const_expr(value: int):
    if _sympy is not None:
        return _sympy.Integer(value)
    return _Poly.const(value)


def capacity_report(*, scheme: str, mean_m: float, shards: int,
                    max_rooms_per_shard: Optional[int],
                    mean_room_lifetime_s: Optional[float],
                    measured_modexp: int, measured_busy_s: float,
                    cores: int = 1) -> Dict[str, object]:
    """Invert the cost model into a capacity estimate.

    Two independent ceilings bound the sustainable *completed-rooms/sec*
    arrival rate; the report returns both and their minimum:

    * **admission bound** — a shard holds at most ``max_rooms_per_shard``
      open rooms, each occupying its slot for the mean room lifetime
      ``E[S]``; by Little's law the fleet saturates at
      ``shards · max_rooms / E[S]`` rooms/sec (the Erlang-loss corner:
      offered load beyond it is shed as BUSY, which the open-loop
      driver's overload test demonstrates).  Unlimited admission -> no
      bound from this term.
    * **compute bound** — a completed room of mean size ``m̄`` costs
      ``m̄ · modexp_per_party(m̄)`` modexp; with the run's measured
      seconds-per-modexp calibration ``measured_busy_s /
      measured_modexp``, ``cores`` CPUs sustain at most
      ``cores / (room_modexp · s_per_modexp)`` rooms/sec.

    All inputs are measured quantities from the run plus the symbolic
    count — no wall-clock prophecy, just arithmetic on the books.
    """
    model = HandshakeModel(scheme)
    m_round = max(2, round(mean_m))
    room_modexp = model.per_room(m_round)["modexp"]
    out: Dict[str, object] = {
        "scheme": scheme,
        "mean_m": round(mean_m, 3),
        "room_modexp_at_mean_m": room_modexp,
        "modexp_per_party_expr": str(model.modexp),
        "backend": backend(),
    }
    admission = None
    if max_rooms_per_shard is not None and mean_room_lifetime_s:
        admission = shards * max_rooms_per_shard / mean_room_lifetime_s
        out["admission_bound_rooms_per_s"] = round(admission, 3)
    compute = None
    if measured_modexp > 0 and measured_busy_s > 0:
        s_per_modexp = measured_busy_s / measured_modexp
        compute = cores / (room_modexp * s_per_modexp)
        out["s_per_modexp"] = round(s_per_modexp, 9)
        out["compute_bound_rooms_per_s"] = round(compute, 3)
    bounds = [b for b in (admission, compute) if b is not None]
    if bounds:
        out["capacity_rooms_per_s"] = round(min(bounds), 3)
    return out


__all__ = ["HandshakeModel", "capacity_report", "backend",
           "BYTES_TOLERANCE", "SIGN_MODEXP", "VERIFY_MODEXP",
           "BYTES_SENT_PER_PARTY", "DELIVER_OVERHEAD", "SENT_PER_PARTY"]
