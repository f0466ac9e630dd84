"""GDH.2 group Diffie-Hellman (Steiner-Tsudik-Waidner [30]).

An upflow chain followed by one broadcast:

* Upflow round ``i`` (0 <= i < m-1): party ``i`` extends the chain.  Its
  message to party ``i+1`` is the set ``{g^{prod r_1..r_i / r_j} : j <= i}``
  together with the running value ``g^{r_1..r_i}``.
* Final round: party ``m-1`` computes ``K = (g^{r_1..r_{m-1}})^{r_{m-1}}``
  — wait, it *raises the running value* to ``r_{m-1}`` to get the key and
  broadcasts the per-party values ``g^{r_1..r_m / r_j}``; party ``j``
  computes ``K = (g^{r_1..r_m / r_j})^{r_j}``.

Cost: party ``i`` performs ``i + 1`` exponentiations; the last party does
``m`` — the O(m) exponentiation profile benchmark E9 contrasts with BD's
constant.  Fits the same round-driver as BD: :meth:`GdhParty.speakers`
names the one party that speaks in each round.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional

from repro.crypto.modmath import mexp
from repro.crypto.params import DHParams, dh_group
from repro.dgka.base import DgkaParty
from repro.errors import ProtocolError


class GdhParty(DgkaParty):
    """One GDH.2 instance.

    Round layout for the synchronous driver: rounds ``0 .. m-2`` are upflow
    (only party ``round_no`` speaks; its payload is consumed by everybody
    but only party ``round_no + 1`` needs it before its own turn), round
    ``m-1`` is the final broadcast by party ``m-1``.
    """

    def __init__(self, index: int, m: int,
                 group: Optional[DHParams] = None,
                 rng: Optional[random.Random] = None) -> None:
        super().__init__(index, m)
        self.group = group or dh_group(256)
        rng = rng or random
        self._r = self.group.random_exponent(rng)
        self._incoming: Optional[List[int]] = None

    @property
    def rounds(self) -> int:
        return self.m

    def speakers(self, round_no: int):
        # The chain: party i speaks in round i, the last one broadcasts.
        return (round_no,)

    def emit(self, round_no: int):
        p, g = self.group.p, self.group.g
        if round_no != self.index:
            return None
        if self.index == 0:
            # Chain start: [g  (slot for j=0: g^{prod/r_0} = g), g^{r_0}].
            return (g, mexp(g, self._r, p))
        if self._incoming is None:
            raise ProtocolError(f"party {self.index} has no upflow input")
        values = self._incoming
        running = values[-1]
        partials = values[:-1]
        if self.index < self.m - 1:
            # Extend: new partials = old partials each ^ r_i, plus the old
            # running value (which is g^{prod/r_i} for the new set), then
            # the new running value.
            new_partials = [mexp(v, self._r, p) for v in partials]
            new_partials.append(running)
            new_running = mexp(running, self._r, p)
            return tuple(new_partials + [new_running])
        # Last party: broadcast g^{prod all / r_j} for every j < m-1, and
        # its own slot value = old running (so slot list has length m).
        finals = [mexp(v, self._r, p) for v in partials]
        finals.append(running)  # slot for self: g^{prod / r_{m-1}}
        return tuple(finals)

    def absorb(self, round_no: int, payloads: Dict[int, object]) -> None:
        expected_sender = round_no
        payload = payloads.get(expected_sender)
        if payload is None:
            if round_no == self.index:
                raise ProtocolError("driver dropped this party's own message")
            raise ProtocolError(f"missing GDH payload in round {round_no}")
        if not isinstance(payload, tuple) or not all(
            isinstance(v, int) and 1 <= v < self.group.p for v in payload
        ):
            raise ProtocolError(f"bad GDH payload from {expected_sender}")
        self._record(round_no, expected_sender, payload)
        if round_no < self.m - 1:
            if len(payload) != round_no + 2:
                raise ProtocolError("GDH upflow payload has wrong arity")
            if self.index == round_no + 1:
                self._incoming = list(payload)
        else:
            if len(payload) != self.m:
                raise ProtocolError("GDH broadcast payload has wrong arity")
            if self.index == self.m - 1:
                # The last party derived the key when emitting; recompute
                # here so key material is set after absorb for everyone.
                key = mexp(self._incoming[-1], self._r, self.group.p)
            else:
                key = mexp(payload[self.index], self._r, self.group.p)
            self._finish(key)


def make_parties(m: int, group: Optional[DHParams] = None,
                 rng: Optional[random.Random] = None):
    """Convenience: the m party objects for one GDH.2 session."""
    return [GdhParty(i, m, group, rng) for i in range(m)]
