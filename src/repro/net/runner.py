"""Network-driven handshake execution.

:func:`repro.core.handshake.run_handshake` drives the three-phase protocol
with a synchronous local loop — convenient for tests and counting.  This
module runs the *same* protocol as genuinely asynchronous message-passing
over the :class:`repro.net.simulator.Network`: each participant is a
:class:`HandshakeDevice` that buffers broadcasts, advances through the DGKA
rounds as messages arrive (in any interleaving the FIFO network produces),
and publishes its Phase II tag and Phase III pair when — and only when —
its local state permits.  What a device publishes and concludes in Phase
III comes from the engine's per-party functions
(:func:`repro.core.handshake.phase3_publish` and friends), so the two
drivers share one implementation.  An eavesdropper tap or MITM
interceptor on the network sees exactly the paper's wire format.

The device driver supports all-speak DGKA protocols (Burmester-Desmedt,
the default for both instantiations); chain protocols like GDH.2 have
per-round single speakers and use the synchronous engine instead —
constructing a device with a chain-style ``dgka_factory`` raises
:class:`~repro.errors.ProtocolError` up front rather than deadlocking
mid-session.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro import metrics
from repro.obs import spans as obs
from repro.core.handshake import (
    HandshakeOutcome,
    HandshakePolicy,
    conclude_without_tracing,
    member_group_key,
    phase3_case1,
    phase3_conclude,
    phase3_publish,
    phase3_scan,
    phase3_scan_job,
    xor_keys,
)
from repro.core.transcript import HandshakeEntry
from repro.crypto import mac
from repro.errors import ProtocolError
from repro.net.simulator import Message, Network, Party


@dataclass(frozen=True)
class SessionPlan:
    """Public session parameters every device agrees on up front: the
    ordered roster of device names (index = position) and a session tag
    used as the broadcast channel."""

    session_id: str
    roster: Sequence[str]

    @property
    def m(self) -> int:
        return len(self.roster)

    def index_of(self, name: str) -> int:
        return self.roster.index(name)

    @property
    def channel(self) -> str:
        return f"handshake/{self.session_id}"


class HandshakeDevice(Party):
    """One participant's device: state machine over network broadcasts."""

    def __init__(self, name: str, member, plan: SessionPlan,
                 policy: Optional[HandshakePolicy] = None,
                 rng: Optional[random.Random] = None) -> None:
        super().__init__(name)
        self.member = member
        self.plan = plan
        self.policy = policy or HandshakePolicy()
        self.rng = rng if rng is not None else random.Random()
        self.index = plan.index_of(name)
        self.dgka = self.policy.dgka_factory(self.index, plan.m, self.rng)
        if not getattr(self.dgka, "all_speak", True):
            raise ProtocolError(
                f"{type(self.dgka).__name__} is a chain-style DGKA with "
                "per-round single speakers; the broadcast network driver "
                "requires an all-speak protocol (e.g. Burmester-Desmedt) — "
                "run chain protocols through the synchronous engine "
                "(repro.core.handshake.run_handshake) instead")
        self._round_buffers: Dict[int, Dict[int, object]] = {}
        self._current_round = 0
        self._k_prime: Optional[bytes] = None
        self._tags: Dict[int, bytes] = {}
        self._valid_tags: set = set()
        self._entries: Dict[int, HandshakeEntry] = {}
        self._published_phase3 = False
        self._is_decoy = False
        self.outcome: Optional[HandshakeOutcome] = None
        # Span bookkeeping: phase boundaries end inside message callbacks,
        # so the device holds manual spans with explicit parents instead
        # of relying on the (task-local) context span.
        self._root_span = obs.NOOP_SPAN
        self._phase_span = obs.NOOP_SPAN

    @property
    def metrics_scope(self) -> str:
        """Same scope naming as the synchronous engine, so per-party counts
        from both drivers are directly comparable (tested for parity)."""
        return f"hs:{self.index}"

    # Protocol driving ---------------------------------------------------------

    def start(self) -> None:
        """Kick off Phase I by broadcasting the first DGKA round."""
        self._root_span = obs.start_span(f"hs:{self.index}",
                                         party=self.index)
        self._phase_span = obs.start_span("phase:I", parent=self._root_span,
                                          party=self.index)
        self._emit_round(0)

    def _emit_round(self, round_no: int) -> None:
        payload = self.dgka.emit(round_no)
        if payload is None:
            raise ProtocolError("network driver requires all-speak rounds")
        self._buffer(round_no, self.index, payload)
        self.broadcast(("dgka", self.plan.session_id, round_no,
                        self.index, payload), channel=self.plan.channel)
        self._maybe_advance()

    def on_message(self, message: Message) -> None:
        payload = message.payload
        if not isinstance(payload, tuple) or len(payload) < 2:
            return
        kind, session_id = payload[0], payload[1]
        if session_id != self.plan.session_id:
            return
        if kind == "dgka":
            _, _, round_no, sender, body = payload
            self._buffer(round_no, sender, body)
            self._maybe_advance()
        elif kind == "tag":
            _, _, sender, tag = payload
            self._tags.setdefault(sender, tag)
            self._maybe_finish_phase2()
        elif kind == "phase3":
            _, _, sender, theta, delta = payload
            self._entries.setdefault(
                sender, HandshakeEntry(index=sender, theta=theta,
                                       delta=tuple(delta))
            )
            self._maybe_conclude()

    # Phase I ---------------------------------------------------------------------

    def _buffer(self, round_no: int, sender: int, body: object) -> None:
        self._round_buffers.setdefault(round_no, {})[sender] = body

    def _maybe_advance(self) -> None:
        while not self.dgka.acc:
            ready = self._round_buffers.get(self._current_round, {})
            if len(ready) < self.plan.m:
                return
            self.dgka.absorb(self._current_round, dict(ready))
            self._current_round += 1
            if self.dgka.acc:
                self._finish_phase1()
                return
            if self._current_round < self.dgka.rounds:
                # Emit our contribution to the next round (if we have not
                # already, e.g. triggered by buffered future messages).
                if self.index not in self._round_buffers.get(
                    self._current_round, {}
                ):
                    self._emit_round(self._current_round)

    def _finish_phase1(self) -> None:
        self._phase_span.end()
        self._phase_span = obs.start_span("phase:II", parent=self._root_span,
                                          party=self.index)
        self._k_prime = xor_keys(self.dgka.session_key,
                                 member_group_key(self.member, self.rng))
        tag = mac.mac(self._k_prime, self.dgka.unique_string(self.index),
                      self.index)
        self._tags[self.index] = tag
        self.broadcast(("tag", self.plan.session_id, self.index, tag),
                       channel=self.plan.channel)
        self._maybe_finish_phase2()

    # Phase II ----------------------------------------------------------------------

    def _maybe_finish_phase2(self) -> None:
        if self._published_phase3 or self._k_prime is None:
            return
        if len(self._tags) < self.plan.m:
            return
        for sender, tag in self._tags.items():
            if mac.verify(self._k_prime, tag,
                          self.dgka.unique_string(sender), sender):
                self._valid_tags.add(sender)
        self._publish_phase3()

    # Phase III --------------------------------------------------------------------

    def _publish_phase3(self) -> None:
        self._published_phase3 = True
        self._phase_span.end()
        if not self.policy.traceable:
            self._phase_span = obs.NOOP_SPAN
            self.outcome = conclude_without_tracing(
                self.index, self._k_prime, self._valid_tags, self.dgka)
            self._root_span.end(success=self.outcome.success)
            return
        self._phase_span = obs.start_span("phase:III",
                                          parent=self._root_span,
                                          party=self.index)
        case1 = phase3_case1(self._k_prime, self._valid_tags, self.plan.m,
                             self.policy)
        self._is_decoy, theta, delta = phase3_publish(
            self.member, self._k_prime, self.dgka.sid if case1 else None,
            self.policy.self_distinction, self.rng)
        self._entries[self.index] = HandshakeEntry(index=self.index,
                                                   theta=theta, delta=delta)
        self.broadcast(("phase3", self.plan.session_id, self.index,
                        theta, delta), channel=self.plan.channel)
        self._maybe_conclude()

    def _maybe_conclude(self) -> None:
        if self.outcome is not None or not self._published_phase3:
            return
        if len(self._entries) < self.plan.m:
            return
        sid = self.dgka.sid
        entries = tuple(self._entries[i] for i in range(self.plan.m))
        job = phase3_scan_job(self.member, self._k_prime, sid,
                              self._valid_tags, self.index, self._is_decoy,
                              self.policy)
        scan = phase3_scan(job, entries) if job is not None else None
        self.outcome = phase3_conclude(self.index, self._k_prime, sid,
                                       entries, self.policy, job, scan)
        self._phase_span.end()
        self._root_span.end(success=self.outcome.success)


def run_handshake_over_network(
    members: Sequence[object],
    policy: Optional[HandshakePolicy] = None,
    rng: Optional[random.Random] = None,
    network: Optional[Network] = None,
    session_id: str = "session",
) -> List[HandshakeOutcome]:
    """Execute SHS.Handshake as message-passing over a (possibly
    adversary-instrumented) network.  Returns per-participant outcomes in
    roster order; a participant that could not conclude (e.g. messages
    dropped by a MITM) yields a failed outcome."""
    rng = rng if rng is not None else random.Random()
    network = network or Network()
    plan = SessionPlan(session_id=session_id,
                       roster=[f"device-{i}" for i in range(len(members))])
    started = time.perf_counter()
    with obs.span("handshake", m=len(members), transport="simulator"):
        devices = [
            network.register(HandshakeDevice(plan.roster[i], member, plan,
                                             policy, rng))
            for i, member in enumerate(members)
        ]
        for device in devices:
            # start() performs the device's round-0 DGKA work; without the
            # scope that cost would land only on ``total``, breaking
            # per-party parity with the synchronous engine.
            with metrics.scope(device.metrics_scope):
                device.start()
        network.run()
    metrics.observe("hs:latency", time.perf_counter() - started)
    return [
        device.outcome
        or HandshakeOutcome(index=device.index, success=False)
        for device in devices
    ]
