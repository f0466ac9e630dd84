"""Deterministic message-passing simulator.

Models the paper's communication assumptions: an asynchronous network with
guaranteed, in-order delivery (a FIFO event queue), broadcast channels with
built-in receiver anonymity (everyone receives; nobody learns who read),
and optional sender anonymity (the delivered message carries no sender
field on ``anonymous`` channels).

The adversary interface matches the threat model of Appendix A: *taps*
observe every message (passive eavesdropping — they see ciphertext
payloads and traffic patterns), and *interceptors* may rewrite, drop or
inject messages (active control of the network).  Per-party operation
counting integrates with :mod:`repro.metrics` so benchmarks can attribute
modular exponentiations and message counts to individual participants.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, Iterable, List, Optional

from repro import metrics
from repro.crypto import hashing
from repro.errors import ProtocolError

BROADCAST = "*"


@dataclass(frozen=True)
class Message:
    """One network message.

    ``sender`` is ``None`` when delivered on an anonymous channel.
    ``channel`` tags the logical medium ("p2p", "broadcast", "anonymous",
    "bulletin", ...).  Payloads must be canonically encodable (ints, bytes,
    strings, tuples, dicts of those) so eavesdroppers can measure size.
    """

    msg_id: int
    sender: Optional[str]
    recipient: str
    channel: str
    payload: object
    meta: Dict[str, object] = field(default_factory=dict)

    @property
    def size(self) -> int:
        """Approximate wire size of the payload in bytes."""
        return len(hashing.encode_element(_encodable(self.payload)))


def _encodable(payload):
    if isinstance(payload, dict):
        return tuple(sorted((k, _encodable(v)) for k, v in payload.items()))
    if isinstance(payload, (tuple, list)):
        return tuple(_encodable(v) for v in payload)
    if payload is None or isinstance(payload, (int, bytes, str, bool)):
        return payload
    # Dataclasses and other objects: fall back to repr for sizing only.
    return repr(payload)


class Party:
    """Base class for simulated participants.

    Subclasses override :meth:`on_message`; they send through the network
    handle passed at registration.  ``metrics_scope`` names the scope all
    of the party's deliveries (and whatever work they trigger) are charged
    to; subclasses may override it, and :meth:`receive` too (e.g.
    :class:`repro.core.handshake.HandshakeDevice` uses ``hs:<i>`` on
    every transport and also books each receipt to its protocol phase).
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self.network: Optional["Network"] = None

    @property
    def metrics_scope(self) -> str:
        return f"party:{self.name}"

    def attached(self, network: "Network") -> None:
        """Hook called when the party is registered."""
        self.network = network

    def receive(self, message: Message, nbytes: int = 0) -> None:
        """Book one delivery of ``nbytes`` wire bytes and handle it.  The
        transport calls this inside :attr:`metrics_scope`."""
        metrics.count_message_received(nbytes)
        self.on_message(message)

    def on_message(self, message: Message) -> None:  # pragma: no cover - base
        """Handle a delivered message (default: ignore)."""

    def send(self, recipient: str, payload: object, channel: str = "p2p") -> None:
        self._net().send(self.name, recipient, payload, channel)

    def broadcast(self, payload: object, channel: str = "broadcast") -> None:
        self._net().send(self.name, BROADCAST, payload, channel)

    def send_anonymous(self, recipient: str, payload: object) -> None:
        self._net().send(self.name, recipient, payload, "anonymous")

    def _net(self) -> "Network":
        if self.network is None:
            raise ProtocolError(f"party {self.name!r} is not attached to a network")
        return self.network


Interceptor = Callable[[Message], Optional[Message]]
Tap = Callable[[Message], None]


class Network:
    """The event loop.

    Default: FIFO queue with guaranteed in-order delivery.  Passing a
    ``reorder_rng`` switches to the *asynchronous* model the paper's
    flexibility claim targets ("if the building blocks operate in the
    asynchronous communication model (with guaranteed delivery), so does
    the resulting secret handshake scheme"): each step delivers a
    uniformly random queued message, so protocols must tolerate arbitrary
    interleavings — delivery is still guaranteed, order is not.
    """

    #: Channels whose deliveries hide the sender identity.
    ANONYMOUS_CHANNELS = frozenset({"anonymous", "bulletin"})

    def __init__(self, reorder_rng=None) -> None:
        self._parties: Dict[str, Party] = {}
        self._queue: deque = deque()
        self._taps: List[Tap] = []
        self._interceptors: List[Interceptor] = []
        self._ids = itertools.count(1)
        self._delivered: List[Message] = []
        self._reorder_rng = reorder_rng

    # Topology ------------------------------------------------------------------

    def register(self, party: Party) -> Party:
        if party.name in self._parties:
            raise ProtocolError(f"duplicate party name {party.name!r}")
        self._parties[party.name] = party
        party.attached(self)
        return party

    def parties(self) -> Iterable[str]:
        return list(self._parties)

    # Adversary hooks --------------------------------------------------------------

    def add_tap(self, tap: Tap) -> None:
        """Register a passive observer called on every enqueued message."""
        self._taps.append(tap)

    def add_interceptor(self, interceptor: Interceptor) -> None:
        """Register an active rewriter.  Return a (possibly modified)
        message to deliver it, or ``None`` to drop it."""
        self._interceptors.append(interceptor)

    # Traffic -------------------------------------------------------------------

    def send(self, sender: str, recipient: str, payload: object,
             channel: str = "p2p") -> None:
        message = Message(
            msg_id=next(self._ids),
            sender=sender,
            recipient=recipient,
            channel=channel,
            payload=payload,
        )
        metrics.count_message_sent(message.size)
        metrics.bump(f"sent:{sender}")
        for tap in self._taps:
            tap(message)
        for interceptor in self._interceptors:
            maybe = interceptor(message)
            if maybe is None:
                return
            message = maybe
        self._queue.append(message)

    def inject(self, message: Message) -> None:
        """Adversarial injection: enqueue a forged message directly."""
        self._queue.append(message)

    def run(self, max_steps: int = 100_000) -> int:
        """Deliver queued messages until quiescent; returns deliveries made.

        Raises :class:`ProtocolError` if ``max_steps`` is exceeded (a
        protocol loop or message storm)."""
        steps = 0
        while self._queue:
            if steps >= max_steps:
                raise ProtocolError("network did not quiesce (message storm?)")
            if self._reorder_rng is None:
                message = self._queue.popleft()
            else:
                index = self._reorder_rng.randrange(len(self._queue))
                self._queue.rotate(-index)
                message = self._queue.popleft()
                self._queue.rotate(index)
            self._deliver(message)
            steps += 1
        return steps

    def _deliver(self, message: Message) -> None:
        targets: List[Party]
        if message.recipient == BROADCAST:
            targets = [p for name, p in self._parties.items() if name != message.sender]
        else:
            target = self._parties.get(message.recipient)
            if target is None:
                return  # Guaranteed delivery only to registered parties.
            targets = [target]
        delivered = message
        if message.channel in self.ANONYMOUS_CHANNELS:
            delivered = replace(message, sender=None)
        nbytes = delivered.size
        for party in targets:
            with metrics.scope(party.metrics_scope):
                metrics.bump(f"received:{party.name}")
                party.receive(delivered, nbytes)
        self._delivered.append(delivered)

    # Introspection ----------------------------------------------------------------

    @property
    def history(self) -> List[Message]:
        """Every delivered message (what a global eavesdropper saw)."""
        return list(self._delivered)
