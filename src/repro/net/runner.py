"""Network-driven handshake execution.

:class:`~repro.core.handshake.HandshakeDevice` is the protocol's one state
machine; this module runs one device per member over the
:class:`repro.net.simulator.Network`: genuinely asynchronous
message-passing in whatever interleaving the network produces (FIFO, or a
random order with ``reorder_rng``).  Each device advances through the
DGKA rounds as frames arrive and publishes its Phase II tag and Phase III
pair when — and only when — its local state permits, with any DGKA,
GDH.2's one-speaker rounds included.  An eavesdropper tap or MITM
interceptor on the network sees exactly the paper's wire format.

The device and its :class:`~repro.core.handshake.SessionPlan` are
re-exported here for the socket transport (:mod:`repro.service.client`).
"""

from __future__ import annotations

import random
from typing import List, Optional, Sequence

from repro.core.handshake import (
    HandshakeDevice,
    HandshakeOutcome,
    HandshakePolicy,
    SessionPlan,
    run_devices,
)
from repro.net.simulator import Network

__all__ = ["HandshakeDevice", "SessionPlan", "run_handshake_over_network"]


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
    return run_devices(members, policy, [rng] * len(members),
                       network or Network(), session_id, "simulator")
