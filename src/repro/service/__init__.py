"""Service layer: the GCD handshake over real asyncio TCP sockets.

The simulator (:mod:`repro.net.simulator`) executes the protocol in-process;
this package runs the *same* :class:`repro.core.handshake.HandshakeDevice`
state machines over genuine network streams, through an untrusted rendezvous
relay — exactly the paper's anonymous-broadcast-channel assumption realised
as infrastructure:

* :mod:`repro.service.framing`  — length-prefixed frame codec (max-frame and
  truncation protection) carrying :mod:`repro.core.wire` payloads;
* :mod:`repro.service.protocol` — typed client<->server control messages;
* :mod:`repro.service.server`   — the rendezvous server: many concurrent
  handshake rooms, per-room FIFO broadcast relay, timeouts, backpressure,
  graceful drain;
* :mod:`repro.service.client`   — async participant driver with connect
  retry/backoff, an overall deadline, and :func:`query_status` for the
  one-shot STATUS introspection query (docs/OBSERVABILITY.md);
* :mod:`repro.service.faults`   — opt-in fault injection (delay, drop,
  duplicate, disconnect-at-phase) for graceful-degradation tests.

The server is an *untrusted relay*: it sees only wire-format ciphertext
payloads and learns nothing a passive eavesdropper would not (tested —
room tokens are random, deliveries carry no sender identity beyond what
the protocol messages themselves embed).
"""

from repro.service.client import (  # noqa: F401
    Backoff,
    ClientConfig,
    join_room,
    query_status,
    run_room,
)
from repro.service.faults import FaultInjector  # noqa: F401
from repro.service.framing import (  # noqa: F401
    DEFAULT_MAX_FRAME,
    FrameDecoder,
    encode_frame,
    read_frame,
    write_frame,
)
from repro.service.server import RendezvousServer, ServerConfig  # noqa: F401
