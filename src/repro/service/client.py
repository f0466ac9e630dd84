"""Async participant driver: one GCD party over the rendezvous service.

:func:`join_room` connects a member to the server, joins a named room, and
drives a :class:`repro.core.handshake.HandshakeDevice` — the exact state
machine the in-process simulator runs — by translating between device
broadcasts and BROADCAST/DELIVER frames.  Because the device code and the
payload encoding are shared, per-party operation counts (modexp, messages
sent/received in scope ``hs:<i>``) are identical across the synchronous
engine, the simulator, and this transport — asserted by the
engine-equivalence tests.

Failure handling: connect retries with exponential backoff + jitter —
capped at ``backoff_max`` and clamped to the remaining overall
``deadline`` so a retry can never sleep past it (:class:`Backoff`) — and
explicit failed :class:`~repro.core.handshake.HandshakeOutcome` results on
room abort, connection loss, or timeout — a client never hangs and never
raises out of :func:`join_room` for protocol-level failures.  Transient
conditions — a typed BUSY shed (admission control / drain), a
``server-shutdown`` abort, or the transport vanishing before the room
activated — are *retried in place*: the client backs off and re-sends
HELLO within the deadline, which is what lets a cluster router re-place
the room onto a live shard.  Failed outcomes carry
``retryable=True`` when the failure was environmental (overload, lost
transport, expired deadline) rather than a protocol verdict.

Observability (docs/OBSERVABILITY.md): connect attempts and handshakes
are span-traced (``connect`` / ``handshake`` with ``transport="socket"``),
admission wait (call entry -> ROOM_READY, including connect retries and
backoff sleeps) feeds ``svc-client:admission-wait`` and handshake latency
(admission -> outcome) feeds ``hs:latency`` — both on the loop clock, the
same clock the deadline machinery uses — and lifecycle
events (retries, aborts, outcomes) go through the redacting structured
logger — identified by roster index and random room token only.
:func:`query_status` fetches the live telemetry snapshot a running relay
serves on the STATUS control query.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import random
from dataclasses import dataclass, replace
from typing import List, Optional, Sequence

from repro import metrics
from repro.core.handshake import HandshakeOutcome, HandshakePolicy
from repro.errors import EncodingError, ProtocolError, TransportError
from repro.net.runner import HandshakeDevice, SessionPlan
from repro.net.simulator import BROADCAST, Message
from repro.obs import logging as obslog
from repro.obs import spans as obs
from repro.service import framing, protocol

_log = obslog.get_logger("repro.service.client")


@dataclass
class ClientConfig:
    """Connection/session tunables for one participant."""

    host: str = "127.0.0.1"
    port: int = 0
    room: str = "handshake"
    m: int = 2
    max_frame: int = framing.DEFAULT_MAX_FRAME
    connect_retries: int = 4
    backoff_base: float = 0.05     # first retry delay, seconds
    backoff_factor: float = 2.0
    backoff_max: float = 2.0       # ceiling for one backoff delay (pre-jitter)
    backoff_jitter: float = 0.5    # uniform extra fraction of the delay
    deadline: float = 30.0         # overall cap: connect -> outcome
    #: Trace context to send in HELLO (16 hex chars, repro.obs.spans).
    #: ``None`` = mint one automatically when the caller's recorder is
    #: tracing, else send no context.  The context is computed once per
    #: :func:`join_room` call and reused across in-place rejoin retries,
    #: so a room re-placed after shard death stays one trace.
    trace: Optional[str] = None


class Backoff:
    """Capped exponential backoff with jitter, clamped to a deadline.

    The bare delay progresses ``base, base*factor, ...`` but never exceeds
    ``maximum`` (the historical bug: ``delay *= factor`` grew unbounded).
    Jitter then adds a uniform extra fraction *on top* of the capped delay
    (de-synchronizing retry herds — the ceiling on one sleep is therefore
    ``maximum * (1 + jitter)``), and finally the sleep is clamped to the
    time remaining until ``deadline_at`` so a retry can never sleep past
    the caller's overall deadline.

    Pure bookkeeping over caller-supplied clocks — :meth:`next_delay`
    takes ``now`` explicitly, so the schedule is unit-testable with a fake
    clock and works against ``loop.time()`` or ``time.monotonic()`` alike.
    """

    def __init__(self, base: float, factor: float, maximum: float,
                 jitter: float = 0.0,
                 rng: Optional[random.Random] = None,
                 deadline_at: Optional[float] = None) -> None:
        self.factor = factor
        self.maximum = maximum
        self.jitter = jitter
        self.rng = rng
        self.deadline_at = deadline_at
        self._next = min(base, maximum)

    def next_delay(self, now: float) -> Optional[float]:
        """The next sleep in seconds, or ``None`` when ``deadline_at`` has
        already passed (the caller should stop retrying, not sleep)."""
        delay = self._next
        self._next = min(self._next * self.factor, self.maximum)
        if self.rng is not None and self.jitter:
            delay *= 1.0 + self.jitter * self.rng.random()
        if self.deadline_at is not None:
            remaining = self.deadline_at - now
            if remaining <= 0.0:
                return None
            delay = min(delay, remaining)
        return delay


class _SessionRetry(Exception):
    """Internal signal: this join attempt hit a *transient* condition (BUSY
    shed, draining server, transport vanished before the room activated)
    — back off and re-send HELLO within the deadline."""

    def __init__(self, counter: str, reason: str) -> None:
        super().__init__(reason)
        self.counter = counter      # svc-client:<counter> metric to bump
        self.reason = reason


#: Abort reasons the client answers by rejoining (the room's host is going
#: away; a fresh HELLO reaches a live server / gets re-placed by a router).
_RETRYABLE_ABORTS = frozenset({"server-shutdown"})

#: Abort reasons that yield a terminal outcome for *this* call but are
#: environmental, so the outcome is flagged ``retryable=True`` for the
#: caller: nobody showed up — peers may well arrive on a later attempt.
_RETRYABLE_OUTCOME_ABORTS = frozenset({"fill-timeout"})


class _DeviceLink:
    """Duck-types the :class:`~repro.net.simulator.Network` surface a
    :class:`Party` uses (``send``): outgoing broadcasts are encoded to
    frames and buffered; the client coroutine flushes them to the socket
    after each device step.  Counting happens here, at enqueue, inside the
    device's ``hs:<i>`` scope — mirroring ``Network.send``."""

    def __init__(self, max_frame: int) -> None:
        self.max_frame = max_frame
        self.outbox: List[bytes] = []

    def send(self, sender: str, recipient: str, payload: object,
             channel: str = "p2p") -> None:
        if recipient != BROADCAST:
            raise ProtocolError(
                "the rendezvous transport only relays broadcasts")
        blob = protocol.encode_message(protocol.Broadcast(payload=payload))
        frame = framing.encode_frame(blob, self.max_frame)
        metrics.count_message_sent(len(frame))
        metrics.bump(f"sent:{sender}")
        self.outbox.append(frame)


def _session_backoff(config: ClientConfig, rng: random.Random,
                     deadline_at: Optional[float]) -> Backoff:
    return Backoff(config.backoff_base, config.backoff_factor,
                   config.backoff_max, config.backoff_jitter, rng,
                   deadline_at)


async def _connect(config: ClientConfig, rng: random.Random,
                   deadline_at: Optional[float] = None,
                   trace: Optional[str] = None):
    """Open the TCP connection, retrying with capped backoff + jitter.

    Each sleep is clamped to the time remaining until ``deadline_at`` (an
    ``loop.time()`` instant); once the deadline has passed, retrying stops
    early with :class:`~repro.errors.TransportError` instead of sleeping
    past the caller's overall deadline."""
    loop = asyncio.get_running_loop()
    backoff = _session_backoff(config, rng, deadline_at)
    last_error: Optional[Exception] = None
    attempts = 0
    with obs.span("connect", trace=trace) as span:
        for attempt in range(config.connect_retries + 1):
            attempts = attempt + 1
            try:
                streams = await asyncio.open_connection(
                    config.host, config.port)
                span.end(attempts=attempts)
                return streams
            except OSError as exc:
                last_error = exc
                if attempt == config.connect_retries:
                    break
                delay = backoff.next_delay(loop.time())
                if delay is None:        # deadline exhausted: stop early
                    break
                metrics.bump("svc-client:retries")
                obslog.log_event(_log, "connect-retry", attempt=attempts,
                                 delay_s=round(delay, 4),
                                 error=type(exc).__name__)
                await asyncio.sleep(delay)
        span.end(attempts=attempts, failed=True)
    raise TransportError(
        f"could not connect to {config.host}:{config.port} after "
        f"{attempts} attempts: {last_error}")


async def join_room(member, config: ClientConfig,
                    policy: Optional[HandshakePolicy] = None,
                    rng: Optional[random.Random] = None,
                    joined: Optional[asyncio.Event] = None) -> HandshakeOutcome:
    """Run one participant through a complete rendezvous handshake.

    Always returns a :class:`HandshakeOutcome`; transport failures, room
    aborts, a relay that breaks protocol and the overall deadline all
    surface as ``success=False`` outcomes (``index`` is ``-1`` if the
    failure precedes index assignment).  Only programming errors escape
    as exceptions.
    ``joined`` (if given) is set once the server has assigned an index —
    :func:`run_room` uses it to make join order deterministic.

    Transient failures (BUSY shed, draining server, transport vanished
    before the room activated) are retried in place with capped backoff
    until the deadline; failed outcomes carry ``retryable=True`` when the
    failure was environmental rather than a protocol verdict.
    """
    rng = rng if rng is not None else random.Random()
    # One trace context for the whole call — including rejoin retries, so
    # a room re-placed across shard death remains a single trace.  Minted
    # from ``secrets`` (never the seeded rng) only when tracing is on.
    trace_ctx = obs.valid_trace(config.trace) or ""
    if not trace_ctx and metrics.current_recorder().tracing:
        trace_ctx = obs.mint_trace_id()
    loop = asyncio.get_running_loop()
    state = {"index": -1, "joined": joined, "retryable": False,
             "trace": trace_ctx, "started_at": loop.time()}
    deadline_at = loop.time() + config.deadline
    try:
        return await asyncio.wait_for(
            _join_with_retries(member, config, policy, rng, state,
                               deadline_at),
            config.deadline)
    except asyncio.TimeoutError:
        metrics.bump("svc-client:deadline-expired")
        state["retryable"] = True
    except (TransportError, ConnectionError, OSError,
            EncodingError, asyncio.IncompleteReadError):
        metrics.bump("svc-client:transport-failures")
        state["retryable"] = True
    except ProtocolError:
        # The relay sent a frame the protocol does not allow there: a
        # verdict on this relay, so retrying it would not help.
        metrics.bump("svc-client:protocol-errors")
        state["retryable"] = False
    return HandshakeOutcome(index=state["index"], success=False,
                            retryable=state["retryable"])


async def _join_with_retries(member, config: ClientConfig,
                             policy: Optional[HandshakePolicy],
                             rng: random.Random, state: dict,
                             deadline_at: float) -> HandshakeOutcome:
    """Run join attempts until one concludes, backing off on transient
    shed/drain/vanish signals.  The overall ``wait_for`` in
    :func:`join_room` still caps the whole loop; the backoff's deadline
    clamp just makes the last sleep end *at* the deadline instead of
    overshooting it."""
    loop = asyncio.get_running_loop()
    backoff = _session_backoff(config, rng, deadline_at)
    while True:
        try:
            return await _join(member, config, policy, rng, state,
                               deadline_at)
        except _SessionRetry as retry:
            metrics.bump(f"svc-client:{retry.counter}")
            obslog.log_event(_log, "session-retry", counter=retry.counter,
                             retry_reason=retry.reason)
            state["index"] = -1        # any prior index died with its room
            delay = backoff.next_delay(loop.time())
            if delay is None:
                state["retryable"] = True
                return HandshakeOutcome(index=-1, success=False,
                                        retryable=True)
            await asyncio.sleep(delay)


async def _join(member, config: ClientConfig,
                policy: Optional[HandshakePolicy],
                rng: random.Random, state: dict,
                deadline_at: Optional[float] = None) -> HandshakeOutcome:
    state["retryable"] = False
    trace_ctx = state.get("trace") or ""
    reader, writer = await _connect(config, rng, deadline_at,
                                    trace=trace_ctx or None)
    msg_ids = itertools.count(1)
    try:
        await _send(writer, protocol.Hello(room=config.room, m=config.m,
                                           trace=trace_ctx),
                    config.max_frame)
        welcome = await _expect(reader, config, protocol.Welcome, state)
        if welcome is None:
            return HandshakeOutcome(index=-1, success=False,
                                    retryable=state["retryable"])
        state["index"] = welcome.index
        if state.get("joined") is not None:
            state["joined"].set()
        ready = await _expect(reader, config, protocol.RoomReady, state)
        if ready is None:
            return HandshakeOutcome(index=welcome.index, success=False,
                                    retryable=state["retryable"])
        loop = asyncio.get_running_loop()
        # Admission wait: call entry -> ROOM_READY, on the *loop* clock —
        # the same clock the deadline/backoff machinery runs on.  This is
        # where connect retries, BUSY backoff sleeps and the wait for
        # peers land, keeping them out of the handshake latency below.
        metrics.observe("svc-client:admission-wait",
                        loop.time() - state["started_at"])

        plan = SessionPlan(
            session_id=ready.token,
            roster=tuple(f"device-{i}" for i in range(welcome.m)))
        link = _DeviceLink(config.max_frame)
        device = HandshakeDevice(f"device-{welcome.index}", member, plan,
                                 policy, rng)
        device.attached(link)
        # Handshake latency starts at admission and is measured on the
        # loop clock too: one consistent clock for the SLO report, and a
        # re-HELLO resets it, so backoff sleeps never inflate hs:latency.
        hs_started = loop.time()
        with obs.span("handshake", trace=trace_ctx or None, m=welcome.m,
                      transport="socket", party=welcome.index,
                      token=ready.token):
            with metrics.scope(device.metrics_scope):
                device.start()
            await _flush(writer, link)

            while device.outcome is None:
                blob = await framing.read_frame(reader, config.max_frame)
                if blob is None:
                    # Server closed mid-handshake: the room died under us.
                    # Environmental, so the outcome is flagged retryable —
                    # but we do NOT rejoin in place: the peers saw the same
                    # loss and this room's membership is gone for good.
                    state["retryable"] = True
                    break
                message = protocol.decode_message(blob)
                if isinstance(message, protocol.Deliver):
                    delivered = Message(
                        msg_id=next(msg_ids), sender=None,
                        recipient=device.name, channel=plan.channel,
                        payload=_retuple(message.payload))
                    with metrics.scope(device.metrics_scope):
                        metrics.bump(f"received:{device.name}")
                        device.receive(delivered,
                                       len(blob) + framing.HEADER_SIZE)
                    await _flush(writer, link)
                elif isinstance(message, protocol.Migrated):
                    # Live migration: the room moved to a peer shard and
                    # resumes exactly where it stopped.  Informational —
                    # same connection, same index, no crypto redone; keep
                    # reading.
                    metrics.bump("svc-client:migrations")
                    obslog.log_event(_log, "room-migrated",
                                     party=welcome.index, token=ready.token)
                elif isinstance(message, protocol.Abort):
                    metrics.bump("svc-client:room-aborts")
                    obslog.log_event(_log, "room-abort",
                                     party=welcome.index, token=ready.token,
                                     abort_reason=message.reason)
                    if message.reason in _RETRYABLE_ABORTS:
                        raise _SessionRetry("rejoin-retries", message.reason)
                    state["retryable"] = (
                        message.reason in _RETRYABLE_OUTCOME_ABORTS)
                    break
                elif isinstance(message, protocol.Error):
                    metrics.bump("svc-client:server-errors")
                    obslog.log_event(_log, "server-error",
                                     party=welcome.index, token=ready.token)
                    break
                else:
                    raise ProtocolError(
                        f"unexpected {type(message).__name__} from server")

        metrics.observe("hs:latency", loop.time() - hs_started)
        if device.outcome is not None:
            try:
                await _send(writer, protocol.Done(), config.max_frame)
            except (ConnectionError, OSError):
                pass        # outcome already decided; DONE is best-effort
        outcome = device.outcome or HandshakeOutcome(
            index=device.index, success=False,
            retryable=state["retryable"])
        obslog.log_event(_log, "outcome", party=welcome.index,
                         token=ready.token, success=outcome.success,
                         latency_s=round(loop.time() - hs_started, 6))
        return outcome
    finally:
        try:
            writer.close()
        except Exception:
            pass


async def _flush(writer: asyncio.StreamWriter, link: _DeviceLink) -> None:
    """Write every frame the device queued during its last step, honouring
    transport backpressure before handing control back to the read loop."""
    if not link.outbox:
        return
    for frame in link.outbox:
        writer.write(frame)
    link.outbox.clear()
    await writer.drain()


def _retuple(value):
    """Wire tuples survive the codec as tuples already; normalise any
    nested lists defensively so device payload checks hold."""
    if isinstance(value, list):
        return tuple(_retuple(v) for v in value)
    if isinstance(value, tuple):
        return tuple(_retuple(v) for v in value)
    return value


async def _send(writer: asyncio.StreamWriter, message,
                max_frame: int) -> None:
    blob = protocol.encode_message(message)
    metrics.bump(f"svc-client:{type(message).__name__.lower()}")
    await framing.write_frame(writer, blob, max_frame)


async def _expect(reader: asyncio.StreamReader, config: ClientConfig,
                  expected_type, state: dict):
    """Read the next control message; ``None`` if the session ended
    terminally first (ABORT, ERROR) — the caller reports a failed outcome,
    marked retryable via ``state`` when the abort was environmental.
    Transient endings — a BUSY shed, a draining server's abort, or the
    server vanishing before the room activated — raise
    :class:`_SessionRetry` so the join loop backs off and re-HELLOs."""
    while True:
        blob = await framing.read_frame(reader, config.max_frame)
        if blob is None:
            # EOF before the room activated: the host went away between
            # accepting us and filling the room (shard death, restart).
            raise _SessionRetry("rejoin-retries", "server-vanished")
        message = protocol.decode_message(blob)
        if isinstance(message, expected_type):
            return message
        if isinstance(message, protocol.Migrated):
            # The (still-filling) room moved to a peer shard; WELCOME /
            # ROOM_READY will arrive from there over the same connection.
            metrics.bump("svc-client:migrations")
            continue
        if isinstance(message, protocol.Busy):
            raise _SessionRetry("busy-retries", message.reason)
        if isinstance(message, protocol.Abort):
            metrics.bump("svc-client:room-aborts")
            if message.reason in _RETRYABLE_ABORTS:
                raise _SessionRetry("rejoin-retries", message.reason)
            state["retryable"] = message.reason in _RETRYABLE_OUTCOME_ABORTS
            return None
        if isinstance(message, protocol.Error):
            metrics.bump("svc-client:room-aborts")
            return None
        raise ProtocolError(
            f"expected {expected_type.__name__}, got {type(message).__name__}")


async def query_status(host: str, port: int, *,
                       max_frame: int = framing.DEFAULT_MAX_FRAME,
                       timeout: float = 5.0) -> dict:
    """Fetch a running relay's live telemetry snapshot.

    Opens a fresh connection, sends the one-shot STATUS query and returns
    the decoded JSON document (see :meth:`RendezvousServer.status`).
    Raises :class:`~repro.errors.TransportError` if the server closes
    without replying, and propagates connection errors as-is."""
    async def _query() -> dict:
        reader, writer = await asyncio.open_connection(host, port)
        try:
            await _send(writer, protocol.Status(), max_frame)
            blob = await framing.read_frame(reader, max_frame)
            if blob is None:
                raise TransportError("server closed without a STATUS reply")
            message = protocol.decode_message(blob)
            if not isinstance(message, protocol.StatusReply):
                raise ProtocolError(
                    f"expected STATUS_REPLY, got {type(message).__name__}")
            return json.loads(message.body)
        finally:
            try:
                writer.close()
            except Exception:
                pass

    return await asyncio.wait_for(_query(), timeout)


async def run_room(members: Sequence[object], config: ClientConfig,
                   policy: Optional[HandshakePolicy] = None,
                   rngs: Optional[Sequence[random.Random]] = None,
                   ) -> List[HandshakeOutcome]:
    """Drive all ``members`` of one room concurrently (loopback helper for
    tests, benchmarks and the CLI).  Returns outcomes in roster-join order
    (member i joins first and receives index i)."""
    if rngs is None:
        rngs = [random.Random(7000 + i) for i in range(len(members))]
    cfg = replace(config, m=len(members))
    tasks = []
    for i, member in enumerate(members):
        joined = asyncio.Event()
        task = asyncio.ensure_future(
            join_room(member, cfg, policy, rngs[i], joined=joined))
        tasks.append(task)
        # Wait until the server assigned this member's index before
        # starting the next one: join order = roster index, keeping
        # outcomes aligned with ``members``.  If the join dies before
        # WELCOME the task itself completes and we move on.
        waiter = asyncio.ensure_future(joined.wait())
        await asyncio.wait([waiter, task],
                           return_when=asyncio.FIRST_COMPLETED)
        waiter.cancel()
    return list(await asyncio.gather(*tasks))
