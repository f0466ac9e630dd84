"""Asyncio rendezvous server: many concurrent handshake rooms over TCP.

The server realises the paper's anonymous broadcast channel as an
*untrusted relay*.  Clients meet at a named rendezvous point (a "room");
once ``m`` of them have arrived the room activates under a random,
unlinkable session token and every BROADCAST a member sends is fanned out
to the other members through a single per-room FIFO queue — the same
total-order guarantee :class:`repro.net.simulator.Network` gives, so the
:class:`repro.core.handshake.HandshakeDevice` state machines run unchanged.
Deliveries carry no transport-level sender identity (the relay strips it),
mirroring the simulator's anonymous channels.

Robustness machinery:

* **room fill timeout** — a room that never reaches ``m`` members aborts;
* **handshake timeout** — an active room that does not complete in time
  aborts (the backstop that turns silent packet loss into explicit
  failure);
* **per-connection backpressure** — each connection owns a *bounded* send
  queue drained by a writer task; a slow reader stalls only its own room,
  which the handshake timeout then reaps;
* **graceful drain** — :meth:`RendezvousServer.shutdown` stops accepting,
  gives active rooms a drain window to finish, then aborts stragglers.

Observability (docs/OBSERVABILITY.md): accepts, frames in/out, room
lifecycle and every error path (abort/error frames sent, fill/handshake/
idle timeouts fired, send-queue drops) land in the :mod:`repro.metrics`
layer under ``svc:*`` bumps; each room carries its own relay book, a
:class:`repro.metrics.Counters` pushed with :func:`repro.metrics.book`
whenever its relay loop runs, so relayed messages are attributable per
room and a checkpoint reads the room's book alone; a room's wall time is
the ``svc:room-lifetime`` histogram plus the ``room`` span; per-frame
relay latency feeds the ``svc:relay-latency`` histogram; room lifecycle
(fill → relay) is span-traced when tracing is on, the ``room`` span
ending with the room's outcome and naming the room by its random token
only — never its rendezvous name, a member identifier or payload bytes;
a closed room leaves the registry at once, keeping only the STATUS
tallies and, for the newest :data:`OUTCOMES_KEEP` rooms, its outcome;
and a one-shot ``STATUS`` control query (see
:meth:`RendezvousServer.status`) returns live room counts, queue depths
and histogram snapshots from a running relay.
"""

from __future__ import annotations

import asyncio
import json
import random
import secrets
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro import accel, metrics, revocation
from repro.errors import EncodingError, ProtocolError
from repro.gate import checkpoint as gate_checkpoint
from repro.gate.checkpoint import RoomCheckpoint
from repro.obs import spans as obs
from repro.service import framing, protocol
from repro.service.faults import FaultInjector

#: Relay-queue sentinel: "every frame before this has been fanned out and
#: no more are coming — snapshot the room now" (drain-migration quiesce).
_QUIESCE = object()

#: Closed rooms whose token -> outcome :meth:`RendezvousServer.room_outcomes`
#: keeps; older ones survive only in the STATUS tallies.
OUTCOMES_KEEP = 1024


@dataclass
class ServerConfig:
    """Tunables for one :class:`RendezvousServer`."""

    host: str = "127.0.0.1"
    port: int = 0                     # 0 = ephemeral (read .port after start)
    max_frame: int = framing.DEFAULT_MAX_FRAME
    room_fill_timeout: float = 30.0   # waiting for m members
    handshake_timeout: float = 60.0   # active room must complete
    idle_timeout: float = 60.0        # per-connection silent-read limit
    send_queue_limit: int = 64        # frames buffered per connection
    drain_timeout: float = 5.0        # shutdown grace for active rooms
    max_room_size: int = 64
    #: Admission ceiling over *open* (filling + active) rooms.  A HELLO
    #: that would open a room beyond the ceiling is shed with a typed
    #: BUSY frame — a transient, retryable condition the client answers
    #: with backoff (and a cluster router answers with re-placement).
    #: ``None`` disables shedding.  Joining an already-filling room is
    #: always admitted: the room charged its slot when it opened.
    max_rooms: Optional[int] = None
    faults: Optional[FaultInjector] = None
    #: Deterministic token source for tests; production uses ``secrets``.
    token_rng: Optional[random.Random] = None


class _Connection:
    """One client socket: reader loop (the handler task) plus a writer
    task draining a bounded queue — the backpressure boundary."""

    _CLOSE = object()

    def __init__(self, reader: asyncio.StreamReader,
                 writer: asyncio.StreamWriter, limit: int) -> None:
        self.reader = reader
        self.writer = writer
        self.queue: asyncio.Queue = asyncio.Queue(maxsize=limit)
        self.index: Optional[int] = None
        self.room: Optional["_Room"] = None
        self.done = False
        self.kicked = False
        self.writer_task: Optional[asyncio.Task] = None

    def start_writer(self) -> None:
        self.writer_task = asyncio.ensure_future(self._writer_loop())

    async def _writer_loop(self) -> None:
        try:
            while True:
                frame = await self.queue.get()
                if frame is self._CLOSE:
                    break
                self.writer.write(frame)
                await self.writer.drain()
        except (ConnectionError, OSError, asyncio.CancelledError):
            pass
        finally:
            self._close_transport()

    def _close_transport(self) -> None:
        try:
            self.writer.close()
        except Exception:
            pass

    async def send(self, message) -> None:
        """Queue a control message; awaits when the bounded queue is full
        (backpressure propagates to the caller — the room relay)."""
        blob = protocol.encode_message(message)
        await self.send_frame(framing.encode_frame(blob))

    async def send_frame(self, frame: bytes) -> None:
        """Queue an already-encoded frame — the fan-out path encodes each
        relay once and hands the same bytes to every recipient."""
        metrics.count_message_sent(len(frame))
        await self.queue.put(frame)

    def send_best_effort(self, message) -> None:
        """Non-blocking send for abort/error paths: if the queue is full
        the peer is not reading — just close, EOF carries the signal."""
        try:
            blob = protocol.encode_message(message)
            self.queue.put_nowait(framing.encode_frame(blob))
        except asyncio.QueueFull:
            metrics.bump("svc:send-queue-drops")

    def close(self) -> None:
        """Ask the writer task to flush queued frames then close."""
        try:
            self.queue.put_nowait(self._CLOSE)
        except asyncio.QueueFull:
            if self.writer_task is not None:
                self.writer_task.cancel()
            self._close_transport()

    def kick(self) -> None:
        """Hard-disconnect (fault injection): drop without flushing."""
        self.kicked = True
        if self.writer_task is not None:
            self.writer_task.cancel()
        self._close_transport()


class _Room:
    """One rendezvous room: roster, FIFO relay, lifecycle state.

    Restored rooms (live migration, docs/PROTOCOL.md) pass through the
    extra ``RESTORING`` state: the relay state came from a peer shard's
    checkpoint, roster slots are ``None`` placeholders, and the room
    resumes — relay loop, deadlines, FIFO — once every non-DONE member
    has re-attached through the router's re-splice.
    """

    FILLING, ACTIVE, CLOSED, RESTORING = ("filling", "active", "closed",
                                          "restoring")

    def __init__(self, server: "RendezvousServer", name: str, m: int,
                 token: str, trace: Optional[str] = None,
                 restored: bool = False) -> None:
        self.server = server
        self.name = name
        self.m = m
        self.token = token
        self.trace = trace or ""
        self.state = self.FILLING
        self.members: List[Optional[_Connection]] = []
        self.done: set = set()
        self.outcome: Optional[str] = None   # "completed" | abort reason
        self.queue: asyncio.Queue = asyncio.Queue()
        self.relay_task: Optional[asyncio.Task] = None
        self.finished = asyncio.Event()
        self.opened_at = time.perf_counter()
        # Deadline bookkeeping lives on the room (not buried in closures)
        # so a checkpoint can ship the *remaining* budget and a restore
        # can re-arm it — a migrated room never gets a fresh clock.
        self.fill_timer: Optional[asyncio.TimerHandle] = None
        self.fill_deadline: Optional[float] = None
        self.relay_deadline: Optional[float] = None
        self.restore_timer: Optional[asyncio.TimerHandle] = None
        # Phase progress: fanned-out count and last payload kind — the
        # phase-barrier marker for passive checkpoints.
        self.relayed = 0
        self.phase_kind: Optional[str] = None
        # Migration state: which members the router has quiesced, and the
        # checkpointed lifecycle state a RESTORING room resumes into.
        self.quiesced: set = set()
        self.restore_state: Optional[str] = None
        self._ship_requested = False
        # The room's relay book: what its relay loop charged, shipped in
        # every checkpoint so the cluster's books survive a migration.
        self.book = metrics.Counters()
        # Lifecycle spans (fill -> relay under one root); identified by
        # the unlinkable token only — never the rendezvous name.  The
        # root adopts the opening member's trace context, so the room's
        # server-side spans join the client's trace across the wire —
        # and a restored room adopts the *checkpointed* context, keeping
        # one trace across the migration hop.
        self._span_root = obs.start_span("room", parent=None, trace=trace,
                                         token=token, m=m)
        self._span_stage = obs.start_span(
            "room:restore" if restored else "room:fill",
            parent=self._span_root, token=token)

    @property
    def scope(self) -> str:
        return f"room:{self.token}"

    # Filling --------------------------------------------------------------

    def add(self, conn: _Connection) -> int:
        index = len(self.members)
        self.members.append(conn)
        conn.index = index
        conn.room = self
        return index

    def cancel_fill_timer(self) -> None:
        """Cancel the fill deadline; a queued-but-unfired callback is
        suppressed too (TimerHandle.cancel covers the same-tick race)."""
        if self.fill_timer is not None:
            self.fill_timer.cancel()
            self.fill_timer = None

    def activate(self) -> None:
        self.cancel_fill_timer()
        self.state = self.ACTIVE
        metrics.bump("svc:rooms-active")
        self._span_stage.end()
        self._span_stage = obs.start_span("room:relay",
                                          parent=self._span_root,
                                          token=self.token)
        self.relay_deadline = (asyncio.get_running_loop().time()
                               + self.server.config.handshake_timeout)
        for conn in self.members:
            conn.send_best_effort(
                protocol.RoomReady(room=self.name, token=self.token, m=self.m))
        self.relay_task = asyncio.ensure_future(self._relay_loop())
        # Fill is a phase boundary: ship a passive checkpoint (cluster
        # shards only — standalone relays have nowhere to ship it).
        if self.server.on_checkpoint is not None:
            self.server._emit_checkpoint(self._build_checkpoint([]),
                                         final=False)

    # Relay ----------------------------------------------------------------

    async def relay(self, sender_index: int, payload: object) -> None:
        await self.queue.put((sender_index, payload, time.perf_counter()))

    async def _relay_loop(self) -> None:
        loop = asyncio.get_running_loop()
        if self.relay_deadline is None:
            self.relay_deadline = (loop.time()
                                   + self.server.config.handshake_timeout)
        with metrics.book(self.scope, self.book):
            while self.state == self.ACTIVE:
                remaining = self.relay_deadline - loop.time()
                if remaining <= 0:
                    metrics.bump("svc:handshake-timeouts")
                    self.abort("handshake-timeout")
                    return
                try:
                    item = await asyncio.wait_for(self.queue.get(), remaining)
                    if item is _QUIESCE:
                        # Every frame enqueued before the sentinel has been
                        # fully fanned out — the exact point to snapshot.
                        self._ship()
                        return
                    sender, payload, enqueued = item
                    kind = protocol.payload_kind(payload)
                    if (self.phase_kind is not None
                            and kind != self.phase_kind
                            and self.server.on_checkpoint is not None):
                        # Phase barrier: the FIFO advanced to a new payload
                        # kind.  Snapshot *before* fanning the new phase
                        # out, with the in-hand frame back at the head of
                        # the pending queue.
                        pending = [(sender, payload)]
                        pending.extend((s, p) for s, p, _ in
                                       list(self.queue._queue))
                        self.server._emit_checkpoint(
                            self._build_checkpoint(pending), final=False)
                    self.phase_kind = kind
                    await asyncio.wait_for(
                        self._fan_out(sender, payload),
                        self.relay_deadline - loop.time())
                    self.relayed += 1
                    # Queue-to-fanned-out latency of one relayed frame:
                    # the relay's own contribution to handshake latency
                    # (includes injected fault delays — honestly).
                    metrics.observe("svc:relay-latency",
                                    time.perf_counter() - enqueued)
                except asyncio.TimeoutError:
                    metrics.bump("svc:handshake-timeouts")
                    self.abort("handshake-timeout")
                    return
                except asyncio.CancelledError:
                    return

    async def _fan_out(self, sender: int, payload: object) -> None:
        faults = self.server.config.faults
        action = faults.action_for(sender, payload) if faults else None
        if action is not None and action.delay:
            await asyncio.sleep(action.delay)
        copies = 1 if action is None else action.copies
        if action is not None and action.disconnect_sender:
            metrics.bump("svc:relay-disconnects")
            victim = self.members[sender]
            if victim is None:
                return
            victim.kick()
            # The victim's handler will observe the closed socket and
            # report the loss; abort proactively so survivors never wait
            # on the handshake timeout.
            self.abort("peer-disconnect")
            return
        if copies == 0:
            metrics.bump("svc:relay-drops")
            return
        message = protocol.Deliver(payload=payload)
        frame = framing.encode_frame(protocol.encode_message(message))
        for _ in range(copies):
            for conn in self.members:
                if conn is None or conn.index == sender or conn.kicked:
                    continue
                await conn.send_frame(frame)
            metrics.bump("svc:messages-relayed")
        if copies > 1:
            metrics.bump("svc:relay-duplicates")

    # Lifecycle ------------------------------------------------------------

    def mark_done(self, conn: _Connection) -> None:
        conn.done = True
        self.done.add(conn.index)
        if self.state == self.ACTIVE and len(self.done) == self.m:
            self._complete()

    def _complete(self) -> None:
        self._finish("completed")
        metrics.bump("svc:rooms-completed")
        metrics.observe("svc:room-lifetime",
                        time.perf_counter() - self.opened_at)
        for member in self.members:
            if member is not None:
                member.close()

    def member_lost(self, conn: _Connection) -> None:
        """A member's connection dropped.  During fill: abort (indices are
        roster positions, they cannot be reassigned).  Active: abort unless
        the member had already concluded."""
        if self.state == self.CLOSED or conn.done:
            return
        in_handshake = (self.state == self.ACTIVE
                        or self.restore_state == gate_checkpoint.ACTIVE)
        self.abort("peer-disconnect" if in_handshake
                   else "peer-left-while-filling")

    def abort(self, reason: str) -> None:
        if self.state == self.CLOSED:
            return
        self._finish(reason)
        metrics.bump("svc:rooms-aborted")
        metrics.bump(f"svc:abort:{reason}")
        for conn in self.members:
            if conn is None:
                continue
            if not conn.done and not conn.kicked:
                metrics.bump("svc:abort-frames")
                conn.send_best_effort(protocol.Abort(reason=reason))
            conn.close()

    def _finish(self, outcome: str) -> None:
        self.state = self.CLOSED
        self.outcome = outcome
        self.cancel_fill_timer()
        if self.restore_timer is not None:
            self.restore_timer.cancel()
            self.restore_timer = None
        self._span_stage.end()
        self._span_root.end(outcome=outcome)
        self.server._room_closed(self)
        if self.relay_task is not None and self.relay_task is not asyncio.current_task():
            self.relay_task.cancel()
        self.finished.set()

    # Migration: quiesce -> checkpoint -> ship -------------------------------

    def quiesce(self, conn: _Connection) -> None:
        """The router injected a QUIESCE sentinel on this member's
        connection: no further frames will arrive from them until the
        room moves.  Once every live member is quiesced, ship."""
        if self.state == self.CLOSED or conn.index is None:
            return
        self.quiesced.add(conn.index)
        self._maybe_ship()

    def _maybe_ship(self) -> None:
        if self.state == self.CLOSED or self._ship_requested:
            return
        live = [conn.index for conn in self.members
                if conn is not None and not conn.done and not conn.kicked]
        if not live or not all(index in self.quiesced for index in live):
            return
        self._ship_requested = True
        if self.state == self.ACTIVE:
            # Never snapshot mid-fan-out: let the relay loop finish
            # everything already enqueued, then ship at the sentinel.
            self.queue.put_nowait(_QUIESCE)
        else:
            self._ship()

    def _ship(self) -> None:
        """Snapshot the room into its final checkpoint and close it with
        outcome "migrated".  Runs at a FIFO boundary: every frame before
        this point has been fully fanned out."""
        if self.state == self.CLOSED:
            return
        pending: List = []
        while not self.queue.empty():
            item = self.queue.get_nowait()
            if item is not _QUIESCE:
                pending.append((item[0], item[1]))
        checkpoint = self._build_checkpoint(pending)
        metrics.bump("svc:rooms-migrated-out")
        self._finish("migrated")
        self.server._emit_checkpoint(checkpoint, final=True)
        for conn in self.members:
            if conn is not None:
                conn.close()

    def _build_checkpoint(self, pending) -> RoomCheckpoint:
        loop = asyncio.get_running_loop()
        active = (self.state == self.ACTIVE
                  or self.restore_state == gate_checkpoint.ACTIVE)
        fill_remaining = handshake_remaining = None
        if active:
            handshake_remaining = (
                max(self.relay_deadline - loop.time(), 0.0)
                if self.relay_deadline is not None
                else self.server.config.handshake_timeout)
        else:
            fill_remaining = (
                max(self.fill_deadline - loop.time(), 0.0)
                if self.fill_deadline is not None
                else self.server.config.room_fill_timeout)
        return RoomCheckpoint(
            name=self.name, token=self.token, m=self.m,
            state=gate_checkpoint.ACTIVE if active else gate_checkpoint.FILLING,
            members=len(self.members), trace=self.trace,
            done=tuple(sorted(self.done)), pending=tuple(pending),
            fill_remaining_s=fill_remaining,
            handshake_remaining_s=handshake_remaining,
            relayed=self.relayed, phase_kind=self.phase_kind,
            counters=self.book.counts())

    # Migration: restore -> attach -> resume ---------------------------------

    def attach(self, conn: _Connection, index: int) -> None:
        """Bind a re-spliced connection to roster slot ``index`` of this
        restored room (router ATTACH, in place of HELLO)."""
        if self.state != self.RESTORING:
            raise ProtocolError("ATTACH to a room that is not restoring")
        if not 0 <= index < len(self.members):
            raise ProtocolError("ATTACH index outside restored roster")
        if self.members[index] is not None:
            raise ProtocolError("ATTACH to an occupied roster slot")
        self.members[index] = conn
        conn.index = index
        conn.room = self
        conn.done = index in self.done
        metrics.bump("svc:attaches")
        self._maybe_resume()

    def _maybe_resume(self) -> None:
        if self.state != self.RESTORING:
            return
        for index, conn in enumerate(self.members):
            if conn is None and index not in self.done:
                return   # a live member has not re-attached yet
        self._resume()

    def _resume(self) -> None:
        """Every live member re-attached: pick up exactly where the donor
        shard stopped — same token, same trace, same FIFO, same budget."""
        if self.restore_state == gate_checkpoint.FILLING:
            self.state = self.FILLING
            self._span_stage.end()
            self._span_stage = obs.start_span("room:fill",
                                              parent=self._span_root,
                                              token=self.token)
            if len(self.members) == self.m:
                # Roster completed while we were still restoring (a new
                # member HELLOed between restore and the last attach).
                self.server._filling.pop(self.name, None)
                self.activate()
            return
        if self.restore_timer is not None:
            self.restore_timer.cancel()
            self.restore_timer = None
        self.state = self.ACTIVE
        self._span_stage.end()
        self._span_stage = obs.start_span("room:relay",
                                          parent=self._span_root,
                                          token=self.token)
        if len(self.done) == self.m:
            # Every member had concluded before the move; close out.
            self._complete()
            return
        self.relay_task = asyncio.ensure_future(self._relay_loop())

    def _restore_timeout(self) -> None:
        """Backstop for a restored active room whose members never all
        re-attach: the checkpointed handshake budget still applies."""
        if self.state == self.RESTORING:
            metrics.bump("svc:handshake-timeouts")
            self.abort("handshake-timeout")


class RendezvousServer:
    """The rendezvous service: accept loop + room registry.

    Usage::

        server = RendezvousServer(ServerConfig(port=0))
        await server.start()
        ... clients connect to server.port ...
        await server.shutdown()

    Also usable as an async context manager.
    """

    def __init__(self, config: Optional[ServerConfig] = None) -> None:
        self.config = config or ServerConfig()
        self._server: Optional[asyncio.AbstractServer] = None
        self._filling: Dict[str, _Room] = {}
        #: token -> room, open rooms only (filling, active, restoring):
        #: its size is the admission count, and a closed room is dropped.
        self._rooms: Dict[str, _Room] = {}
        self._closed = 0
        self._outcome_tally: Dict[str, int] = {}
        self._outcomes: Dict[str, str] = {}    # newest OUTCOMES_KEEP only
        self._handlers: set = set()
        self._connections: set = set()         # live _Connection objects
        self._accepting = False
        self._started = 0.0
        #: Cluster hook (set by the shard worker): called with
        #: ``(checkpoint_payload, final)`` for every room checkpoint so it
        #: can travel up the supervision pipe.  ``None`` (standalone
        #: relays) disables passive checkpointing entirely.
        self.on_checkpoint = None

    # Lifecycle ------------------------------------------------------------

    async def start(self) -> "RendezvousServer":
        self._server = await asyncio.start_server(
            self._handle, self.config.host, self.config.port)
        self._accepting = True
        self._started = time.perf_counter()
        return self

    async def __aenter__(self) -> "RendezvousServer":
        return await self.start()

    async def __aexit__(self, *exc) -> None:
        await self.shutdown()

    @property
    def port(self) -> int:
        assert self._server is not None, "server not started"
        return self._server.sockets[0].getsockname()[1]

    async def serve_forever(self) -> None:
        assert self._server is not None, "server not started"
        await self._server.serve_forever()

    async def shutdown(self, drain: bool = True) -> None:
        """Stop accepting; drain active rooms, then abort stragglers."""
        self._accepting = False
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        for room in list(self._filling.values()):
            room.abort("server-shutdown")
        active = [r for r in self._rooms.values() if r.state == _Room.ACTIVE]
        if drain and active:
            waits = [r.finished.wait() for r in active]
            try:
                await asyncio.wait_for(asyncio.gather(*waits),
                                       self.config.drain_timeout)
            except asyncio.TimeoutError:
                pass
        for room in list(self._rooms.values()):
            room.abort("server-shutdown")
        for task in list(self._handlers):
            task.cancel()
        if self._handlers:
            await asyncio.gather(*self._handlers, return_exceptions=True)

    # Introspection --------------------------------------------------------

    def room_outcomes(self) -> Dict[str, str]:
        """token -> "completed" / abort reason, for the newest
        :data:`OUTCOMES_KEEP` closed rooms."""
        return dict(self._outcomes)

    def status(self) -> Dict[str, object]:
        """Live telemetry snapshot — what a STATUS query returns.

        Aggregates only (the anonymity rule, docs/OBSERVABILITY.md):
        open-room counts by state, running tallies of closed rooms and
        their outcomes, queue depths, ``svc:*`` counters and histogram
        summaries.  No rendezvous names, member identifiers or payload
        bytes appear."""
        states = {_Room.FILLING: 0, _Room.ACTIVE: 0, _Room.RESTORING: 0}
        relay_backlog = 0
        for room in self._rooms.values():
            states[room.state] += 1
            relay_backlog += room.queue.qsize()
        depths = [c.queue.qsize() for c in self._connections]
        rec = metrics.current_recorder()
        counters = {name: value
                    for name, value in sorted(rec.total().extra.items())
                    if name.startswith(("svc:", "rev:"))}
        histograms = {name: hist.summary()
                      for name, hist in sorted(rec.histograms().items())}
        revocation_stats = revocation.stats()
        return {
            "uptime_s": round(time.perf_counter() - self._started, 3)
                        if self._started else 0.0,
            "accepting": self._accepting,
            "connections": len(self._connections),
            "rooms": {"filling": states[_Room.FILLING],
                      "active": states[_Room.ACTIVE],
                      "closed": self._closed,
                      "restoring": states[_Room.RESTORING]},
            "admission": {"open_rooms": len(self._rooms),
                          "max_rooms": self.config.max_rooms},
            "outcomes": dict(self._outcome_tally),
            "send_queues": {"total_depth": sum(depths),
                            "max_depth": max(depths, default=0)},
            "relay_backlog": relay_backlog,
            "counters": counters,
            "histograms": histograms,
            "accel": accel.stats(),
            # Omitted entirely when no revocation service runs in-process
            # (the common case for a pure relay).
            **({"revocation": revocation_stats}
               if revocation_stats["services"] else {}),
        }

    # Accept path ----------------------------------------------------------

    def _new_token(self) -> str:
        # Random and independent of the rendezvous name: logs, metric
        # scopes and on-wire ROOM_READY frames cannot be linked back to
        # the (possibly meaningful) name clients agreed on out of band.
        if self.config.token_rng is not None:
            return f"{self.config.token_rng.getrandbits(64):016x}"
        return secrets.token_hex(8)

    async def _handle(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        conn = _Connection(reader, writer, self.config.send_queue_limit)
        self._handlers.add(asyncio.current_task())
        self._connections.add(conn)
        metrics.bump("svc:accepts")
        conn.start_writer()
        try:
            await self._session(conn)
        except (EncodingError, ProtocolError) as exc:
            metrics.bump("svc:protocol-errors")
            metrics.bump("svc:error-frames")
            # The Error frame may quote the client-chosen rendezvous name;
            # it goes to the offending client only, never into telemetry.
            conn.send_best_effort(protocol.Error(reason=str(exc)))
        except (ConnectionError, OSError, asyncio.IncompleteReadError):
            metrics.bump("svc:connection-lost")
        except asyncio.TimeoutError:
            metrics.bump("svc:idle-timeouts")
            metrics.bump("svc:error-frames")
            conn.send_best_effort(protocol.Error(reason="idle timeout"))
        except asyncio.CancelledError:
            pass
        finally:
            if conn.room is not None:
                conn.room.member_lost(conn)
            conn.close()
            self._connections.discard(conn)
            task = asyncio.current_task()
            if task in self._handlers:
                self._handlers.discard(task)

    async def _read_message(self, conn: _Connection):
        blob = await asyncio.wait_for(
            framing.read_frame(conn.reader, self.config.max_frame),
            self.config.idle_timeout)
        if blob is None:
            return None
        metrics.count_message_received(len(blob) + framing.HEADER_SIZE)
        return protocol.decode_message(blob)

    async def _session(self, conn: _Connection) -> None:
        hello = await self._read_message(conn)
        if hello is None:
            return
        if isinstance(hello, protocol.Status):
            # One-shot introspection query in place of HELLO.
            metrics.bump("svc:status-queries")
            await conn.send(protocol.StatusReply(body=json.dumps(
                self.status(), sort_keys=True)))
            return
        if isinstance(hello, protocol.Attach):
            # Router re-splice after a live migration: bind this fresh
            # connection to its old roster slot in the restored room.
            room = self._rooms.get(hello.token)
            if room is None:
                raise ProtocolError("ATTACH to an unknown room token")
            room.attach(conn, hello.index)   # validates state and slot
            await self._member_loop(conn, room)
            return
        if not isinstance(hello, protocol.Hello):
            raise ProtocolError(f"expected HELLO, got {type(hello).__name__}")
        if not 2 <= hello.m <= self.config.max_room_size:
            raise ProtocolError(
                f"room size {hello.m} outside [2, {self.config.max_room_size}]")
        if not self._accepting:
            # Draining is transient, not a protocol violation: shed with a
            # retryable BUSY so the client backs off (and, behind a cluster
            # router, gets re-placed onto a live shard).
            metrics.bump("svc:busy-sheds")
            metrics.bump("svc:busy:draining")
            await conn.send(protocol.Busy(reason="draining"))
            return
        room = self._filling.get(hello.room)
        if room is None:
            if (self.config.max_rooms is not None
                    and len(self._rooms) >= self.config.max_rooms):
                metrics.bump("svc:busy-sheds")
                metrics.bump("svc:busy:at-capacity")
                await conn.send(protocol.Busy(reason="at-capacity"))
                return
            # The opening member's trace context (if any) becomes the
            # room trace; later members' contexts are ignored — one room,
            # one trace.  Lenient: malformed contexts mean "no context".
            room = _Room(self, hello.room, hello.m, self._new_token(),
                         trace=obs.valid_trace(hello.trace))
            self._filling[hello.room] = room
            self._rooms[room.token] = room
            metrics.bump("svc:rooms-opened")
            loop = asyncio.get_running_loop()
            room.fill_deadline = loop.time() + self.config.room_fill_timeout
            room.fill_timer = loop.call_later(
                self.config.room_fill_timeout, self._fill_timeout, room)
        elif room.m != hello.m:
            raise ProtocolError(
                f"room {hello.room!r} expects m={room.m}, not {hello.m}")
        index = room.add(conn)
        full = len(room.members) == room.m
        if full:
            # The m-th member has landed: kill the fill timer *before* the
            # first await below.  A timer callback already queued for this
            # very tick would otherwise fire in the WELCOME-send window and
            # abort a room that did fill in time (cancel() suppresses it).
            room.cancel_fill_timer()
            del self._filling[room.name]
        await conn.send(protocol.Welcome(room=room.name, index=index, m=room.m))
        if full:
            if room.state == _Room.FILLING:
                room.activate()
            # else: the roster of a restored FILLING room completed while
            # members were still re-attaching; _resume() activates it.
        await self._member_loop(conn, room)

    async def _member_loop(self, conn: _Connection, room: _Room) -> None:
        # Main read loop: relay broadcasts until the client signals DONE
        # and closes, or the room dies under us (closed socket -> except).
        while True:
            message = await self._read_message(conn)
            if message is None:
                return
            if isinstance(message, protocol.Broadcast):
                # RESTORING rooms buffer broadcasts in the FIFO; the relay
                # loop fans them out (in order) once the room resumes.
                if room.state not in (_Room.ACTIVE, _Room.RESTORING):
                    raise ProtocolError("broadcast outside an active room")
                await room.relay(conn.index, message.payload)
            elif isinstance(message, protocol.Done):
                room.mark_done(conn)
            elif isinstance(message, protocol.Quiesce):
                room.quiesce(conn)
            elif isinstance(message, protocol.Hello):
                raise ProtocolError("duplicate HELLO")
            else:
                raise ProtocolError(
                    f"unexpected {type(message).__name__} from client")

    def _fill_timeout(self, room: _Room) -> None:
        if room.state == _Room.FILLING or (
                room.state == _Room.RESTORING
                and room.restore_state == gate_checkpoint.FILLING):
            metrics.bump("svc:fill-timeouts")
            room.abort("fill-timeout")

    def _room_closed(self, room: _Room) -> None:
        """Drop a closed room; only its tallies and outcome remain."""
        if self._filling.get(room.name) is room:
            del self._filling[room.name]
        del self._rooms[room.token]
        self._closed += 1
        self._outcome_tally[room.outcome] = (
            self._outcome_tally.get(room.outcome, 0) + 1)
        self._outcomes[room.token] = room.outcome
        if len(self._outcomes) > OUTCOMES_KEEP:
            del self._outcomes[next(iter(self._outcomes))]

    # Checkpoint / restore ---------------------------------------------------

    def _emit_checkpoint(self, checkpoint: RoomCheckpoint,
                         final: bool) -> None:
        metrics.bump("svc:checkpoints")
        if final:
            metrics.bump("svc:checkpoints-final")
        hook = self.on_checkpoint
        if hook is not None:
            hook(checkpoint.to_payload(), final)

    def restore_room(self, payload: object) -> Dict[str, object]:
        """Restore a room from a peer shard's final checkpoint.

        Validates the versioned payload (:class:`ProtocolError` on
        anything this node does not speak — see repro.gate.checkpoint),
        rebuilds the room in ``RESTORING`` state with placeholder roster
        slots, replays the donor's relay book into the room's own book
        and the recorder so cluster aggregates survive the donor's death
        (an open room's token must not collide), re-enqueues the pending
        FIFO in order, and re-arms the *remaining* deadline budget.  The
        room resumes when the router has ATTACHed every live member.
        """
        checkpoint = RoomCheckpoint.from_payload(payload)
        if checkpoint.token in self._rooms:
            raise ProtocolError("restore collides with an existing token")
        if (checkpoint.state == gate_checkpoint.FILLING
                and checkpoint.name in self._filling):
            raise ProtocolError("restore collides with a filling room")
        room = _Room(self, checkpoint.name, checkpoint.m, checkpoint.token,
                     trace=checkpoint.trace or None, restored=True)
        room.state = _Room.RESTORING
        room.restore_state = checkpoint.state
        room.members = [None] * checkpoint.members
        room.done = set(checkpoint.done)
        room.relayed = checkpoint.relayed
        room.phase_kind = checkpoint.phase_kind
        for sender, item in checkpoint.pending:
            room.queue.put_nowait((sender, item, time.perf_counter()))
        self._rooms[checkpoint.token] = room
        with metrics.book(room.scope, room.book):
            metrics.replay(checkpoint.counters)
        metrics.bump("svc:rooms-migrated-in")
        loop = asyncio.get_running_loop()
        if checkpoint.state == gate_checkpoint.FILLING:
            self._filling[checkpoint.name] = room
            remaining = checkpoint.fill_remaining_s
            if remaining is None:
                remaining = self.config.room_fill_timeout
            remaining = max(remaining, 0.05)
            room.fill_deadline = loop.time() + remaining
            room.fill_timer = loop.call_later(
                remaining, self._fill_timeout, room)
        else:
            remaining = checkpoint.handshake_remaining_s
            if remaining is None:
                remaining = self.config.handshake_timeout
            remaining = max(remaining, 0.05)
            room.relay_deadline = loop.time() + remaining
            room.restore_timer = loop.call_later(
                remaining, room._restore_timeout)
        return {"token": checkpoint.token, "state": checkpoint.state,
                "members": checkpoint.members}
