"""Front-door router: one listening socket, N shard workers behind it.

Clients speak the unchanged rendezvous protocol to the router's port.
The router frame-reads exactly *one* message per connection — the opening
HELLO (or STATUS) — places the room onto a shard via consistent hashing
(:mod:`repro.cluster.placement`), replays the HELLO to the shard, and
then degrades into a transparent *frame-aligned* splice: every subsequent
frame (WELCOME, ROOM_READY, BROADCAST/DELIVER, DONE, ABORT) crosses the
router byte-identically (``encode_frame`` reproduces the exact wire
bytes) and uncounted.  The handshake therefore runs against the shard's
:class:`~repro.service.server.RendezvousServer` byte-for-byte as if the
client had dialled it directly — which is why per-party E1/E2 counter
books and session keys are identical to the single-process service (the
cluster parity test's claim).  Frame alignment (vs the raw byte pump it
replaced) is what makes live migration possible: a pump can stop at a
frame boundary and resume into a different shard without ever splitting
a frame.

Failure semantics (why clients never hang):

* placement only considers UP shards; a draining or dead shard is
  re-placed around by walking the ring's preference order — every router
  instance independently reaches the same next-best shard;
* no live shard -> typed ``BUSY("no-live-shards")`` — the client backs
  off and retries within its deadline;
* a shard dying mid-room surfaces to its clients as EOF/ABORT, which the
  client classifies as retryable (:mod:`repro.service.client`), and its
  supervision-pipe EOF removes it from placement on the same loop tick,
  so the retry lands on a surviving shard;
* drain (:meth:`ClusterRouter.drain_shard`) is a **live migration**, not
  a shed: the router writes QUIESCE on each member's shard stream at a
  frame boundary and holds its up pump; the shard finishes its FIFO,
  ships an exact final checkpoint up the supervision pipe, and closes
  the room with outcome ``migrated``; the router restores the
  checkpoint on the ring's next-preferred live shard, re-splices every
  member with an ATTACH, and tells each client with a single MIGRATED
  frame.  No re-HELLO, no Phase I–III crypto re-run, zero client
  retries.  If any step times out
  the router falls back to the legacy shed path
  (:meth:`repro.cluster.health.HealthMonitor.drain`): unfilled rooms
  abort retryably and rejoins re-enter the router.  Docs:
  docs/PROTOCOL.md, "Live migration".

Aggregated STATUS: shards push their full status snapshot with every
heartbeat; a STATUS query to the router merges the freshest snapshot of
every non-dead shard — room counts and outcome tallies summed, ``svc:*``
counters summed, histograms merged bucket-by-bucket (exact, because
summaries carry raw bucket counts) — plus the router's own
``svc-cluster:*`` counters and per-shard health lines.
"""

from __future__ import annotations

import asyncio
import json
import math
import time
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro import metrics
from repro.cluster.health import DEAD, UP, HealthMonitor, ShardHandle
from repro.cluster.placement import HashRing
from repro.cluster.shard import ShardSpec
from repro.errors import EncodingError, FrameError, ProtocolError
from repro.obs import spans as obs
from repro.service import framing, protocol

#: Pre-encoded QUIESCE sentinel a migration writes at a frame boundary.
_QUIESCE_FRAME = framing.encode_frame(
    protocol.encode_message(protocol.Quiesce()))

#: Orchestration poll tick (checkpoint waits), seconds.
_MIGRATE_TICK = 0.01


@dataclass
class ClusterConfig:
    """Tunables for one router + its shard fleet."""

    host: str = "127.0.0.1"
    port: int = 0                     # 0 = ephemeral (read .port after start)
    shards: int = 2
    #: Virtual nodes per shard on the placement ring.
    ring_replicas: int = 64
    #: Per-shard admission ceiling (open rooms); ``None`` = unlimited.
    max_rooms_per_shard: Optional[int] = None
    heartbeat_interval: float = 0.25
    #: Mark a shard dead after this long without a heartbeat (the wedged-
    #: worker backstop; hard death is caught instantly via pipe EOF).
    stale_after: float = 2.0
    shard_start_timeout: float = 30.0
    #: How long a fresh connection may sit silent before its first frame.
    first_frame_timeout: float = 30.0
    drain_timeout: float = 5.0        # per-shard grace for active rooms
    #: Overall budget for one drain migration (quiesce + checkpoint +
    #: restore + re-splice).  Past it the router falls back to the shed
    #: path — clients retry instead of hanging.
    migrate_timeout: float = 8.0
    max_frame: int = framing.DEFAULT_MAX_FRAME
    # Propagated into every ShardSpec:
    room_fill_timeout: float = 30.0
    handshake_timeout: float = 60.0
    idle_timeout: float = 60.0
    #: Per-shard deterministic token seeds (parity tests); ``None`` uses
    #: ``secrets`` everywhere.  Length must equal ``shards`` when given.
    token_seeds: Optional[List[int]] = None
    #: Enable span tracing cluster-wide: the router records placement
    #: spans and every shard ships its finished spans back over the
    #: heartbeat pipe for the cluster trace (:mod:`repro.obs.export`).
    trace: bool = False


class _Splice:
    """One client connection spliced onto a shard: frame-aligned pumps
    both ways, plus the live-migration hooks.

    Forwarding stays byte-identical (``encode_frame`` reproduces the
    exact frame bytes) and metrics-blind — parsing-and-counting here
    would double-count messages the shard already counts, corrupting the
    E1/E2 books the parity test pins.  The only decoding is a one-time
    *sniff* of the first server frames to learn this member's roster
    index (WELCOME) and session token (ROOM_READY) — the coordinates a
    migration needs to re-ATTACH the member elsewhere.

    Migration choreography (driven by :meth:`ClusterRouter.drain_shard`):

    1. ``begin_migration()`` — writes one QUIESCE frame toward the shard.
       The up pump forwards each frame with a single ``write()``, so the
       QUIESCE lands on a frame boundary; a client frame read from then
       on waits for the release and goes to whichever shard is bound —
       nothing from the client is ever dropped.
    2. The shard ships the room's final checkpoint and closes; the down
       pump absorbs that EOF instead of passing it to the client.
    3. ``resplice(target, token)`` — dial the target shard, send
       ATTACH(token, index), swap both pumps onto the new streams, and
       tell the client with a single MIGRATED frame.  The client keeps
       its connection, index and crypto state.
    4. ``abort_migration()`` — fallback release if any step fails: both
       pumps resume against whatever streams are bound (the old shard,
       or its EOF — which clients answer with a retryable rejoin).
    """

    def __init__(self, router: "ClusterRouter", room: str,
                 client_reader: asyncio.StreamReader,
                 client_writer: asyncio.StreamWriter) -> None:
        self.router = router
        self.room = room                    # rendezvous name (placement key)
        self.index: Optional[int] = None    # sniffed from WELCOME
        self.token: Optional[str] = None    # sniffed from ROOM_READY
        self.client_reader = client_reader
        self.client_writer = client_writer
        self.shard_id: Optional[int] = None
        self.shard_reader: Optional[asyncio.StreamReader] = None
        self.shard_writer: Optional[asyncio.StreamWriter] = None
        self.client_gone = False            # client EOF'd / vanished
        self.closed = False                 # both pumps finished
        self.migrating = False
        self._mig_resumed = asyncio.Event()
        self._down_eof = asyncio.Event()
        self._respliced = asyncio.Event()

    def bind(self, shard_id: int, reader: asyncio.StreamReader,
             writer: asyncio.StreamWriter) -> None:
        self.shard_id = shard_id
        self.shard_reader = reader
        self.shard_writer = writer

    async def run(self) -> None:
        try:
            await asyncio.gather(self._pump_up(), self._pump_down())
        finally:
            self.closed = True

    # Pumps ------------------------------------------------------------------

    async def _pump_up(self) -> None:
        """client -> shard: read a frame, write it, drain.  A frame read
        *during* a migration waits for the release, then goes to the
        shard bound at that moment (the target after a re-splice)."""
        max_frame = self.router.config.max_frame
        try:
            while True:
                payload = await framing.read_frame(self.client_reader,
                                                   max_frame)
                if payload is None:
                    self.client_gone = True
                    return
                while self.migrating:
                    await self._mig_resumed.wait()
                self.shard_writer.write(framing.encode_frame(payload))
                await self.shard_writer.drain()
        except (ConnectionError, OSError, FrameError,
                asyncio.IncompleteReadError):
            self.client_gone = True
        except asyncio.CancelledError:
            pass
        finally:
            # Half-close toward the shard so in-flight frames the other
            # way still deliver (DONE then EOF must not cut a DELIVER).
            try:
                if self.shard_writer.can_write_eof():
                    self.shard_writer.write_eof()
                else:
                    self.shard_writer.close()
            except (OSError, RuntimeError):
                pass

    async def _pump_down(self) -> None:
        """shard -> client.  Shard EOF during a migration is the expected
        end of the *donor* — absorb it and continue from the re-spliced
        stream instead of hanging up on the client."""
        max_frame = self.router.config.max_frame
        try:
            while True:
                try:
                    payload = await framing.read_frame(
                        self.shard_reader, max_frame)
                except (ConnectionError, OSError, FrameError,
                        asyncio.IncompleteReadError):
                    payload = None
                if payload is None:
                    self._down_eof.set()
                    if self.migrating and not self.client_gone:
                        respliced = self._respliced
                        await respliced.wait()
                        if self.migrating or self.closed:
                            return   # released without a re-splice
                        continue     # re-spliced: read from the new shard
                    return
                if self.index is None or self.token is None:
                    self._sniff(payload)
                self.client_writer.write(framing.encode_frame(payload))
                await self.client_writer.drain()
        except (ConnectionError, OSError):
            pass
        except asyncio.CancelledError:
            pass
        finally:
            try:
                if self.client_writer.can_write_eof():
                    self.client_writer.write_eof()
                else:
                    self.client_writer.close()
            except (OSError, RuntimeError):
                pass

    def _sniff(self, payload: bytes) -> None:
        """Learn (index, token) from the first server frames, then stop
        decoding entirely — relay traffic crosses unparsed."""
        try:
            message = protocol.decode_message(payload)
        except (EncodingError, ProtocolError):
            return
        if isinstance(message, protocol.Welcome):
            self.index = message.index
        elif isinstance(message, protocol.RoomReady):
            self.token = message.token

    # Migration hooks --------------------------------------------------------

    def begin_migration(self) -> None:
        """Hold the up pump and write QUIESCE toward the shard.  No await
        separates a forwarded frame's read from its one ``write()``, so
        this write can only fall between two whole frames."""
        self.migrating = True
        try:
            self.shard_writer.write(_QUIESCE_FRAME)
        except (OSError, RuntimeError):
            pass      # the shard side is gone: its EOF ends the pumps

    async def resplice(self, handle: ShardHandle, token: str,
                       timeout: float) -> None:
        """Move this member onto ``handle`` after its room was restored
        there.  Waits for the donor's EOF first — the guarantee that
        every old-shard frame has already been flushed to the client."""
        if self.index is None:
            raise ProtocolError("cannot re-splice before WELCOME")
        await asyncio.wait_for(self._down_eof.wait(), timeout)
        reader, writer = await asyncio.open_connection(
            handle.spec.host, handle.port)
        writer.write(framing.encode_frame(protocol.encode_message(
            protocol.Attach(token=token, index=self.index))))
        await writer.drain()
        self.shard_reader = reader
        self.shard_writer = writer
        self.shard_id = handle.shard_id
        self.token = token
        # The hop's only wire-visible evidence on the client side:
        self.client_writer.write(framing.encode_frame(protocol.encode_message(
            protocol.Migrated(token=token))))
        await self.client_writer.drain()
        self._release()

    def abort_migration(self) -> None:
        """Fallback release: resume both pumps against whatever streams
        are bound (no-op if this splice was never migrating)."""
        if not self.migrating:
            return
        self._release()

    def _release(self) -> None:
        self.migrating = False
        resumed, respliced = self._mig_resumed, self._respliced
        # Fresh events for any future migration before waking the pumps.
        self._mig_resumed = asyncio.Event()
        self._down_eof = asyncio.Event()
        self._respliced = asyncio.Event()
        resumed.set()
        respliced.set()


class ClusterRouter:
    """The cluster front door.

    Usage::

        async with ClusterRouter(ClusterConfig(shards=2)) as router:
            ... clients connect to router.port ...

    or explicit ``await router.start()`` / ``await router.shutdown()``.
    """

    def __init__(self, config: Optional[ClusterConfig] = None) -> None:
        self.config = config or ClusterConfig()
        if self.config.shards < 1:
            raise ValueError("a cluster needs at least one shard")
        seeds = self.config.token_seeds
        if seeds is not None and len(seeds) != self.config.shards:
            raise ValueError("token_seeds length must equal shards")
        self.monitor: Optional[HealthMonitor] = None
        self.ring = HashRing(replicas=self.config.ring_replicas)
        self._server: Optional[asyncio.AbstractServer] = None
        self._sweep_task: Optional[asyncio.Task] = None
        self._splices: set = set()          # handler tasks
        self._splice_objs: set = set()      # live _Splice objects
        #: Rooms currently mid-migration, by rendezvous name: a HELLO for
        #: one of these waits for the hop to finish instead of opening a
        #: duplicate room on the target.
        self._migrating_rooms: Dict[str, asyncio.Event] = {}
        self._accepting = False
        self._started = 0.0

    # Lifecycle --------------------------------------------------------------

    def _specs(self) -> List[ShardSpec]:
        cfg = self.config
        return [
            ShardSpec(
                shard_id=i,
                host=cfg.host,
                room_fill_timeout=cfg.room_fill_timeout,
                handshake_timeout=cfg.handshake_timeout,
                idle_timeout=cfg.idle_timeout,
                drain_timeout=cfg.drain_timeout,
                max_rooms=cfg.max_rooms_per_shard,
                token_seed=(cfg.token_seeds[i]
                            if cfg.token_seeds is not None else None),
                heartbeat_interval=cfg.heartbeat_interval,
                trace=cfg.trace)
            for i in range(cfg.shards)
        ]

    async def start(self) -> "ClusterRouter":
        self.monitor = HealthMonitor(self._specs(),
                                     stale_after=self.config.stale_after)
        await self.monitor.start()
        await self.monitor.wait_up(self.config.shard_start_timeout)
        for shard_id in self.monitor.handles:
            self.ring.add(shard_id)
        self._server = await asyncio.start_server(
            self._handle, self.config.host, self.config.port)
        self._sweep_task = asyncio.ensure_future(self._sweep_loop())
        self._accepting = True
        self._started = time.perf_counter()
        return self

    async def __aenter__(self) -> "ClusterRouter":
        return await self.start()

    async def __aexit__(self, *exc) -> None:
        await self.shutdown()

    @property
    def port(self) -> int:
        assert self._server is not None, "router not started"
        return self._server.sockets[0].getsockname()[1]

    async def serve_forever(self) -> None:
        assert self._server is not None, "router not started"
        await self._server.serve_forever()

    async def shutdown(self, drain: bool = True) -> None:
        self._accepting = False
        if self._sweep_task is not None:
            self._sweep_task.cancel()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if self.monitor is not None:
            await self.monitor.stop(
                drain=drain,
                drain_timeout=self.config.drain_timeout + 5.0)
        for task in list(self._splices):
            task.cancel()
        if self._splices:
            await asyncio.gather(*self._splices, return_exceptions=True)

    # Failure injection / operations -----------------------------------------

    def kill_shard(self, shard_id: int) -> None:
        """SIGKILL one shard and remove it from placement immediately."""
        assert self.monitor is not None
        self.monitor.kill(shard_id)

    async def drain_shard(self, shard_id: int) -> Dict[str, int]:
        """Drain one shard as a **live migration**: quiesce every member
        pump, collect the shard's final room checkpoints, restore each
        room on the ring's next-preferred live shard, re-splice the
        members (one MIGRATED frame each), then command the now-empty
        worker to drain.  Rooms that complete on their own mid-drain are
        simply left to finish; any step that times out falls back to the
        legacy shed path for the affected room (clients retry).

        Returns a small report: ``{"migrated", "completed", "failed"}``
        room counts.
        """
        assert self.monitor is not None
        loop = asyncio.get_running_loop()
        handle = self.monitor.handles[shard_id]
        report = {"migrated": 0, "completed": 0, "failed": 0}
        if not handle.alive:
            self.monitor.drain(shard_id)
            return report
        # Out of placement first: no new room may land on the donor
        # while its existing rooms are being moved off.
        self.monitor.mark_draining(shard_id)
        splices = [s for s in self._splice_objs
                   if s.shard_id == shard_id and not s.closed
                   and not s.client_gone]
        groups: Dict[str, List[_Splice]] = {}
        for splice in splices:
            groups.setdefault(splice.room, []).append(splice)
        gates: Dict[str, asyncio.Event] = {}
        for name in groups:
            gate = asyncio.Event()
            gates[name] = gate
            self._migrating_rooms[name] = gate
        deadline = loop.time() + self.config.migrate_timeout
        try:
            for splice in splices:
                splice.begin_migration()
            # A final checkpoint (or natural completion) per room.
            while loop.time() < deadline:
                pending = [
                    name for name, members in groups.items()
                    if self._checkpoint_for(handle, name, members) is None
                    and not all(s.closed or s.client_gone for s in members)]
                if not pending:
                    break
                await asyncio.sleep(_MIGRATE_TICK)
            # Restore + re-splice, room by room.
            for name, members in groups.items():
                payload = self._checkpoint_for(handle, name, members)
                if payload is None:
                    # The room finished by itself while we quiesced (its
                    # DONEs were already in flight) — nothing to move.
                    report["completed"] += 1
                    continue
                moved = await self._migrate_room(handle, name, payload,
                                                 members, deadline)
                report["migrated" if moved else "failed"] += 1
        finally:
            for splice in splices:
                splice.abort_migration()   # no-op once re-spliced
            for name, gate in gates.items():
                gate.set()
                if self._migrating_rooms.get(name) is gate:
                    del self._migrating_rooms[name]
            # The donor is empty (or past saving): the classic drain
            # command stops its accept loop and exits the worker.
            self.monitor.drain(shard_id)
        return report

    def _checkpoint_for(self, handle: ShardHandle, name: str,
                        members: List[_Splice]) -> Optional[dict]:
        """The donor's final checkpoint for one room group: matched by
        session token when the members know it, by rendezvous name for a
        still-filling room (at most one filling room per name)."""
        tokens = {s.token for s in members if s.token}
        for token, payload in handle.final_checkpoints.items():
            if token in tokens:
                return payload
            if not tokens and payload.get("name") == name:
                return payload
        return None

    async def _migrate_room(self, donor: ShardHandle, name: str,
                            payload: dict, members: List[_Splice],
                            deadline: float) -> bool:
        """Restore one checkpointed room on a peer shard and re-splice
        its members.  False (-> shed fallback for these clients) if no
        live peer exists or the restore is refused/times out."""
        assert self.monitor is not None
        loop = asyncio.get_running_loop()
        token = str(payload.get("token") or "")
        live = {h.shard_id for h in self.monitor.live()}
        # Same walk new HELLOs take with the donor out of placement — so
        # late members of a migrated filling room land on the same shard.
        target_id = self.ring.place(name, only=live)
        if target_id is None:
            metrics.bump("svc-cluster:migrate-failures")
            metrics.bump("svc-cluster:migrate-failures:no-target")
            return False
        target = self.monitor.handles[target_id]
        started = loop.time()
        ack = await self.monitor.restore_room(
            target_id, payload, timeout=max(deadline - loop.time(), 0.1))
        if not ack.get("ok"):
            # The ack's own error text may be a shard-side exception
            # message: only the two fixed causes become a counter name.
            error = ack.get("error")
            kind = (f"restore-{error}" if error in ("shard-dead", "timeout")
                    else "restore-refused")
            metrics.bump("svc-cluster:migrate-failures")
            metrics.bump(f"svc-cluster:migrate-failures:{kind}")
            return False
        for splice in members:
            if splice.closed or splice.client_gone:
                continue
            try:
                await splice.resplice(target, token,
                                      max(deadline - loop.time(), 0.1))
            except (asyncio.TimeoutError, ProtocolError,
                    ConnectionError, OSError):
                metrics.bump("svc-cluster:resplice-failures")
                splice.abort_migration()
        with metrics.scope(target.spec.scope):
            metrics.bump("svc-cluster:migrations")
        metrics.observe("svc-cluster:restore-latency",
                        loop.time() - started)
        return True

    async def _sweep_loop(self) -> None:
        try:
            while True:
                await asyncio.sleep(self.config.heartbeat_interval)
                self.monitor.sweep()
        except asyncio.CancelledError:
            pass

    # Accept path ------------------------------------------------------------

    async def _handle(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        """One client connection.  Every exit path writes a typed frame or
        closes cleanly — a router bug must never strand a client (the
        kill-one-shard acceptance criterion)."""
        self._splices.add(asyncio.current_task())
        metrics.bump("svc-cluster:accepts")
        try:
            try:
                blob = await asyncio.wait_for(
                    framing.read_frame(reader, self.config.max_frame),
                    self.config.first_frame_timeout)
            except (asyncio.TimeoutError, FrameError,
                    ConnectionError, OSError):
                return
            if blob is None:
                return
            try:
                message = protocol.decode_message(blob)
            except (EncodingError, ProtocolError):
                metrics.bump("svc-cluster:protocol-errors")
                await self._best_effort(
                    writer, protocol.Error(reason="malformed first frame"))
                return
            if isinstance(message, protocol.Status):
                metrics.bump("svc-cluster:status-queries")
                await self._best_effort(writer, protocol.StatusReply(
                    body=json.dumps(self.status(), sort_keys=True)))
                return
            if not isinstance(message, protocol.Hello):
                metrics.bump("svc-cluster:protocol-errors")
                await self._best_effort(writer, protocol.Error(
                    reason=f"expected HELLO, got {type(message).__name__}"))
                return
            if not self._accepting:
                metrics.bump("svc-cluster:busy-sheds")
                metrics.bump("svc-cluster:busy:draining")
                await self._best_effort(
                    writer, protocol.Busy(reason="draining"))
                return
            await self._place_and_splice(message, blob, reader, writer)
        except asyncio.CancelledError:
            pass
        finally:
            try:
                writer.close()
            except Exception:
                pass
            self._splices.discard(asyncio.current_task())

    async def _best_effort(self, writer: asyncio.StreamWriter,
                           message) -> None:
        try:
            writer.write(framing.encode_frame(
                protocol.encode_message(message)))
            await writer.drain()
        except (ConnectionError, OSError):
            pass

    async def _place_and_splice(self, hello: protocol.Hello, blob: bytes,
                                reader: asyncio.StreamReader,
                                writer: asyncio.StreamWriter) -> None:
        """Choose a shard for the room, replay the HELLO, then splice
        frames both ways until either side hangs up."""
        preferred = self.ring.place(hello.room)
        tried: set = set()
        while True:
            gate = self._migrating_rooms.get(hello.room)
            if gate is not None:
                # The room is mid-hop: placing now could open a duplicate
                # on the target before the restore lands.  Wait out the hop.
                try:
                    await asyncio.wait_for(gate.wait(),
                                           self.config.migrate_timeout)
                except asyncio.TimeoutError:
                    pass
            live = {h.shard_id for h in self.monitor.live()}
            shard_id = self.ring.place(hello.room, only=live - tried)
            if shard_id is None:
                metrics.bump("svc-cluster:no-live-shards")
                metrics.bump("svc-cluster:busy-sheds")
                metrics.bump("svc-cluster:busy:no-live-shards")
                await self._best_effort(
                    writer, protocol.Busy(reason="no-live-shards"))
                return
            handle = self.monitor.handles[shard_id]
            try:
                shard_reader, shard_writer = await asyncio.open_connection(
                    handle.spec.host, handle.port)
            except OSError:
                # Died between heartbeat and dial: record it, walk on.
                tried.add(shard_id)
                self.monitor.mark_dead(handle, why="connect-refused")
                continue
            if (handle.state == UP
                    and self._migrating_rooms.get(hello.room) in (None, gate)):
                break
            # A drain began during the dial.  drain_shard has already
            # collected the donor's splices, so one bound now would never
            # be moved: hang up and place again.
            shard_writer.close()
        with metrics.scope(handle.spec.scope):
            metrics.bump("svc-cluster:placements")
            if shard_id != preferred:
                # The ring's primary owner was draining/dead — explicit
                # re-placement onto the next shard in preference order.
                metrics.bump("svc-cluster:replacements")
        # Placement span under the client's trace context: after a shard
        # death the rejoin's span lands in the *same* trace with
        # ``replaced=True`` — the failover is visible as one trace.
        obs.start_span("place", parent=None,
                       trace=obs.valid_trace(hello.trace),
                       shard=shard_id,
                       replaced=shard_id != preferred).end()
        splice = _Splice(self, hello.room, reader, writer)
        splice.bind(shard_id, shard_reader, shard_writer)
        self._splice_objs.add(splice)
        try:
            shard_writer.write(framing.encode_frame(blob))
            await shard_writer.drain()
            await splice.run()
        except (ConnectionError, OSError):
            pass
        finally:
            self._splice_objs.discard(splice)
            for w in (splice.shard_writer, writer):
                try:
                    w.close()
                except Exception:
                    pass

    # Introspection ----------------------------------------------------------

    def shipped_spans(self) -> Dict[int, Dict[str, object]]:
        """Per-shard span batches received over the heartbeat pipe so far:
        ``{shard_id: {"epoch": float|None, "spans": [dict, ...]}}`` — the
        shard sources of a cluster trace (:mod:`repro.obs.export`)."""
        assert self.monitor is not None
        return {
            shard_id: {"epoch": handle.span_epoch,
                       "spans": list(handle.shipped_spans)}
            for shard_id, handle in sorted(self.monitor.handles.items())
        }

    def status(self) -> Dict[str, object]:
        """The aggregated cluster snapshot a STATUS query returns."""
        assert self.monitor is not None
        rooms = {"filling": 0, "active": 0, "closed": 0, "restoring": 0}
        outcomes: Dict[str, int] = {}
        counters: Dict[str, int] = {}
        connections = 0
        open_rooms = 0
        histogram_parts: Dict[str, List[dict]] = {}
        shard_lines: Dict[str, object] = {}
        revocation: Dict[str, int] = {}
        for shard_id in sorted(self.monitor.handles):
            handle = self.monitor.handles[shard_id]
            shard_lines[str(shard_id)] = handle.summary()
            snapshot = handle.last_status
            if handle.state == DEAD or not snapshot:
                continue       # stale books of a dead shard would mislead
            for state, count in (snapshot.get("rooms") or {}).items():
                rooms[state] = rooms.get(state, 0) + count
            for outcome, count in (snapshot.get("outcomes") or {}).items():
                outcomes[outcome] = outcomes.get(outcome, 0) + count
            for name, value in (snapshot.get("counters") or {}).items():
                counters[name] = counters.get(name, 0) + value
            connections += snapshot.get("connections", 0)
            admission = snapshot.get("admission") or {}
            open_rooms += admission.get("open_rooms", 0)
            for name, summary in (snapshot.get("histograms") or {}).items():
                histogram_parts.setdefault(name, []).append(summary)
            for name, value in (snapshot.get("revocation") or {}).items():
                # epoch is a high-water mark per group; the counts sum.
                if name == "epoch":
                    revocation[name] = max(revocation.get(name, 0), value)
                else:
                    revocation[name] = revocation.get(name, 0) + value
        recorder = metrics.current_recorder()
        own = {name: value
               for name, value in sorted(recorder.total().extra.items())
               if name.startswith("svc-cluster:")}
        counters.update(own)
        # The router's own histograms (e.g. svc-cluster:restore-latency)
        # merge into the same bucket space as the shards'.
        for name, histogram in recorder.histograms().items():
            histogram_parts.setdefault(name, []).append(histogram.summary())
        return {
            "cluster": {
                "shards": len(self.monitor.handles),
                "states": self.monitor.states(),
                "accepting": self._accepting,
                "router_uptime_s": round(
                    time.perf_counter() - self._started, 3)
                    if self._started else 0.0,
            },
            "rooms": rooms,
            "open_rooms": open_rooms,
            "connections": connections,
            "outcomes": outcomes,
            "counters": counters,
            "histograms": {
                name: merged
                for name, parts in sorted(histogram_parts.items())
                if (merged := merge_histogram_summaries(name, parts))
                is not None
            },
            "shards": shard_lines,
            **({"revocation": revocation}
               if revocation.get("services") else {}),
        }


def merge_histogram_summaries(name: str,
                              summaries: List[dict]) -> Optional[dict]:
    """Merge per-shard histogram summaries into one — exact, not an
    approximation, because summaries carry the raw bucket counts: the
    merged distribution is what one histogram would hold had every
    observation landed in it (docs/OBSERVABILITY.md)."""
    merged: Optional[metrics.Histogram] = None
    bounds: List[float] = []
    part_sums: List[float] = []
    for summary in summaries:
        buckets = summary.get("buckets") or []
        these = [b["le"] for b in buckets if b["le"] is not None]
        if merged is None:
            if not these:
                continue
            bounds = these
            merged = metrics.Histogram(name, bounds)
        if [b["le"] for b in buckets if b["le"] is not None] != bounds:
            continue           # incompatible bounds: refuse to fake a merge
        for i, bucket in enumerate(buckets):
            merged.counts[i] += bucket["count"]
        merged.total += summary.get("count", 0)
        part_sums.append(summary.get("sum", 0.0))
        merged.clamped += summary.get("clamped", 0)
        for attr, pick in (("min", min), ("max", max)):
            value = summary.get(attr)
            if value is not None:
                current = getattr(merged, attr)
                setattr(merged, attr,
                        value if current is None else pick(current, value))
    if merged is None:
        return None
    # fsum, not +=: exact rounding makes the merged sum (and hence mean)
    # independent of shard enumeration order — pinned by the
    # order-insensitivity property test.
    merged.sum = math.fsum(part_sums)
    return merged.summary()


__all__ = ["ClusterConfig", "ClusterRouter", "merge_histogram_summaries"]
