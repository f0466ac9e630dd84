"""Shard worker: one :class:`~repro.service.server.RendezvousServer` in
its own process, supervised over a pipe.

Each shard is a *complete* rendezvous server on its own event loop and
its own :class:`repro.metrics.Recorder` — room relay on shard 3 never
contends with shard 1's loop, and a shard crash loses only its own rooms.
Because the server code is byte-identical to the single-process service,
a handshake routed through a shard produces the same wire traffic and the
same per-party E1/E2 counter books (asserted by the cluster parity test).

Supervision protocol (pickled tuples on the pipe; parent side in
:mod:`repro.cluster.health`):

* child -> parent: ``("up", shard_id, port)`` once listening;
  ``("hb", shard_id, status_dict)`` every ``heartbeat_interval`` seconds
  carrying the server's full :meth:`status` snapshot (the router merges
  these into the aggregated cluster STATUS — no extra query path);
  ``("spans", shard_id, {"epoch", "spans"})`` batches of finished spans
  when tracing is on (drained each beat plus a final flush — the raw
  material of the cluster trace, :mod:`repro.obs.export`);
  ``("ckpt", shard_id, {"final", "checkpoint"})`` room checkpoints at
  fill/phase barriers (``final=False``) and at drain-quiesce
  (``final=True`` — the exact snapshot a live migration restores);
  ``("restored", shard_id, {"token", "ok", ...})`` acking a restore;
  ``("draining", shard_id)`` when a drain begins and
  ``("down", shard_id)`` after a clean shutdown.
* parent -> child: ``("restore", checkpoint_payload)`` — restore a
  migrated room (acked with ``("restored", ...)``); ``("drain",)`` —
  stop accepting, give active rooms the drain window, abort stragglers,
  exit; ``("stop",)`` — immediate shutdown.  Pipe EOF (parent died) is
  treated as ``("stop",)``.

Workers are started with the multiprocessing ``spawn`` context: a fresh
interpreter, no inherited event loop or lock state — ``fork`` under a
live asyncio loop is a deadlock lottery.  :class:`ShardSpec` therefore
carries only primitives.
"""

from __future__ import annotations

import asyncio
import random
from dataclasses import dataclass
from typing import Optional

from repro import metrics
from repro.errors import ProtocolError
from repro.service.server import RendezvousServer, ServerConfig


@dataclass(frozen=True)
class ShardSpec:
    """Everything a spawned worker needs — primitives only (pickled into
    the fresh interpreter)."""

    shard_id: int
    host: str = "127.0.0.1"
    port: int = 0                     # 0 = ephemeral; reported in ("up", ...)
    room_fill_timeout: float = 30.0
    handshake_timeout: float = 60.0
    idle_timeout: float = 60.0
    drain_timeout: float = 5.0
    #: Per-shard admission ceiling (open rooms); ``None`` = unlimited.
    max_rooms: Optional[int] = None
    #: Seed for deterministic room tokens (parity tests); ``None`` = secrets.
    token_seed: Optional[int] = None
    heartbeat_interval: float = 0.25
    #: Enable span tracing in the worker.  Finished spans are batched to
    #: the parent over the supervision pipe (``("spans", ...)`` messages,
    #: drained by the heartbeat loop) for the merged cluster trace.
    trace: bool = False

    @property
    def scope(self) -> str:
        """Metric scope the router charges this shard's events under."""
        return f"shard:{self.shard_id}"


def shard_main(spec: ShardSpec, conn) -> None:
    """Process entry point (must stay importable at module top level for
    the ``spawn`` bootstrap).  ``conn`` is the child end of the pipe."""
    recorder = metrics.Recorder()
    recorder.tracing = spec.trace
    with metrics.using(recorder):
        try:
            asyncio.run(_shard_async(spec, conn))
        except KeyboardInterrupt:
            pass
        finally:
            try:
                conn.close()
            except Exception:
                pass


def _send_safe(conn, message) -> None:
    """Best-effort pipe send: a vanished parent must not crash the shard
    mid-drain (the OS will reap us soon enough either way)."""
    try:
        conn.send(message)
    except (BrokenPipeError, OSError, ValueError):
        pass


async def _shard_async(spec: ShardSpec, conn) -> None:
    loop = asyncio.get_running_loop()
    commands: asyncio.Queue = asyncio.Queue()

    def on_pipe_readable() -> None:
        try:
            command = conn.recv()
        except (EOFError, OSError):
            loop.remove_reader(conn.fileno())
            commands.put_nowait(("stop",))
            return
        commands.put_nowait(command if command else ("stop",))

    config = ServerConfig(
        host=spec.host, port=spec.port,
        room_fill_timeout=spec.room_fill_timeout,
        handshake_timeout=spec.handshake_timeout,
        idle_timeout=spec.idle_timeout,
        drain_timeout=spec.drain_timeout,
        max_rooms=spec.max_rooms,
        token_rng=(random.Random(spec.token_seed)
                   if spec.token_seed is not None else None))
    server = await RendezvousServer(config).start()

    def on_checkpoint(payload: dict, final: bool) -> None:
        # Room checkpoints (fill / phase barriers / drain-quiesce) travel
        # up the same pipe the heartbeats use.
        _send_safe(conn, ("ckpt", spec.shard_id,
                          {"final": final, "checkpoint": payload}))

    server.on_checkpoint = on_checkpoint
    loop.add_reader(conn.fileno(), on_pipe_readable)
    _send_safe(conn, ("up", spec.shard_id, server.port))
    heartbeats = asyncio.ensure_future(_heartbeat_loop(spec, conn, server))
    try:
        while True:
            command = await commands.get()
            kind = command[0]
            if kind == "restore":
                _restore(spec, conn, server, command[1])
                continue
            if kind in ("drain", "stop"):
                break
    finally:
        heartbeats.cancel()
        try:
            # Run the loop's finally (its own span flush) to completion
            # *now*: a flush scheduled after ("down",) would race the
            # parent closing its pipe end and lose the final batch.
            await heartbeats
        except asyncio.CancelledError:
            pass
        try:
            loop.remove_reader(conn.fileno())
        except (OSError, ValueError):
            pass
    if kind == "drain":
        _send_safe(conn, ("draining", spec.shard_id))
        await server.shutdown(drain=True)
    else:
        await server.shutdown(drain=False)
    # Spans finished during shutdown (aborted rooms on the shed path,
    # migrated rooms' roots) must beat ("down",) onto the pipe — the
    # parent stops reading the moment it sees the shard go down.
    _ship_spans(spec, conn)
    _send_safe(conn, ("down", spec.shard_id))


def _restore(spec: ShardSpec, conn, server, payload) -> None:
    """Restore one migrated room from its final checkpoint and ack the
    router.  Refusals (version mismatch, collisions, junk payloads) are
    acked with ``ok=False`` — the router falls back to the shed path for
    that room rather than wedging the drain."""
    token = payload.get("token") if isinstance(payload, dict) else None
    try:
        result = server.restore_room(payload)
    except ProtocolError as exc:
        metrics.bump("svc:restore-rejected")
        _send_safe(conn, ("restored", spec.shard_id,
                          {"token": token, "ok": False, "error": str(exc)}))
        return
    result["ok"] = True
    _send_safe(conn, ("restored", spec.shard_id, result))


async def _heartbeat_loop(spec: ShardSpec, conn, server) -> None:
    try:
        while True:
            _send_safe(conn, ("hb", spec.shard_id, server.status()))
            _ship_spans(spec, conn)
            await asyncio.sleep(spec.heartbeat_interval)
    except asyncio.CancelledError:
        pass
    finally:
        # Final flush so spans finished after the last beat still reach
        # the parent before the worker exits (drain path).
        _ship_spans(spec, conn)


def _ship_spans(spec: ShardSpec, conn) -> None:
    """Drain finished spans to the parent as plain dicts.  Draining keeps
    the worker's span store bounded for arbitrarily long runs; shipping
    nothing when tracing is off keeps the pipe traffic byte-identical to
    the pre-telemetry protocol."""
    recorder = metrics.current_recorder()
    if not recorder.tracing:
        return
    drained = recorder.drain_spans()
    if not drained:
        return
    _send_safe(conn, ("spans", spec.shard_id, {
        "epoch": recorder.epoch,
        "spans": [span.as_dict() for span in drained],
    }))


__all__ = ["ShardSpec", "shard_main"]
