"""Shard liveness: handles, heartbeat bookkeeping, death detection.

The router never guesses about shard health from failed client proxying
alone — it has two dedicated signals per shard:

* **pipe EOF** — each worker holds the child end of its supervision pipe
  for its whole life, so the instant the process dies (``SIGKILL``
  included) the parent's end becomes readable-with-EOF and the shard is
  marked DEAD on the *same* event-loop tick.  This is the fast path that
  makes kill-one-shard failover race-free: no placement decision after
  the EOF can choose the dead shard.
* **heartbeat staleness** — a worker that is alive but wedged (loop
  blocked, deadlocked) stops heartbeating; the router's sweep marks it
  DEAD after ``stale_after`` seconds.  The backstop for the failure mode
  EOF cannot see.

States move one way: STARTING -> UP -> DRAINING -> DEAD (killing a shard
jumps straight to DEAD).  Only UP shards are placement candidates; a
DRAINING shard keeps serving its active rooms (its own server sheds new
HELLOs with BUSY) until its drain window closes and it exits.
"""

from __future__ import annotations

import asyncio
import multiprocessing
import time
from typing import Dict, List, Optional

from repro import metrics
from repro.cluster.shard import ShardSpec, shard_main

STARTING = "starting"
UP = "up"
DRAINING = "draining"
DEAD = "dead"

#: Per-shard cap on retained shipped spans — a long tracing run keeps the
#: newest spans rather than growing without bound.
SPAN_KEEP = 20000


class ShardHandle:
    """One supervised worker: process + parent pipe end + liveness state."""

    def __init__(self, spec: ShardSpec) -> None:
        self.spec = spec
        self.shard_id = spec.shard_id
        self.state = STARTING
        self.port: Optional[int] = None
        #: ``time.monotonic()`` of the last pipe signal.  Initialized to
        #: *now*, not 0.0: the handle exists before the worker's first
        #: beat, and a zero epoch would make ``heartbeat_age()`` report
        #: enormous staleness — a slow-starting shard would be swept as
        #: dead at spawn.  Creation counts as the first sign of life.
        self.last_heartbeat = time.monotonic()
        self.last_status: Dict[str, object] = {}
        #: Spans the worker shipped over the pipe (tracing runs only);
        #: bounded — the oldest are dropped past ``SPAN_KEEP``.
        self.shipped_spans: List[dict] = []
        self.span_epoch: Optional[float] = None
        self.process: Optional[multiprocessing.process.BaseProcess] = None
        self.conn = None                   # parent end of the pipe
        self.up_event: Optional[asyncio.Event] = None
        #: The *final* exact room checkpoints a drain produces (live
        #: migration) — what the router re-places onto a peer shard.
        #: Passive phase-boundary checkpoints are counted, not kept.
        self.final_checkpoints: Dict[str, dict] = {}
        #: Restore acks (("restored", ...) pipe replies) keyed by token.
        self.restore_acks: Dict[str, dict] = {}
        self.restore_event: Optional[asyncio.Event] = None

    @property
    def alive(self) -> bool:
        return self.state in (UP, DRAINING)

    def heartbeat_age(self) -> float:
        return time.monotonic() - self.last_heartbeat

    def summary(self) -> Dict[str, object]:
        """Aggregated-STATUS entry for this shard (aggregates only — the
        shard's own status() already honours the anonymity rule)."""
        rooms = self.last_status.get("rooms") if self.last_status else None
        admission = (self.last_status.get("admission")
                     if self.last_status else None)
        return {
            "state": self.state,
            "port": self.port,
            "heartbeat_age_s": round(self.heartbeat_age(), 3),
            "rooms": rooms,
            "admission": admission,
        }


class HealthMonitor:
    """Owns every :class:`ShardHandle`: spawn, watch, drain, kill."""

    def __init__(self, specs: List[ShardSpec],
                 stale_after: float = 2.0) -> None:
        self.handles: Dict[int, ShardHandle] = {
            spec.shard_id: ShardHandle(spec) for spec in specs}
        self.stale_after = stale_after
        self._ctx = multiprocessing.get_context("spawn")
        self._loop: Optional[asyncio.AbstractEventLoop] = None

    # Lifecycle --------------------------------------------------------------

    async def start(self) -> None:
        """Spawn every worker and begin watching its pipe."""
        self._loop = asyncio.get_running_loop()
        for handle in self.handles.values():
            handle.up_event = asyncio.Event()
            handle.restore_event = asyncio.Event()
            parent_conn, child_conn = self._ctx.Pipe()
            handle.conn = parent_conn
            handle.process = self._ctx.Process(
                target=shard_main, args=(handle.spec, child_conn),
                daemon=True, name=f"repro-shard-{handle.shard_id}")
            handle.process.start()
            # The child holds its own copy; keeping ours open would mask
            # the EOF that signals worker death.
            child_conn.close()
            self._loop.add_reader(parent_conn.fileno(),
                                  self._on_readable, handle)

    async def wait_up(self, timeout: float) -> None:
        """Block until every shard reported ("up", ...) or die trying."""
        waits = [h.up_event.wait() for h in self.handles.values()]
        try:
            await asyncio.wait_for(asyncio.gather(*waits), timeout)
        except asyncio.TimeoutError:
            laggards = [h.shard_id for h in self.handles.values()
                        if h.state == STARTING]
            raise RuntimeError(
                f"shards {laggards} did not come up within {timeout}s")

    async def stop(self, drain: bool = True,
                   drain_timeout: float = 10.0) -> None:
        """Drain (or stop) every worker, then reap the processes."""
        for handle in self.handles.values():
            if handle.state in (UP, DRAINING):
                self._command(handle, ("drain",) if drain else ("stop",))
                if handle.state == UP:
                    handle.state = DRAINING
        deadline = time.monotonic() + drain_timeout
        for handle in self.handles.values():
            if handle.process is None:
                continue
            remaining = max(0.0, deadline - time.monotonic())
            await asyncio.get_running_loop().run_in_executor(
                None, handle.process.join, remaining)
            if handle.process.is_alive():
                handle.process.kill()
                await asyncio.get_running_loop().run_in_executor(
                    None, handle.process.join, 5.0)
            self.mark_dead(handle, why="stopped")

    # Pipe events ------------------------------------------------------------

    def _on_readable(self, handle: ShardHandle) -> None:
        try:
            message = handle.conn.recv()
        except (EOFError, OSError):
            # Worker death — SIGKILL or crash — surfaces here on the same
            # loop tick the OS closes the pipe.
            self.mark_dead(handle, why="pipe-eof")
            return
        kind = message[0]
        handle.last_heartbeat = time.monotonic()
        if kind == "up":
            handle.port = message[2]
            if handle.state == STARTING:
                handle.state = UP
            metrics.bump("svc-cluster:shards-up")
            handle.up_event.set()
        elif kind == "hb":
            handle.last_status = message[2]
            with metrics.scope(handle.spec.scope):
                metrics.bump("svc-cluster:heartbeats")
        elif kind == "spans":
            batch = message[2]
            handle.span_epoch = batch.get("epoch")
            handle.shipped_spans.extend(batch.get("spans") or [])
            if len(handle.shipped_spans) > SPAN_KEEP:
                del handle.shipped_spans[:-SPAN_KEEP]
            with metrics.scope(handle.spec.scope):
                metrics.bump("svc-cluster:span-batches")
        elif kind == "ckpt":
            body = message[2]
            payload = body.get("checkpoint") or {}
            token = payload.get("token")
            if token and body.get("final"):
                handle.final_checkpoints[token] = payload
            with metrics.scope(handle.spec.scope):
                metrics.bump("svc-cluster:checkpoints")
        elif kind == "restored":
            body = message[2]
            token = body.get("token")
            if token:
                handle.restore_acks[str(token)] = body
            if handle.restore_event is not None:
                handle.restore_event.set()
        elif kind == "draining":
            if handle.state != DEAD:
                handle.state = DRAINING
        elif kind == "down":
            self.mark_dead(handle, why="clean-exit")

    def mark_dead(self, handle: ShardHandle, why: str) -> None:
        if handle.state == DEAD:
            return
        handle.state = DEAD
        metrics.bump("svc-cluster:shard-deaths")
        metrics.bump(f"svc-cluster:shard-death:{why}")
        if self._loop is not None and handle.conn is not None:
            try:
                self._loop.remove_reader(handle.conn.fileno())
            except (OSError, ValueError):
                pass
        if handle.conn is not None:
            try:
                handle.conn.close()
            except Exception:
                pass
        if handle.up_event is not None:
            handle.up_event.set()      # never leave wait_up hanging

    def sweep(self) -> None:
        """Staleness backstop: a shard that stopped heartbeating while
        nominally UP/DRAINING is dead to the placement layer."""
        for handle in self.handles.values():
            if handle.alive and handle.heartbeat_age() > self.stale_after:
                self.mark_dead(handle, why="heartbeat-stale")

    # Control ----------------------------------------------------------------

    def _command(self, handle: ShardHandle, command: tuple) -> None:
        try:
            handle.conn.send(command)
        except (BrokenPipeError, OSError, ValueError):
            self.mark_dead(handle, why="pipe-broken")

    def mark_draining(self, shard_id: int) -> ShardHandle:
        """Take one shard out of placement *without* telling it to shut
        down — the first step of a live migration: the router quiesces
        and re-places the shard's rooms itself, then issues the actual
        drain command once they are gone."""
        handle = self.handles[shard_id]
        if handle.state == UP:
            handle.state = DRAINING
        return handle

    async def restore_room(self, shard_id: int, payload: dict,
                           timeout: float = 5.0) -> dict:
        """Send one final room checkpoint to ``shard_id`` and await its
        ("restored", ...) ack.  Returns the ack body — ``{"ok": False}``
        with an ``error`` on timeout, shard death, or shard-side refusal
        (version mismatch, collision)."""
        handle = self.handles[shard_id]
        token = str(payload.get("token") or "")
        self._command(handle, ("restore", payload))
        loop = asyncio.get_running_loop()
        deadline = loop.time() + timeout
        while token not in handle.restore_acks:
            if handle.state == DEAD:
                return {"token": token, "ok": False, "error": "shard-dead"}
            remaining = deadline - loop.time()
            if remaining <= 0:
                return {"token": token, "ok": False, "error": "timeout"}
            handle.restore_event.clear()
            try:
                await asyncio.wait_for(handle.restore_event.wait(), remaining)
            except asyncio.TimeoutError:
                pass
        return handle.restore_acks.pop(token)

    def drain(self, shard_id: int) -> None:
        """Ask one shard to drain gracefully.  Marked DRAINING immediately
        — the placement layer must stop choosing it *before* the ack, or
        a room could land on it inside the window.

        This is the *shed* path: the shard finishes (or aborts) its own
        rooms.  :meth:`repro.cluster.router.ClusterRouter.drain_shard`
        layers live migration on top, moving rooms to a peer first."""
        handle = self.handles[shard_id]
        if handle.state == DEAD:
            return
        self._command(handle, ("drain",))
        if handle.state != DEAD:
            handle.state = DRAINING
        metrics.bump("svc-cluster:drains")

    def kill(self, shard_id: int) -> None:
        """Hard-kill one shard (failure injection / last resort).  Marked
        DEAD immediately; the pipe EOF that follows is then a no-op."""
        handle = self.handles[shard_id]
        if handle.process is not None and handle.process.is_alive():
            handle.process.kill()
        self.mark_dead(handle, why="killed")

    # Queries ----------------------------------------------------------------

    def live(self) -> List[ShardHandle]:
        """Placement candidates: UP only — DRAINING shards finish their
        rooms but accept no new ones."""
        return [h for h in self.handles.values() if h.state == UP]

    def states(self) -> Dict[str, List[int]]:
        grouped: Dict[str, List[int]] = {}
        for handle in self.handles.values():
            grouped.setdefault(handle.state, []).append(handle.shard_id)
        return {state: sorted(ids) for state, ids in grouped.items()}


__all__ = ["ShardHandle", "HealthMonitor",
           "STARTING", "UP", "DRAINING", "DEAD"]
