"""Thin HTTP/JSON gateway in front of a rendezvous cluster.

Pure stdlib asyncio — no web framework, no new dependencies.  The
gateway is an *operator* front door, not a protocol bridge: handshake
crypto still runs in real rendezvous clients (it spawns them, in
process, against the router's TCP port), so nothing here touches
secrets and the wire books stay identical to a direct run.

Routes (all JSON unless noted):

* ``POST /rooms`` — body ``{"room": str?, "m": int?}``: spawn an
  ``m``-party handshake room against the target cluster (members come
  from the gateway's pre-enrolled pool) and return ``202`` immediately
  with the room name; the handshake completes in the background.
* ``GET /rooms/{name}`` — lifecycle + outcome of a gateway-spawned
  room (``running`` -> ``completed``/``retryable``/``failed``), with
  the full timed-room result once finished.  Running rooms are always
  readable; only the newest :data:`FINISHED_KEEP` finished rooms are,
  and an evicted one answers ``404`` like a name never spawned.
* ``GET /status`` — the target's merged STATUS snapshot, proxied.
* ``GET /metrics`` — the same snapshot rendered in Prometheus text
  exposition format (``text/plain``), scrape-ready.

Gateway-side books: ``gate:requests`` (plus ``gate:http:{method}`` and
``gate:status:{code}``), ``gate:rooms-spawned``, ``gate:errors``, and
the ``gate:request-latency`` histogram — all visible in the ambient
recorder, separate from the proxied cluster counters.
"""

from __future__ import annotations

import asyncio
import json
import random
from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Tuple

from repro import metrics
from repro.obs import telemetry
from repro.service import query_status
from repro.service.client import ClientConfig

#: Request line + headers must fit in this many bytes.
_MAX_HEAD = 16 * 1024
#: Largest accepted request body (JSON room specs are tiny).
_MAX_BODY = 64 * 1024
#: Finished rooms whose result documents stay readable; the oldest are
#: evicted past this count.
FINISHED_KEEP = 1024


@dataclass
class GatewayConfig:
    """One gateway instance: where to listen, which cluster to front."""

    host: str = "127.0.0.1"
    port: int = 0                  # 0 = ephemeral (read .port after start)
    #: The rendezvous service the gateway fronts (a ClusterRouter's or a
    #: single RendezvousServer's listening address).
    target_host: str = "127.0.0.1"
    target_port: int = 0
    #: Per-party client deadline for spawned rooms.
    deadline: float = 30.0
    #: Seed stream for spawned rooms' client RNGs (deterministic runs).
    seed: int = 2005
    #: How long one request may take to arrive and be answered.
    request_timeout: float = 30.0


@dataclass
class _SpawnedRoom:
    """Registry entry for one gateway-spawned room."""

    name: str
    m: int
    state: str = "running"         # running | completed | retryable | failed
    result: Optional[dict] = None
    task: Optional[asyncio.Task] = field(default=None, repr=False)


class _HttpError(Exception):
    def __init__(self, code: int, reason: str) -> None:
        super().__init__(reason)
        self.code = code
        self.reason = reason


_STATUS_TEXT = {200: "OK", 202: "Accepted", 400: "Bad Request",
                404: "Not Found", 405: "Method Not Allowed",
                413: "Payload Too Large", 502: "Bad Gateway",
                500: "Internal Server Error"}


class HttpGateway:
    """The gateway server.  ``members`` is the pre-enrolled party pool a
    ``POST /rooms`` draws from (first ``m`` members, roster order);
    ``policy`` is the handshake policy they run."""

    def __init__(self, config: GatewayConfig,
                 members: Sequence[object],
                 policy: Optional[object] = None) -> None:
        if not members:
            raise ValueError("the gateway needs at least one member")
        self.config = config
        self.members = list(members)
        self.policy = policy
        self.rooms: Dict[str, _SpawnedRoom] = {}
        #: Names of the finished rooms in ``rooms``, oldest first.
        self._finished: Dict[str, None] = {}
        self._server: Optional[asyncio.AbstractServer] = None
        self._spawned = 0

    # Lifecycle --------------------------------------------------------------

    async def start(self) -> "HttpGateway":
        self._server = await asyncio.start_server(
            self._handle, self.config.host, self.config.port)
        return self

    async def __aenter__(self) -> "HttpGateway":
        return await self.start()

    async def __aexit__(self, *exc) -> None:
        await self.shutdown()

    @property
    def port(self) -> int:
        assert self._server is not None, "gateway not started"
        return self._server.sockets[0].getsockname()[1]

    async def serve_forever(self) -> None:
        assert self._server is not None, "gateway not started"
        await self._server.serve_forever()

    async def shutdown(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        pending = [room.task for room in self.rooms.values()
                   if room.task is not None and not room.task.done()]
        for task in pending:
            task.cancel()
        if pending:
            await asyncio.gather(*pending, return_exceptions=True)

    # HTTP plumbing ----------------------------------------------------------

    async def _handle(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        loop = asyncio.get_running_loop()
        started = loop.time()
        metrics.bump("gate:requests")
        code = 500
        try:
            try:
                method, path, body = await asyncio.wait_for(
                    self._read_request(reader), self.config.request_timeout)
                metrics.bump(f"gate:http:{method}")
                code, content_type, payload = await self._dispatch(
                    method, path, body)
            except _HttpError as exc:
                metrics.bump("gate:errors")
                code, content_type, payload = (
                    exc.code, "application/json",
                    json.dumps({"error": exc.reason}).encode())
            except asyncio.TimeoutError:
                metrics.bump("gate:errors")
                code, content_type, payload = (
                    400, "application/json",
                    json.dumps({"error": "request timed out"}).encode())
            metrics.bump(f"gate:status:{code}")
            await self._respond(writer, code, content_type, payload)
        except (ConnectionError, OSError):
            pass
        finally:
            metrics.observe("gate:request-latency", loop.time() - started)
            try:
                writer.close()
            except Exception:
                pass

    async def _read_request(self, reader: asyncio.StreamReader,
                            ) -> Tuple[str, str, bytes]:
        try:
            head = await reader.readuntil(b"\r\n\r\n")
        except asyncio.LimitOverrunError:
            raise _HttpError(413, "headers too large")
        except (asyncio.IncompleteReadError, ConnectionError, OSError):
            raise _HttpError(400, "truncated request")
        if len(head) > _MAX_HEAD:
            raise _HttpError(413, "headers too large")
        try:
            lines = head.decode("latin-1").split("\r\n")
            method, target, _version = lines[0].split(" ", 2)
        except (UnicodeDecodeError, ValueError):
            raise _HttpError(400, "malformed request line")
        length = 0
        for line in lines[1:]:
            name, _, value = line.partition(":")
            if name.strip().lower() == "content-length":
                try:
                    length = int(value.strip())
                except ValueError:
                    raise _HttpError(400, "bad Content-Length")
        if length < 0:
            raise _HttpError(400, "bad Content-Length")
        if length > _MAX_BODY:
            raise _HttpError(413, "body too large")
        try:
            body = await reader.readexactly(length) if length else b""
        except (asyncio.IncompleteReadError, ConnectionError, OSError):
            raise _HttpError(400, "truncated body")
        path = target.split("?", 1)[0]
        return method.upper(), path, body

    async def _respond(self, writer: asyncio.StreamWriter, code: int,
                       content_type: str, payload: bytes) -> None:
        reason = _STATUS_TEXT.get(code, "Unknown")
        head = (f"HTTP/1.1 {code} {reason}\r\n"
                f"Content-Type: {content_type}\r\n"
                f"Content-Length: {len(payload)}\r\n"
                f"Connection: close\r\n\r\n")
        writer.write(head.encode("latin-1") + payload)
        await writer.drain()

    # Routes -----------------------------------------------------------------

    async def _dispatch(self, method: str, path: str, body: bytes,
                        ) -> Tuple[int, str, bytes]:
        if path == "/rooms":
            if method != "POST":
                raise _HttpError(405, "use POST /rooms")
            return await self._post_room(body)
        if path.startswith("/rooms/"):
            if method != "GET":
                raise _HttpError(405, "use GET /rooms/{name}")
            return self._get_room(path[len("/rooms/"):])
        if path == "/status":
            if method != "GET":
                raise _HttpError(405, "use GET /status")
            status = await self._target_status()
            return 200, "application/json", json.dumps(
                status, sort_keys=True).encode()
        if path == "/metrics":
            if method != "GET":
                raise _HttpError(405, "use GET /metrics")
            status = await self._target_status()
            text = telemetry.prometheus_exposition(status)
            return 200, "text/plain; version=0.0.4", text.encode()
        raise _HttpError(404, f"no route for {path}")

    async def _target_status(self) -> dict:
        try:
            return await query_status(self.config.target_host,
                                      self.config.target_port)
        except (ConnectionError, OSError, asyncio.TimeoutError) as exc:
            raise _HttpError(502, f"target unreachable: {exc}")

    async def _post_room(self, body: bytes) -> Tuple[int, str, bytes]:
        try:
            spec = json.loads(body.decode() or "{}")
        except (UnicodeDecodeError, ValueError):
            raise _HttpError(400, "body is not JSON")
        if not isinstance(spec, dict):
            raise _HttpError(400, "body must be a JSON object")
        m = spec.get("m", 2)
        if not isinstance(m, int) or not 2 <= m <= len(self.members):
            raise _HttpError(
                400, f"m must be an int in [2, {len(self.members)}]")
        name = spec.get("room") or f"gate-{self._spawned}"
        if not isinstance(name, str) or not name:
            raise _HttpError(400, "room must be a non-empty string")
        if name in self.rooms and self.rooms[name].state == "running":
            raise _HttpError(400, f"room {name!r} is already running")
        self._spawned += 1
        metrics.bump("gate:rooms-spawned")
        entry = _SpawnedRoom(name=name, m=m)
        entry.task = asyncio.ensure_future(self._run_room(entry))
        self._finished.pop(name, None)    # a rerun replaces the old result
        self.rooms[name] = entry
        return 202, "application/json", json.dumps(
            {"room": name, "m": m, "state": entry.state}).encode()

    async def _run_room(self, entry: _SpawnedRoom) -> None:
        from repro.load.generator import run_timed_room
        base = self.config.seed * 1_000_000 + self._spawned * 1_000
        rngs = [random.Random(base + i) for i in range(entry.m)]
        cfg = ClientConfig(host=self.config.target_host,
                           port=self.config.target_port,
                           room=entry.name, m=entry.m,
                           deadline=self.config.deadline)
        try:
            result = await run_timed_room(
                self.members[:entry.m], cfg, self.policy, rngs)
        except asyncio.CancelledError:
            entry.state = "failed"
            raise
        except Exception as exc:  # surface, never wedge the registry
            metrics.bump("gate:room-errors")
            entry.state = "failed"
            entry.result = {"error": f"{type(exc).__name__}: {exc}"}
            return
        else:
            entry.state = result.outcome
            entry.result = result.as_dict()
        finally:
            self._retire(entry)

    def _retire(self, entry: _SpawnedRoom) -> None:
        """Mark a room finished and evict the oldest finished rooms past
        :data:`FINISHED_KEEP`; running rooms are never evicted."""
        self._finished[entry.name] = None
        while len(self._finished) > FINISHED_KEEP:
            oldest = next(iter(self._finished))
            del self._finished[oldest]
            del self.rooms[oldest]

    def _get_room(self, name: str) -> Tuple[int, str, bytes]:
        entry = self.rooms.get(name)
        if entry is None:
            raise _HttpError(404, f"unknown room {name!r}")
        doc: Dict[str, object] = {"room": entry.name, "m": entry.m,
                                  "state": entry.state}
        if entry.result is not None:
            doc["result"] = entry.result
        return 200, "application/json", json.dumps(
            doc, sort_keys=True).encode()


__all__ = ["GatewayConfig", "HttpGateway"]
