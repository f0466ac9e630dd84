"""End-to-end tests for the HTTP/JSON gateway.

The gateway fronts a real rendezvous server over real sockets; the
client here is a hand-rolled raw HTTP/1.1 requester (stdlib only, same
as the gateway itself) so the wire format is tested, not mocked.
"""

import asyncio
import json

import pytest

from repro import metrics
from repro.cluster import ClusterConfig, ClusterRouter
from repro.core.scheme1 import scheme1_policy
from repro.gate import GatewayConfig, HttpGateway
from repro.gate import http as gate_http
from repro.service import RendezvousServer, ServerConfig

TEST_CAP = 60.0


def _run(coroutine):
    async def capped():
        return await asyncio.wait_for(coroutine, TEST_CAP)
    return asyncio.run(capped())


async def _request(port, method, path, body=None):
    """One raw HTTP/1.1 exchange; returns (status_code, body_bytes)."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    payload = body if body is not None else b""
    head = (f"{method} {path} HTTP/1.1\r\n"
            f"Host: 127.0.0.1:{port}\r\n"
            f"Content-Length: {len(payload)}\r\n"
            f"Connection: close\r\n\r\n")
    writer.write(head.encode() + payload)
    await writer.drain()
    raw = await reader.read()
    writer.close()
    header_blob, _, body_blob = raw.partition(b"\r\n\r\n")
    status_line = header_blob.split(b"\r\n", 1)[0].decode()
    code = int(status_line.split(" ")[1])
    return code, body_blob


async def _raw_post(port, content_length, body):
    """POST /rooms with a ``Content-Length`` header given as is, then
    half-close; returns (status_code, body_bytes) like ``_request``
    (IndexError if no status line came back)."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    writer.write(f"POST /rooms HTTP/1.1\r\n"
                 f"Content-Length: {content_length}\r\n\r\n".encode()
                 + body)
    await writer.drain()
    writer.write_eof()
    raw = await reader.read()
    writer.close()
    header_blob, _, body_blob = raw.partition(b"\r\n\r\n")
    return int(header_blob.split(b"\r\n", 1)[0].split(b" ")[1]), body_blob


def _prometheus_samples(text):
    """Sample count of a Prometheus text exposition; every line must be a
    comment or ``name{labels} value``."""
    samples = 0
    for line in text.strip().split("\n"):
        if line.startswith("#"):
            continue
        name_part, _, value = line.rpartition(" ")
        assert name_part, line
        float(value)  # must parse
        metric = name_part.split("{", 1)[0]
        assert metric.replace("_", "").isalnum(), line
        samples += 1
    return samples


class _World:
    """One rendezvous server + gateway pair, torn down cleanly."""

    def __init__(self, members, policy, **server_kw):
        self.members = members
        self.policy = policy
        self.server_kw = server_kw

    async def __aenter__(self):
        self.server = await RendezvousServer(
            ServerConfig(port=0, **self.server_kw)).start()
        self.gateway = await HttpGateway(
            GatewayConfig(target_port=self.server.port, deadline=20.0),
            self.members, self.policy).start()
        return self

    async def __aexit__(self, *exc):
        await self.gateway.shutdown()
        await self.server.shutdown(drain=False)


class TestRooms:
    def test_post_room_runs_a_real_handshake(self, scheme1_world):
        members = scheme1_world.lineup("alice", "bob")

        async def scenario():
            async with _World(members, scheme1_policy()) as world:
                code, body = await _request(
                    world.gateway.port, "POST", "/rooms",
                    json.dumps({"room": "over-http", "m": 2}).encode())
                assert code == 202
                assert json.loads(body) == {
                    "room": "over-http", "m": 2, "state": "running"}
                while True:
                    code, body = await _request(
                        world.gateway.port, "GET", "/rooms/over-http")
                    doc = json.loads(body)
                    if doc["state"] != "running":
                        return code, doc

        with metrics.using(metrics.Recorder()) as recorder:
            code, doc = _run(scenario())
        assert code == 200
        assert doc["state"] == "completed"
        assert doc["result"]["successes"] == 2
        assert doc["result"]["e2e_latency_s"] > 0
        extra = recorder.total().extra
        assert extra.get("gate:rooms-spawned") == 1
        assert extra.get("gate:requests", 0) >= 2

    def test_oldest_finished_rooms_are_evicted(self, scheme1_world,
                                               monkeypatch):
        # raising=False: without the bound the test fails on the 404.
        monkeypatch.setattr(gate_http, "FINISHED_KEEP", 2, raising=False)
        members = scheme1_world.lineup("alice", "bob")

        async def scenario():
            async with _World(members, scheme1_policy()) as world:
                port = world.gateway.port
                for name in ("first", "second", "third"):
                    code, _ = await _request(
                        port, "POST", "/rooms",
                        json.dumps({"room": name}).encode())
                    assert code == 202
                    while world.gateway.rooms[name].state == "running":
                        await asyncio.sleep(0.01)
                return {name: await _request(port, "GET", f"/rooms/{name}")
                        for name in ("first", "second", "third")}

        with metrics.using(metrics.Recorder()):
            results = _run(scenario())
        assert results["first"][0] == 404
        for name in ("second", "third"):
            code, body = results[name]
            assert code == 200
            assert json.loads(body)["state"] == "completed"

    def test_post_room_validates_input(self, scheme1_world):
        members = scheme1_world.lineup("alice", "bob")

        async def scenario():
            async with _World(members, scheme1_policy()) as world:
                results = {}
                results["bad-json"] = await _request(
                    world.gateway.port, "POST", "/rooms", b"{nope")
                results["bad-m"] = await _request(
                    world.gateway.port, "POST", "/rooms",
                    json.dumps({"m": 99}).encode())
                results["get-verb"] = await _request(
                    world.gateway.port, "GET", "/rooms")
                results["unknown"] = await _request(
                    world.gateway.port, "GET", "/rooms/never-spawned")
                results["no-route"] = await _request(
                    world.gateway.port, "GET", "/nope")
                results["negative-length"] = await _raw_post(
                    world.gateway.port, "-1", b"")
                results["short-body"] = await _raw_post(
                    world.gateway.port, "10", b"{}")
                return results

        with metrics.using(metrics.Recorder()) as recorder:
            results = _run(scenario())
        assert results["bad-json"][0] == 400
        assert results["bad-m"][0] == 400
        assert results["get-verb"][0] == 405
        assert results["unknown"][0] == 404
        assert results["no-route"][0] == 404
        assert results["negative-length"][0] == 400
        assert results["short-body"][0] == 400
        assert recorder.total().extra.get("gate:status:400") == 4
        # Every error body is structured JSON, not a stack trace.
        for code, body in results.values():
            assert "error" in json.loads(body)


class TestStatusAndMetrics:
    def test_status_proxies_the_target_snapshot(self, scheme1_world):
        members = scheme1_world.lineup("alice", "bob")

        async def scenario():
            async with _World(members, scheme1_policy()) as world:
                return await _request(world.gateway.port, "GET", "/status")

        code, body = _run(scenario())
        assert code == 200
        status = json.loads(body)
        assert status["rooms"] == {"filling": 0, "active": 0,
                                   "closed": 0, "restoring": 0}
        assert "counters" in status

    def test_metrics_is_parseable_prometheus(self, scheme1_world):
        members = scheme1_world.lineup("alice", "bob")

        async def scenario():
            async with _World(members, scheme1_policy()) as world:
                return await _request(world.gateway.port, "GET", "/metrics")

        code, body = _run(scenario())
        assert code == 200
        text = body.decode()
        assert _prometheus_samples(text) >= 4
        assert 'repro_rooms{state="restoring"} 0' in text
        assert "repro_up 1" in text


_RETRY_COUNTERS = ("svc-client:retries", "svc-client:busy-retries",
                   "svc-client:rejoin-retries", "svc-client:room-aborts")


class TestUnderLiveDrain:
    def test_rooms_complete_across_a_live_drain(self, scheme1_world):
        """Six rooms POSTed through the gateway to a 2-shard cluster, all
        placed on shard 0, which is live-drained while they run: every
        room completes with no client retry.  Each room is booked in its
        own recorder, so the retry check reads the ``counters`` of every
        room's gateway document."""
        members = scheme1_world.lineup("alice", "bob")

        async def scenario():
            config = ClusterConfig(shards=2, heartbeat_interval=0.1)
            async with ClusterRouter(config) as router:
                names = [name for name in (f"drained-{i}" for i in range(64))
                         if router.ring.place(name) == 0][:6]
                gateway = await HttpGateway(
                    GatewayConfig(target_port=router.port, deadline=60.0),
                    members, scheme1_policy()).start()
                try:
                    for name in names:
                        code, _ = await _request(
                            gateway.port, "POST", "/rooms",
                            json.dumps({"room": name, "m": 2}).encode())
                        assert code == 202
                    report = await router.drain_shard(0)
                    states = {}
                    while len(states) < len(names):
                        await asyncio.sleep(0.05)
                        for name in set(names) - set(states):
                            code, body = await _request(
                                gateway.port, "GET", f"/rooms/{name}")
                            assert code == 200
                            doc = json.loads(body)
                            if doc["state"] != "running":
                                states[name] = doc
                    code, body = await _request(
                        gateway.port, "GET", "/metrics")
                finally:
                    await gateway.shutdown()
            return names, report, states, code, body.decode()

        with metrics.using(metrics.Recorder()) as recorder:
            names, report, states, code, exposition = _run(scenario())
        assert len(names) == 6
        assert report["failed"] == 0
        assert {name: doc["state"] for name, doc in states.items()} == \
            {name: "completed" for name in names}
        assert all(doc["result"]["successes"] == 2
                   for doc in states.values())
        for name, doc in states.items():
            counters = doc["result"]["counters"]
            retries = {c: counters.get(c, 0) for c in _RETRY_COUNTERS}
            assert not any(retries.values()), (name, retries)
        assert code == 200 and _prometheus_samples(exposition) > 0
        extra = recorder.total().extra
        assert recorder.histograms()["gate:request-latency"].total == \
            extra["gate:requests"]
