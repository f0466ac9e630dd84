"""Trace continuity across shard failover + redaction of shipped telemetry.

Two PR acceptance criteria live here:

* **one room, one trace** — a room whose owning shard is SIGKILLed mid
  fill is re-placed onto the survivor; because every member of the room
  presents the *same* HELLO trace context (and a rejoining client reuses
  the context it first minted), the survivor's ``room``/``room:fill``
  spans and the router's second ``place`` span (``replaced=true``) share
  the original trace id — Perfetto shows one trace spanning the kill;
* **redaction holds for shipped telemetry** — span batches that crossed
  the shard→router pipe and the Prometheus exposition of the merged
  STATUS carry no member identifiers, no rendezvous room names, and no
  hex runs long enough to be key/payload material.
"""

import asyncio
import json
import random
import re

import pytest

from repro import metrics
from repro.cluster import ClusterConfig, ClusterRouter
from repro.cluster.placement import HashRing
from repro.core.scheme1 import scheme1_policy
from repro.obs import export
from repro.obs import spans as obs
from repro.obs import telemetry
from repro.service import ClientConfig, join_room, query_status

TEST_CAP = 120.0

#: Long hex = key/payload material.  Room tokens and trace ids are 16
#: hex chars and allowed; 20+ is a leak.
_MATERIAL = re.compile(r"[0-9a-f]{20,}")


def _run(coroutine):
    async def capped():
        return await asyncio.wait_for(coroutine, TEST_CAP)
    return asyncio.run(capped())


def _room_on_shard(config, shard_id, prefix):
    ring = HashRing(replicas=config.ring_replicas)
    for i in range(config.shards):
        ring.add(i)
    i = 0
    while True:
        name = f"{prefix}-{i}"
        if ring.place(name) == shard_id:
            return name
        i += 1


@pytest.fixture(scope="module")
def failover_world(request):
    """One traced kill-failover run, shared by the continuity and the
    redaction tests (cluster spawns are expensive)."""
    world = request.getfixturevalue("scheme1_world")
    members = world.lineup(*sorted(world.members)[:2])
    policy = scheme1_policy()
    config = ClusterConfig(shards=2, heartbeat_interval=0.1, trace=True)
    room = _room_on_shard(config, 0, "secret-rendezvous")
    trace_id = obs.mint_trace_id()

    async def scenario():
        async with ClusterRouter(config) as router:
            cfg = ClientConfig(port=router.port, room=room, m=2,
                               backoff_base=0.05, backoff_max=0.3,
                               deadline=30.0, trace=trace_id)
            joined = asyncio.Event()
            first = asyncio.ensure_future(join_room(
                members[0], cfg, policy, random.Random(1), joined=joined))
            await joined.wait()        # room filling on shard 0
            router.kill_shard(0)       # mid-fill SIGKILL
            second = asyncio.ensure_future(join_room(
                members[1], cfg, policy, random.Random(2)))
            outcomes = await asyncio.gather(first, second)
            # Two heartbeats so the survivor ships its finished spans.
            await asyncio.sleep(3 * config.heartbeat_interval)
            shipped = router.shipped_spans()
            status = await query_status("127.0.0.1", router.port)
            return outcomes, shipped, status

    recorder = metrics.Recorder()
    recorder.tracing = True            # router placement + client spans
    with metrics.using(recorder):
        outcomes, shipped, status = _run(scenario())
    return {
        "members": members,
        "room": room,
        "trace_id": trace_id,
        "outcomes": outcomes,
        "shipped": shipped,
        "status": status,
        "local_spans": [s.as_dict() for s in recorder.spans()],
    }


class TestTraceContinuity:
    def test_room_completes_despite_kill(self, failover_world):
        assert all(o.success for o in failover_world["outcomes"])

    def test_replacement_span_shares_the_trace(self, failover_world):
        """The router placed the room twice — once on the doomed shard,
        once (``replaced=true``) on the survivor — and both placement
        spans carry the client's trace id."""
        places = [row for row in failover_world["local_spans"]
                  if row["name"] == "place"]
        assert len(places) >= 2
        assert all(row["trace_id"] == failover_world["trace_id"]
                   for row in places)
        assert any(row.get("attr.replaced") is True for row in places)
        assert any(row.get("attr.replaced") is False for row in places)

    def test_survivor_room_spans_share_the_trace(self, failover_world):
        """The re-placed room's server-side spans, shipped over the
        heartbeat channel from the surviving shard, carry the same trace
        id the client minted before the kill."""
        shipped = failover_world["shipped"]
        survivor = shipped.get(1) or {}
        rows = survivor.get("spans") or []
        rooms = [row for row in rows if row["name"] == "room"]
        assert rooms, "survivor shipped no room spans"
        assert any(row["trace_id"] == failover_world["trace_id"]
                   for row in rooms)
        # Children (fill/relay) link into the same trace.
        fills = [row for row in rows if row["name"] == "room:fill"
                 and row["trace_id"] == failover_world["trace_id"]]
        assert fills
        assert survivor.get("epoch") is not None

    def test_client_spans_share_the_trace(self, failover_world):
        handshakes = [row for row in failover_world["local_spans"]
                      if row["name"] == "handshake"]
        assert handshakes
        assert all(row["trace_id"] == failover_world["trace_id"]
                   for row in handshakes)

    def test_merged_trace_has_client_router_and_shard_lanes(
            self, failover_world):
        sources = [
            {"label": "client", "epoch": None,
             "spans": failover_world["local_spans"]},
        ] + [
            {"label": f"shard:{sid}", "epoch": batch.get("epoch"),
             "spans": batch.get("spans") or []}
            for sid, batch in sorted(failover_world["shipped"].items())
        ]
        doc = export.chrome_trace(sources)
        lanes = {e["args"]["name"] for e in doc["traceEvents"]
                 if e["ph"] == "M" and e["name"] == "thread_name"}
        assert "client" in lanes and "shard:1" in lanes
        traced = {e["args"].get("trace_id")
                  for e in doc["traceEvents"] if e["ph"] == "X"}
        assert failover_world["trace_id"] in traced


#: Any integer this large in telemetry is group-element/key material —
#: counts, indices and ports all fit in 64 bits.
_BIGINT = 1 << 64


def _scan_doc(value, failures, path="$"):
    """Walk a JSON-able document: long hex in strings and oversized ints
    are material; floats are timestamps/durations and never are (their
    digit runs are what a naive text regex false-positives on)."""
    if isinstance(value, str):
        if _MATERIAL.search(value):
            failures.append(f"{path}: hex material {value[:40]!r}")
    elif isinstance(value, bool):
        pass
    elif isinstance(value, int):
        if abs(value) >= _BIGINT:
            failures.append(f"{path}: bigint material ({value.bit_length()}b)")
    elif isinstance(value, dict):
        for key, item in value.items():
            _scan_doc(key, failures, f"{path}.{key}")
            _scan_doc(item, failures, f"{path}.{key}")
    elif isinstance(value, (list, tuple)):
        for i, item in enumerate(value):
            _scan_doc(item, failures, f"{path}[{i}]")


class TestShippedTelemetryRedaction:
    def _scan(self, doc, failover_world):
        text = json.dumps(doc)
        for member in failover_world["members"]:
            ident = getattr(member, "user_id", None)
            if ident:
                assert ident not in text
        assert failover_world["room"] not in text
        failures = []
        _scan_doc(doc, failures)
        assert not failures, failures[:5]

    def test_shipped_span_batches_leak_nothing(self, failover_world):
        shipped = failover_world["shipped"]
        assert any(row["name"] == "room" for batch in shipped.values()
                   for row in batch.get("spans") or [])
        self._scan(shipped, failover_world)

    def test_local_spans_leak_nothing(self, failover_world):
        self._scan(failover_world["local_spans"], failover_world)

    def test_prometheus_output_leaks_nothing(self, failover_world):
        text = telemetry.prometheus_exposition(failover_world["status"])
        assert "repro_up 1" in text
        assert "repro_counter_total" in text
        for member in failover_world["members"]:
            ident = getattr(member, "user_id", None)
            if ident:
                assert ident not in text
        assert failover_world["room"] not in text
        # Scan each line with its numeric sample value stripped — metric
        # values are floats whose digits would false-positive as hex.
        for line in text.splitlines():
            head, _, tail = line.rpartition(" ")
            scannable = head if _is_number(tail) else line
            for run in _MATERIAL.findall(scannable):
                pytest.fail(f"suspicious hex material: {run[:40]}…")

    def test_trace_ids_stay_below_material_threshold(self, failover_world):
        assert _MATERIAL.match(failover_world["trace_id"]) is None


def _is_number(token):
    try:
        float(token)
    except ValueError:
        return False
    return True
