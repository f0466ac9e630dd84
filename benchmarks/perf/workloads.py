"""The four benchmark workloads and the loop that measures them.

Every workload builds its world from the seed, warms up (so the fixed-base
tables exist before timing starts), then runs *units* in a closed loop,
one unit in flight, until the run's seconds are spent.  A unit is one
room, except on churn-m4, where it is one membership epoch followed by
four rooms.  The load comes from this one process and one thread; the
accel pool and offload stay off, fixed-base tables and ``ScanCache`` stay
on (the CLI default).  Socket workloads keep at most two connections open:
one m=2 room in flight.

Every room's outputs are checked (see each workload's ``unit``); a failed
check counts the room as failed.  End-to-end metrics come from untraced
runs; a traced run (``trace=True``) installs :class:`tracer.Tracer` on
every other unit and reports the per-layer metrics instead.
"""

from __future__ import annotations

import asyncio
import collections
import contextlib
import os
import random
import statistics
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from harness import (GSIG_BITS, ROOT, Cluster, ClusterError, calibrate,
                     host_fingerprint, peak_rss_mb, percentile)
from tracer import EPOCH_GROUPS, GROUPS, Tracer

from repro import accel, metrics
from repro.core import wire
from repro.core.handshake import run_handshake
from repro.core.scheme1 import create_scheme1, scheme1_policy
from repro.core.scheme2 import create_scheme2, scheme2_policy
from repro.errors import ProtocolError, ReproError
from repro.load import HandshakeModel, run_timed_room
from repro.net.runner import run_handshake_over_network
from repro.net.simulator import Network
from repro.obs.telemetry import _delta_histogram
from repro.revocation import RevocationService
from repro.service import ClientConfig, framing, protocol, query_status

#: Set-up is repeated this many times per run and its median reported.
SETUP_REPEATS = 3
#: Per-room cap on a socket room; a room that hits it counts as failed.
ROOM_DEADLINE_S = 30.0
#: Wait before reading STATUS: shards heartbeat every 0.25 s, so after
#: this long the router holds every shard's final books.
HEARTBEAT_WAIT_S = 0.6
COUNT_FIELDS = ("modexp", "messages_sent", "messages_received")

#: (name, unit, better) of every end-to-end metric, as in BENCHMARK.json.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("rooms_per_s", "rooms/s", "higher"),
    ("room_p50_s", "s", "lower"),
    ("room_p90_s", "s", "lower"),
    ("cpu_s_per_room", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

#: (name, unit, better) of every per-layer metric, as in BENCHMARK.json.
PER_LAYER = tuple(
    (f"{group}.{stat}", unit, "lower")
    for group in GROUPS for stat, unit in (("calls", "count"),
                                           ("self_s", "s"))
) + (
    ("service.framing.bytes", "B", "lower"),
    ("service.client.wait_s", "s", "lower"),
    ("service.client.admission_wait_p50_s", "s", "lower"),
    ("service.client.retries", "count", "lower"),
    ("cluster.router.cpu_s", "s", "lower"),
    ("cluster.router.welcome_p50_s", "s", "lower"),
    ("cluster.router.busy", "fraction", "lower"),
    ("cluster.router.rss_mb", "MB", "lower"),
    ("service.server.cpu_s", "s", "lower"),
    ("service.server.frames", "count", "lower"),
    ("service.server.relay_latency_p50_s", "s", "lower"),
    ("service.server.relay_latency_p90_s", "s", "lower"),
    ("service.server.rss_mb", "MB", "lower"),
    ("revocation.modexp", "count", "lower"),
    ("revocation.epoch.p50_s", "s", "lower"),
    ("crypto.modexp", "count", "lower"),
    ("crypto.modexp.predicted_s", "s", "lower"),
    ("calibration.s_per_modexp", "s", "lower"),
    ("core.handshake.unattributed_s", "s", "lower"),
    ("accel.batch.dedup_ratio", "fraction", "higher"),
    ("accel.fixed_base.hit_ratio", "fraction", "higher"),
    ("accel.fixed_base.misses", "count", "lower"),
    ("accel.fixed_base.tables", "count", "lower"),
    ("trace.overhead_frac", "fraction", "lower"),
    ("trace.unattributed_frac", "fraction", "lower"),
)


@dataclass
class Room:
    latency: float
    why: str = ""                  # empty when every check passed
    traced: bool = False
    modexp: int = 0
    scan_hits: int = 0
    scan_misses: int = 0
    welcome_s: Optional[float] = None
    admission_s: Optional[float] = None
    retries: int = 0
    books: Optional[dict] = field(default=None, repr=False)

    @property
    def ok(self) -> bool:
        return not self.why


@dataclass
class Epoch:
    latency: float
    modexp: int
    why: str = ""
    traced: bool = False


def _pct_or_zero(values: List[float], pct: float = 50) -> float:
    return percentile(values, pct) if values else 0.0


def _span(tracer: Optional[Tracer], name: str, index: int):
    return tracer.unit(name, index) if tracer else contextlib.nullcontext()


# ---------------------------------------------------------------------------
# In-process rooms (engine-m8, churn-m4).
# ---------------------------------------------------------------------------


def engine_room(members, policy, rng: random.Random,
                expected: Dict[str, int]) -> Room:
    """One ``run_handshake`` room under its own recorder.  Checks: every
    party succeeds, all session keys are equal, and each party's modexp
    and message counts equal the model exactly.  Bytes are not compared:
    the engine path counts none."""
    recorder = metrics.Recorder()
    t0 = time.perf_counter()
    with metrics.using(recorder):
        outcomes = run_handshake(members, policy, rng)
    latency = time.perf_counter() - t0
    books = recorder.snapshot()
    why = ""
    if not all(o.success for o in outcomes):
        why = "a party failed"
    elif len({o.session_key for o in outcomes}) != 1:
        why = "session keys differ"
    else:
        for i in range(len(members)):
            party = books.get(f"hs:{i}")
            for name, want in expected.items():
                got = getattr(party, name, None)
                if got != want:
                    why = f"hs:{i} {name} {got} != model {want}"
    extra = books["total"].extra
    return Room(latency, why, modexp=books["total"].modexp,
                scan_hits=extra.get("accel:batch-scan-hit", 0),
                scan_misses=extra.get("accel:batch-scan-miss", 0))


class Workload:
    """A workload: world set-up, one timed unit, post-run checks."""

    name = ""
    why = ""
    scheme = "1"
    m = 2
    #: Exact wrapper calls per room a traced run must show.
    expected_calls: Dict[str, int] = {}

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.cluster: Optional[Cluster] = None
        model = HandshakeModel(self.scheme)
        self.model = model
        self.expected = {k: v for k, v in model.per_party(self.m).items()
                         if k in COUNT_FIELDS}

    def rng(self, *parts) -> random.Random:
        """A generator seeded from the run seed and ``parts`` — the same
        seed gives the same worlds and rooms."""
        return random.Random(":".join(map(str, (self.name, self.seed)
                                          + parts)))

    async def setup(self, repeat: int) -> None:
        raise NotImplementedError

    async def unit(self, index: int, tracer: Optional[Tracer]
                   ) -> Tuple[List[Room], Optional[Epoch]]:
        raise NotImplementedError

    async def finish(self, rooms: List[Room]) -> List[str]:
        """Post-run checks; returns problems (empty = all good)."""
        return []

    async def status(self) -> Optional[dict]:
        if self.cluster is None:
            return None
        await asyncio.sleep(HEARTBEAT_WAIT_S)
        return await query_status("127.0.0.1", self.cluster.port)

    def close(self) -> bool:
        """Stop the cluster, if any; False if a process outlived it."""
        cluster, self.cluster = self.cluster, None
        return cluster.stop() if cluster is not None else True

    async def start_cluster(self) -> None:
        if not self.close():
            raise ClusterError("a server process outlived the router")
        self.cluster = Cluster().start()
        await self.cluster.ready()


class EngineM8(Workload):
    name = "engine-m8"
    why = ("room-scale Phase III in-process: gsig sign/verify dominate and "
           "ScanCache dedups verifies; no sockets, so relay changes show "
           "no change")
    m = 8
    warmup = 2
    expected_calls = {"gsig.sign": 8, "gsig.verify": 8, "dgka.emit": 16}

    async def setup(self, repeat: int) -> None:
        rng = self.rng("world", repeat)
        framework = create_scheme1(f"bench-{repeat}", rng=rng)
        self.members = [framework.admit_member(f"user-{i}", rng)
                        for i in range(self.m)]
        self.policy = scheme1_policy()
        for i in range(self.warmup):
            engine_room(self.members, self.policy,
                        self.rng("warmup", repeat, i), self.expected)

    async def unit(self, index, tracer):
        with _span(tracer, "room", index):
            room = engine_room(self.members, self.policy,
                               self.rng("room", index), self.expected)
        return [room], None


class SocketM2(Workload):
    name = "socket-m2"
    why = ("two join_room devices per scheme-2 room through the 2-shard "
           "cluster: what a pair of devices sees; no room-wide ScanCache")
    scheme = "2"
    m = 2
    warmup = 5
    expected_calls = {"gsig.sign": 2, "dgka.emit": 4}

    async def setup(self, repeat: int) -> None:
        await self.start_cluster()
        rng = self.rng("world", repeat)
        framework = create_scheme2(f"bench-{repeat}", rng=rng)
        self.members = [framework.admit_member(f"user-{i}", rng)
                        for i in range(self.m)]
        self.policy = scheme2_policy()
        for i in range(self.warmup):
            await self._room(f"warmup-{self.seed}-{repeat}-{i}",
                             ("warmup", repeat, i))

    async def _room(self, name: str, key: tuple) -> Room:
        # Both devices share this process's one event loop, so a room's
        # latency is the sum of the two devices' crypto plus the relay.
        config = ClientConfig(port=self.cluster.port, room=name,
                              deadline=ROOM_DEADLINE_S)
        rngs = [self.rng(*key, j) for j in range(self.m)]
        result = await run_timed_room(self.members, config, self.policy,
                                      rngs)
        if result.outcome != "completed":
            return Room(0.0, f"outcome {result.outcome}")
        return Room(result.completed_s - result.spawned_s,
                    modexp=result.books["total"]["modexp"],
                    welcome_s=result.first_welcome_s - result.spawned_s,
                    admission_s=result.admitted_s - result.spawned_s,
                    retries=sum(v for k, v in result.counters.items()
                                if k.endswith("retries")),
                    books=result.books)

    async def unit(self, index, tracer):
        with _span(tracer, "room", index):
            room = await self._room(f"socket-{self.seed}-{index}",
                                    ("room", index))
        return [room], None

    async def finish(self, rooms):
        # Validated after the timed phase so the model's symbolic
        # evaluation stays out of the measured loop.
        for room in rooms:
            if room.books is not None:
                mismatches = self.model.validate_room(self.m, room.books)
                if mismatches:
                    room.why = mismatches[0]
                room.books = None
        return []


class RelayM2(Workload):
    name = "relay-m2"
    why = ("raw protocol clients replay one recorded scheme-2 m=2 room: "
           "bare forwarding through router splice, shard FIFO and codec; "
           "no crypto runs")
    scheme = "2"
    m = 2
    warmup = 50

    async def setup(self, repeat: int) -> None:
        await self.start_cluster()
        rng = self.rng("world", repeat)
        # The capture runs with accel off: fixed-base tables grow with the
        # largest exponent seen, so tables left from one captured room
        # would make the generator's peak memory depend on the seed.
        accel.configure(enabled=False)
        try:
            framework = create_scheme2(f"bench-{repeat}", rng=rng)
            members = [framework.admit_member(f"user-{i}", rng)
                       for i in range(self.m)]
            network = Network()
            outcomes = run_handshake_over_network(members, scheme2_policy(),
                                                  rng, network=network)
        finally:
            accel.configure(enabled=True)
        if not all(o.success for o in outcomes):
            raise RuntimeError("relay-m2 capture room failed")
        # (sender index, payload, expected wire bytes at the receiver)
        self.script = [(int(msg.sender.rsplit("-", 1)[1]), msg.payload,
                        wire.dumps(msg.payload))
                       for msg in network.history]
        for i in range(self.warmup):
            await self._room(f"warmup-{self.seed}-{repeat}-{i}")

    async def _room(self, name: str) -> Room:
        try:
            return await asyncio.wait_for(self._replay(name),
                                          ROOM_DEADLINE_S)
        except (asyncio.TimeoutError, OSError, ReproError) as exc:
            return Room(0.0, f"replay failed: {type(exc).__name__}")

    async def _replay(self, name: str) -> Room:
        """HELLO, then the recorded BROADCAST frames in their original
        order (each sender's frame is read back at the receiver before
        the next is sent), then DONE.  The receiver must see exactly the
        sender's payload, compared as ``wire.dumps`` bytes."""
        t0 = time.perf_counter()
        conns = []
        try:
            welcome_s = None
            for index in range(self.m):
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", self.cluster.port)
                conns.append((reader, writer))
                await framing.write_frame(writer, protocol.encode_message(
                    protocol.Hello(room=name, m=self.m)))
                welcome = await _next_message(reader)
                if not (isinstance(welcome, protocol.Welcome)
                        and welcome.index == index):
                    return Room(0.0, f"expected WELCOME {index}")
                if welcome_s is None:
                    welcome_s = time.perf_counter() - t0
            for reader, _ in conns:
                ready = await _next_message(reader)
                if not isinstance(ready, protocol.RoomReady):
                    return Room(0.0, "expected ROOM_READY")
            admission_s = time.perf_counter() - t0
            why = ""
            for sender, payload, expected in self.script:
                await framing.write_frame(
                    conns[sender][1],
                    protocol.encode_message(protocol.Broadcast(payload)))
                got = await _next_message(conns[1 - sender][0])
                if not (isinstance(got, protocol.Deliver)
                        and wire.dumps(got.payload) == expected):
                    why = why or "delivered payload differs from the sent one"
            for _, writer in conns:
                await framing.write_frame(
                    writer, protocol.encode_message(protocol.Done()))
            for reader, _ in conns:
                if await framing.read_frame(reader) is not None:
                    why = why or "relay sent a frame after DONE"
            return Room(time.perf_counter() - t0, why, welcome_s=welcome_s,
                        admission_s=admission_s)
        finally:
            for _, writer in conns:
                writer.close()
            for _, writer in conns:
                with contextlib.suppress(OSError):
                    await writer.wait_closed()

    async def unit(self, index, tracer):
        with _span(tracer, "room", index):
            room = await self._room(f"relay-{self.seed}-{index}")
        return [room], None


async def _next_message(reader: asyncio.StreamReader):
    blob = await framing.read_frame(reader)
    if blob is None:
        raise ProtocolError("the relay closed the connection")
    return protocol.decode_message(blob)


class ChurnM4(Workload):
    name = "churn-m4"
    why = ("membership epochs (admit, revoke oldest, seal) interleaved with "
           "m=4 handshakes: rotates accumulator, witnesses and warm tables")
    m = 4
    rooms_per_unit = 4
    live_members = 5
    warmup = 2
    expected_calls = {"gsig.sign": 4, "gsig.verify": 4, "dgka.emit": 8}

    async def setup(self, repeat: int) -> None:
        self.world_rng = self.rng("world", repeat)
        framework = create_scheme1(f"bench-{repeat}", rng=self.world_rng)
        self.service = RevocationService(framework, register=False)
        self.live = collections.deque(
            self.service.admit(f"user-{i}", self.world_rng)
            for i in range(self.live_members))
        self.next_user = self.live_members
        self.revoked = []
        self.policy = scheme1_policy()
        for i in range(self.warmup):
            engine_room(list(self.live)[-self.m:], self.policy,
                        self.rng("warmup", repeat, i), self.expected)

    async def unit(self, index, tracer):
        recorder = metrics.Recorder()
        with _span(tracer, "epoch", index * 8):
            t0 = time.perf_counter()
            with metrics.using(recorder):
                joined = self.service.admit(f"user-{self.next_user}",
                                            self.world_rng)
                leaving = self.live.popleft()
                self.service.revoke(leaving.user_id)
                self.service.seal_epoch()
            latency = time.perf_counter() - t0
        self.next_user += 1
        self.live.append(joined)
        self.revoked.append(leaving)
        why = "" if leaving.revoked and not joined.revoked \
            else "the sealed epoch did not take effect"
        epoch = Epoch(latency, recorder.total().modexp, why)
        rooms = []
        for r in range(self.rooms_per_unit):
            with _span(tracer, "room", index * 8 + 1 + r):
                rooms.append(engine_room(list(self.live)[-self.m:],
                                         self.policy,
                                         self.rng("room", index, r),
                                         self.expected))
        return rooms, epoch

    async def finish(self, rooms):
        # One untimed room with the latest revoked member: it must fail
        # for every party, the revoked one included.
        members = list(self.live)[-(self.m - 1):] + [self.revoked[-1]]
        outcomes = run_handshake(members, self.policy,
                                 self.rng("revoked-room"))
        if any(o.success for o in outcomes):
            return ["a room with a revoked member succeeded"]
        return []


WORKLOADS = {cls.name: cls for cls in (EngineM8, SocketM2, RelayM2, ChurnM4)}


# ---------------------------------------------------------------------------
# The measured run.
# ---------------------------------------------------------------------------


async def measure(name: str, seed: int, seconds: float, trace: bool,
                  import_s: float = 0.0, max_units: Optional[int] = None,
                  trace_path: Optional[str] = None) -> Dict[str, object]:
    """Set up, run the timed loop and check one workload; returns the
    result document (``correct``, ``attempted``, ``failed``, the
    end-to-end and, when traced, per-layer metrics, and the host).
    A traced run writes its merged span trace to ``trace_path``."""
    accel.configure(enabled=True, batch=True)
    workload = WORKLOADS[name](seed)
    problems: List[str] = []
    try:
        setups = []
        for repeat in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            await workload.setup(repeat)
            setups.append(time.perf_counter() - t0)
        run = await _timed(workload, seconds, trace, max_units)
        problems += await workload.finish(run["rooms"])
        status = await workload.status()
        server_rss = workload.cluster.rss_mb() if workload.cluster else {}
    finally:
        if not workload.close():
            problems.append("a server process outlived the router")
    calibration = calibrate()
    run.update(setups=setups, import_s=import_s, status1=status,
               server_rss=server_rss,
               calibration=calibration)
    doc = _report(workload, run, problems, trace)
    if trace and trace_path:
        try:
            doc["trace_events"] = run["tracer"].export(
                trace_path, f"generator {name}")
            doc["trace_file"] = os.path.relpath(trace_path, ROOT)
        except (OSError, ValueError) as exc:
            doc["problems"].append(f"merged trace unreadable: {exc}")
            doc["correct"] = False
    return doc


async def _timed(workload: Workload, seconds: float, trace: bool,
                 max_units: Optional[int]) -> Dict[str, object]:
    status0 = await workload.status()
    fixed0 = accel.stats()["fixed_base"]
    server0 = workload.cluster.cpu_seconds() if workload.cluster else {}
    tracer = Tracer() if trace else None
    rooms: List[Room] = []
    epochs: List[Epoch] = []
    call_problems: List[str] = []
    units = 0
    cpu0 = time.process_time()
    start = time.perf_counter()
    while (time.perf_counter() - start < seconds
           and (max_units is None or units < max_units)):
        # A traced run alternates traced and untraced units, so the
        # untraced ones give the overhead baseline under the same drift.
        traced = tracer is not None and units % 2 == 0
        before = dict(tracer.calls) if traced else None
        with tracer.installed(traced) if tracer else contextlib.nullcontext():
            unit_rooms, epoch = await workload.unit(
                units, tracer if traced else None)
        for room in unit_rooms:
            room.traced = traced
        rooms += unit_rooms
        if epoch is not None:
            epoch.traced = traced
            epochs.append(epoch)
        if traced:
            for group, per_room in workload.expected_calls.items():
                got = tracer.calls[group] - before.get(group, 0)
                want = per_room * len(unit_rooms)
                if got != want:
                    call_problems.append(
                        f"unit {units}: {group} calls {got} != {want}")
        units += 1
    wall = time.perf_counter() - start
    cpu = time.process_time() - cpu0
    server1 = workload.cluster.cpu_seconds() if workload.cluster else {}
    return {"rooms": rooms, "epochs": epochs, "wall": wall, "cpu": cpu,
            "status0": status0, "server0": server0, "server1": server1,
            "fixed0": fixed0,
            "fixed1": accel.stats()["fixed_base"], "tracer": tracer,
            "call_problems": call_problems}


def _report(workload: Workload, run: Dict[str, object],
            problems: List[str], trace: bool) -> Dict[str, object]:
    rooms: List[Room] = run["rooms"]
    epochs: List[Epoch] = run["epochs"]
    ok_rooms = [r for r in rooms if r.ok]
    failed = (len(rooms) - len(ok_rooms)
              + sum(1 for e in epochs if e.why))
    problems = problems + run["call_problems"]
    problems += sorted({r.why for r in rooms if r.why})[:5]
    problems += sorted({e.why for e in epochs if e.why})
    problems += _status_problems(run, len(rooms))

    server0, server1 = run["server0"], run["server1"]
    server_cpu = {k: server1.get(k, 0.0) - server0.get(k, 0.0)
                  for k in server0}
    n_ok = max(len(ok_rooms), 1)
    latencies = [r.latency for r in ok_rooms]
    end_to_end = {
        "setup_s": run["import_s"] + statistics.median(run["setups"]),
        "rooms_per_s": len(ok_rooms) / run["wall"],
        "room_p50_s": _pct_or_zero(latencies),
        "room_p90_s": _pct_or_zero(latencies, 90),
        "cpu_s_per_room": (run["cpu"] + sum(server_cpu.values())) / n_ok,
        "peak_rss_mb": peak_rss_mb() + sum(run["server_rss"].values()),
    }
    doc = {
        "workload": workload.name,
        "seed": workload.seed,
        "correct": not problems and failed == 0 and bool(ok_rooms),
        "attempted": len(rooms) + len(epochs),
        "failed": failed,
        "problems": problems,
        "units": {"rooms": len(rooms), "epochs": len(epochs),
                  "wall_s": run["wall"], "setup_repeats_s": run["setups"]},
        "host": host_fingerprint(run["calibration"]),
        "end_to_end": end_to_end,
    }
    if trace:
        doc["per_layer"] = _per_layer(run, ok_rooms, server_cpu)
    return doc


def _status_problems(run: Dict[str, object], rooms: int) -> List[str]:
    """The cluster's own books must agree: every timed room completed at
    the relay, and nothing aborted."""
    before, after = run["status0"], run["status1"]
    if before is None:
        return []
    if after is None:
        return ["no STATUS after the timed phase"]
    delta = {k: v - before["outcomes"].get(k, 0)
             for k, v in after["outcomes"].items()}
    out = []
    if delta.get("completed", 0) != rooms:
        out.append(f"relay completed {delta.get('completed', 0)} of "
                   f"{rooms} rooms")
    others = {k: v for k, v in delta.items() if k != "completed" and v}
    if others:
        out.append(f"relay outcomes besides completed: {others}")
    return out


def _per_layer(run: Dict[str, object], ok_rooms: List[Room],
               server_cpu: Dict[str, float]) -> Dict[str, float]:
    tracer: Tracer = run["tracer"]
    rooms: List[Room] = run["rooms"]
    epochs: List[Epoch] = run["epochs"]
    traced_rooms = [r for r in rooms if r.traced]
    traced_epochs = [e for e in epochs if e.traced]
    n_rooms = max(len(traced_rooms), 1)
    n_epochs = max(len(traced_epochs), 1)
    n_ok = max(len(ok_rooms), 1)
    layer: Dict[str, float] = {}
    for group in GROUPS:
        norm = n_epochs if group in EPOCH_GROUPS else n_rooms
        layer[f"{group}.calls"] = tracer.calls[group] / norm
        layer[f"{group}.self_s"] = tracer.self_s[group] / norm

    traced_wall = (sum(r.latency for r in traced_rooms)
                   + sum(e.latency for e in traced_epochs))
    unattributed = traced_wall - sum(tracer.self_s.values())
    traced_p50 = _pct_or_zero([r.latency for r in traced_rooms if r.ok])
    untraced_p50 = _pct_or_zero(
        [r.latency for r in ok_rooms if not r.traced])
    hits = sum(r.scan_hits for r in ok_rooms)
    misses = sum(r.scan_misses for r in ok_rooms)
    fixed0, fixed1 = run["fixed0"], run["fixed1"]
    fb_hits = fixed1["hits"] - fixed0["hits"]
    fb_misses = fixed1["misses"] - fixed0["misses"]
    s_per_modexp = run["calibration"][str(GSIG_BITS)]
    modexp = sum(r.modexp for r in ok_rooms) / n_ok
    layer.update({
        "service.framing.bytes": tracer.framing_bytes / n_rooms,
        "service.client.wait_s": tracer.wait_s / n_rooms,
        "service.client.admission_wait_p50_s": _pct_or_zero(
            [r.admission_s for r in ok_rooms if r.admission_s is not None]),
        "service.client.retries": sum(r.retries for r in rooms) / n_ok,
        "revocation.modexp": (sum(e.modexp for e in epochs)
                              / max(len(epochs), 1)),
        "revocation.epoch.p50_s": _pct_or_zero(
            [e.latency for e in epochs]),
        "crypto.modexp": modexp,
        "crypto.modexp.predicted_s": modexp * s_per_modexp,
        "calibration.s_per_modexp": s_per_modexp,
        "core.handshake.unattributed_s": unattributed / n_rooms,
        "accel.batch.dedup_ratio": hits / (hits + misses) if hits else 0.0,
        "accel.fixed_base.hit_ratio": (fb_hits / (fb_hits + fb_misses)
                                       if fb_hits else 0.0),
        "accel.fixed_base.misses": fb_misses / n_ok,
        "accel.fixed_base.tables": fixed1["tables"],
        "trace.overhead_frac": (traced_p50 / untraced_p50 - 1
                                if untraced_p50 else 0.0),
        "trace.unattributed_frac": (unattributed / traced_wall
                                    if traced_wall else 0.0),
    })
    layer.update(_server_layer(run, ok_rooms, server_cpu))
    return {name: layer[name] for name, _, _ in PER_LAYER}


def _server_layer(run: Dict[str, object], ok_rooms: List[Room],
                  server_cpu: Dict[str, float]) -> Dict[str, float]:
    n_ok = max(len(ok_rooms), 1)
    relay = None
    if run["status0"] is not None and run["status1"] is not None:
        relay = _delta_histogram(
            run["status0"]["histograms"].get("svc:relay-latency"),
            run["status1"]["histograms"].get("svc:relay-latency"))
    rss = run["server_rss"]
    return {
        "cluster.router.cpu_s": server_cpu.get("router", 0.0) / n_ok,
        "cluster.router.welcome_p50_s": _pct_or_zero(
            [r.welcome_s for r in ok_rooms if r.welcome_s is not None]),
        "cluster.router.busy": server_cpu.get("router", 0.0) / run["wall"],
        "cluster.router.rss_mb": rss.get("router", 0.0),
        "service.server.cpu_s": server_cpu.get("shards", 0.0) / n_ok,
        "service.server.frames": relay.total / n_ok if relay else 0.0,
        "service.server.relay_latency_p50_s": (relay.percentile(0.5)
                                               if relay else 0.0),
        "service.server.relay_latency_p90_s": (relay.percentile(0.9)
                                               if relay else 0.0),
        "service.server.rss_mb": rss.get("shards", 0.0),
    }
