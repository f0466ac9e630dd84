"""Service throughput — concurrent handshake rooms over loopback TCP.

The rendezvous server (repro.service) must sustain many rooms at once
without cross-room interference: every room runs under its own metrics
Recorder and must show exactly the paper's per-party message profile
(4 broadcasts sent, 4*(m-1) received) no matter how many neighbours are
hammering the same server.  Reported per concurrency level: wall time,
rooms/sec, and p50/p95 room-completion latency.

A STATUS poller runs *during* each burst (docs/OBSERVABILITY.md): live
introspection must work while the relay is under load, and the final
snapshot provides the server-side ``svc:relay-latency`` percentiles
reported in the second table.
"""

import asyncio
import time

from _tables import emit
from repro import metrics
from repro.core.scheme1 import scheme1_policy
from repro.service import (
    ClientConfig,
    RendezvousServer,
    ServerConfig,
    query_status,
    run_room,
)

SWEEP = (5, 10, 20)
ROOM_SIZE = 2


def _percentile(sorted_values, fraction):
    if not sorted_values:
        return 0.0
    index = min(len(sorted_values) - 1,
                max(0, round(fraction * (len(sorted_values) - 1))))
    return sorted_values[index]


async def _one_room(server, members, policy, label, recorder):
    with metrics.using(recorder):
        config = ClientConfig(port=server.port, room=label, deadline=120.0)
        started = time.perf_counter()
        outcomes = await run_room(members, config, policy)
        return outcomes, time.perf_counter() - started


async def _poll_status(port, live):
    """Hammer the live-introspection endpoint while rooms run."""
    while True:
        try:
            status = await query_status("127.0.0.1", port, timeout=10.0)
        except (ConnectionError, OSError, asyncio.TimeoutError):
            await asyncio.sleep(0.02)
            continue
        live["polls"] += 1
        live["peak_active"] = max(live["peak_active"],
                                  status["rooms"]["active"])
        await asyncio.sleep(0.02)


async def _burst(members, policy, n_rooms):
    """Run ``n_rooms`` rooms concurrently under a live STATUS poller;
    return (wall, latencies, live-introspection stats, final status)."""
    server_rec = metrics.Recorder()   # server-side svc:* books, per level
    live = {"polls": 0, "peak_active": 0}
    with metrics.using(server_rec):
        async with RendezvousServer(
                ServerConfig(handshake_timeout=120.0)) as server:
            recorders = [metrics.Recorder() for _ in range(n_rooms)]
            poller = asyncio.ensure_future(_poll_status(server.port, live))
            started = time.perf_counter()
            results = await asyncio.gather(*[
                _one_room(server, members, policy, f"bench-{i}", recorders[i])
                for i in range(n_rooms)
            ])
            wall = time.perf_counter() - started
            final_status = await query_status("127.0.0.1", server.port,
                                              timeout=10.0)
            poller.cancel()
    completed = server.room_outcomes()
    assert len(completed) == n_rooms
    assert all(v == "completed" for v in completed.values())
    # Live introspection worked during the burst and saw the load.
    assert live["polls"] > 0
    assert final_status["counters"]["svc:rooms-completed"] == n_rooms
    latencies = []
    for (outcomes, latency), recorder in zip(results, recorders):
        assert all(o.success for o in outcomes)
        latencies.append(latency)
        # Per-room Recorder isolation: under full concurrency every room
        # still shows exactly the protocol's per-party profile — any
        # cross-room bleed would inflate these counts.
        snap = recorder.snapshot()
        for i in range(ROOM_SIZE):
            counters = snap[f"hs:{i}"]
            assert counters.messages_sent == 4
            assert counters.messages_received == 4 * (ROOM_SIZE - 1)
    return wall, sorted(latencies), live, final_status


def test_service_throughput(benchmark, bench_scheme1):
    members = bench_scheme1.members[:ROOM_SIZE]
    policy = scheme1_policy()
    results = {}

    def run():
        for n_rooms in SWEEP:
            results[n_rooms] = asyncio.run(
                asyncio.wait_for(_burst(members, policy, n_rooms), 300))

    benchmark.pedantic(run, rounds=1, iterations=1)

    rows = []
    obs_rows = []
    for n_rooms in SWEEP:
        wall, latencies, live, status = results[n_rooms]
        rows.append((
            n_rooms, ROOM_SIZE, f"{wall:.3f}",
            f"{n_rooms / wall:.1f}",
            f"{_percentile(latencies, 0.50):.3f}",
            f"{_percentile(latencies, 0.95):.3f}",
        ))
        relay = status["histograms"].get("svc:relay-latency",
                                         {"count": 0, "p50": 0.0, "p99": 0.0})
        obs_rows.append((
            n_rooms, live["polls"], live["peak_active"],
            relay["count"],
            f"{relay['p50'] * 1e3:.3f}", f"{relay['p99'] * 1e3:.3f}",
        ))
    assert max(SWEEP) >= 20      # the acceptance bar: 20 concurrent rooms
    emit(
        "service_throughput",
        "Service: concurrent rooms over loopback TCP (per-room metrics isolated)",
        ("rooms", "m", "wall(s)", "rooms/s", "p50(s)", "p95(s)"),
        rows,
    )
    emit(
        "service_introspection",
        "Service: live STATUS introspection during the bursts",
        ("rooms", "polls", "peak-active", "relayed",
         "relay-p50(ms)", "relay-p99(ms)"),
        obs_rows,
    )

