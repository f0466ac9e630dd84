"""Observability overhead guard (CI satellite).

Tracing must be *observationally free*: enabling it cannot change what the
protocol computes (E1-style per-party modexp counts, message counts, the
session keys themselves) and may only cost a bounded amount of wall
clock.  A regression here means instrumentation leaked into protocol
logic."""

import random
import time

from repro import metrics
from repro.core.handshake import run_handshake
from repro.core.scheme1 import create_scheme1, scheme1_policy

M = 3
SEED = 424242


def _run_world(tracing: bool):
    """One fully seeded handshake under a fresh recorder; returns
    (per-party counts, session keys, elapsed wall time)."""
    rng = random.Random(SEED)
    framework = create_scheme1("overhead", rng=rng)
    members = [framework.admit_member(f"user-{i}", rng) for i in range(M)]
    rec = metrics.Recorder()
    rec.tracing = tracing
    with metrics.using(rec):
        started = time.perf_counter()
        outcomes = run_handshake(members, scheme1_policy(), rng)
        elapsed = time.perf_counter() - started
    assert all(o.success for o in outcomes)
    snap = rec.snapshot()
    counts = [
        (snap[f"hs:{i}"].modexp,
         snap[f"hs:{i}"].messages_sent,
         snap[f"hs:{i}"].messages_received)
        for i in range(M)
    ]
    keys = [o.session_key for o in outcomes]
    return counts, keys, elapsed


def test_tracing_does_not_change_the_protocol():
    counts_off, keys_off, t_off = _run_world(tracing=False)
    counts_on, keys_on, t_on = _run_world(tracing=True)
    # E1 invariant: identical per-party operation counts ...
    assert counts_on == counts_off
    # ... and byte-identical outputs (same seed, same keys).
    assert keys_on == keys_off
    # Wall-clock budget: generous enough for CI noise, tight enough to
    # catch accidental per-operation span allocation.
    assert t_on <= 3.0 * t_off + 1.0, (t_on, t_off)


def test_tracing_off_records_no_spans():
    rng = random.Random(SEED)
    framework = create_scheme1("overhead-quiet", rng=rng)
    members = [framework.admit_member(f"user-{i}", rng) for i in range(2)]
    rec = metrics.Recorder()
    with metrics.using(rec):
        run_handshake(members, scheme1_policy(), rng)
    assert rec.spans() == []


def test_tracing_on_produces_phase_spans_per_party():
    counts, _, _ = _run_world(tracing=True)  # sanity reuse
    rng = random.Random(SEED)
    framework = create_scheme1("overhead-spans", rng=rng)
    members = [framework.admit_member(f"user-{i}", rng) for i in range(M)]
    rec = metrics.Recorder()
    rec.tracing = True
    with metrics.using(rec):
        run_handshake(members, scheme1_policy(), rng)
    names = [s.name for s in rec.spans()]
    for phase in ("phase:I", "phase:II", "phase:III"):
        assert phase in names
    assert "handshake" in names
    assert names.count("gsig:sign") == M
    # hs:latency histogram observed exactly once for the run.
    assert rec.histograms()["hs:latency"].total == 1
