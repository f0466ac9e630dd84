"""Accel sweep — baseline vs batched.

Two configurations of the same seeded handshake, m ∈ {2, 4, 8}:

* ``baseline`` — accel disabled: plain ``pow`` everywhere.
* ``batched``  — accel enabled: fixed-base tables plus one room-wide
  ScanCache (:mod:`repro.accel.batch`) deduplicating the Phase III
  decrypt/verify scan across parties.

The **counter-parity guard** is the heart of the benchmark and is always
asserted, on any machine: both configurations must produce
bit-identical session keys and transcripts and identical per-party E1
(modexp) / E2 (message) counts — acceleration that changes the books is
a bug, not a speedup.

The **batched verify scan** leg isolates the m=8 Phase III verification
matrix (every member checks every other member's signature) and times it
sequential vs batched.  Its ≥1.3× bar is asserted *unconditionally*:
the win is algebraic (8·7 verifications collapse to 8 distinct ones),
not a function of core count, and the verdict matrices must be
identical.

Artifacts: ``results/accel_sweep.txt`` (table) and ``BENCH_accel.json``
at the repo root (CI uploads it; see .github/workflows/ci.yml).  Both
are written before any guard or bar is asserted, so a failing run still
records the numbers it failed on.
"""

import json
import os
import random
import time

from _tables import emit
from repro import accel, metrics
from repro.accel import batch
from repro.core.handshake import run_handshake
from repro.core.scheme1 import scheme1_policy

SWEEP = (2, 4, 8)
SEED = 52000
REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
JSON_PATH = os.path.join(REPO_ROOT, "BENCH_accel.json")
SCAN_SPEEDUP_BAR = 1.3


def _seeded_rngs(m):
    return [random.Random(SEED + i) for i in range(m)]


def _run_once(members):
    rec = metrics.Recorder()
    with metrics.using(rec):
        started = time.perf_counter()
        outcomes = run_handshake(members, scheme1_policy(),
                                 rngs=_seeded_rngs(len(members)))
        wall = time.perf_counter() - started
    assert all(o.success for o in outcomes)
    return outcomes, rec.snapshot(), wall


def _fingerprint(outcomes, snapshot):
    """Everything the parity guard compares: protocol outputs plus the
    guarded per-party books (E1 modexps, E2 messages, hashes)."""
    books = []
    for i in range(len(outcomes)):
        c = snapshot[f"hs:{i}"]
        books.append((c.modexp, c.messages_sent, c.messages_received,
                      c.hashes))
    return (
        tuple(o.session_key for o in outcomes),
        tuple(tuple(o.transcript.entries) for o in outcomes),
        tuple(books),
    )


def _mode_run(members, mode):
    accel.configure(enabled=mode != "baseline")
    return _run_once(members)


def _scan_items(members):
    """One signed publication per member, as the Phase III scan sees it."""
    rng = random.Random(SEED + 700)
    items = []
    for i, member in enumerate(members):
        message = f"scan:{i}".encode()
        items.append((message, member.gsig_sign(message, rng)))
    return items


def _batched_scan_leg(members):
    """Time the m-party verify matrix sequential vs batched (one core).

    Both legs run with accel enabled so fixed-base tables are identical;
    the only difference is the room-scale ScanCache."""
    accel.configure(enabled=True)
    items = _scan_items(members)
    batch.verify_room(members, items)            # warm the tables

    started = time.perf_counter()
    sequential = batch.verify_room(members, items)
    wall_sequential = time.perf_counter() - started

    started = time.perf_counter()
    batched = batch.verify_room(members, items, cache=batch.ScanCache())
    wall_batched = time.perf_counter() - started

    assert batched == sequential, "batched scan changed a verdict"
    assert all(v is True for i, row in enumerate(sequential)
               for j, v in enumerate(row) if i != j)
    return wall_sequential, wall_batched


def test_accel_sweep(benchmark, bench_scheme1):
    modes = ("baseline", "batched")
    results = {}
    scan_walls = {}
    try:
        # Warm-up outside the timed region: fixed-base tables build on
        # first use, a one-time cost that would otherwise be billed to
        # the first batched room.
        accel.configure(enabled=True)
        _run_once(bench_scheme1.members[:2])

        def run():
            for m in SWEEP:
                members = bench_scheme1.members[:m]
                results[m] = {mode: _mode_run(members, mode)
                              for mode in modes}
            scan_walls["sequential"], scan_walls["batched"] = \
                _batched_scan_leg(bench_scheme1.members[:8])

        benchmark.pedantic(run, rounds=1, iterations=1)
    finally:
        accel.configure(enabled=False)

    # Counter-parity guard (always on): identical outputs and books.
    parity_failures = [
        f"m={m}: batched changed outputs or counters"
        for m in SWEEP
        if _fingerprint(*results[m]["batched"][:2])
        != _fingerprint(*results[m]["baseline"][:2])
    ]

    cpus = os.cpu_count() or 1
    walls = {m: {mode: results[m][mode][2] for mode in modes} for m in SWEEP}
    scan_speedup_m8 = scan_walls["sequential"] / scan_walls["batched"]

    rows = []
    for m in SWEEP:
        e1 = results[m]["batched"][1]["hs:0"].modexp
        rows.append((
            m, e1,
            f"{walls[m]['baseline']:.3f}",
            f"{walls[m]['batched']:.3f}",
            f"{walls[m]['baseline'] / walls[m]['batched']:.2f}x",
        ))
    parity = ("COUNTER PARITY FAILED" if parity_failures
              else "counters bit-identical across both modes")
    emit(
        "accel_sweep",
        f"Accel: baseline vs batched ({cpus} CPUs; {parity}; "
        f"m=8 scan {scan_speedup_m8:.2f}x batched)",
        ("m", "E1/party", "base(s)", "batch(s)", "batch-speedup"),
        rows,
    )

    doc = {
        "cpus": cpus,
        "sweep": [
            {
                "m": m,
                "wall_baseline_s": round(walls[m]["baseline"], 6),
                "wall_batched_s": round(walls[m]["batched"], 6),
                "modexp_per_party": results[m]["batched"][1]["hs:0"].modexp,
                "batch_scan_hits": results[m]["batched"][1]["total"].extra.get(
                    "accel:batch-scan-hit", 0),
                "fb_hits": results[m]["batched"][1]["total"].extra.get(
                    "accel:fb-hit", 0),
            }
            for m in SWEEP
        ],
        "counter_parity": "mismatch" if parity_failures else "ok",
        "scan_wall_sequential_m8_s": round(scan_walls["sequential"], 6),
        "scan_wall_batched_m8_s": round(scan_walls["batched"], 6),
        "speedup_batched_scan_m8": round(scan_speedup_m8, 4),
        "scan_speedup_bar": SCAN_SPEEDUP_BAR,
    }
    with open(JSON_PATH, "w") as handle:
        json.dump(doc, handle, indent=2, sort_keys=True)
        handle.write("\n")

    # The guard and the bar are asserted only after both artifacts are
    # written, so a failing run still leaves its numbers behind.
    assert not parity_failures, "; ".join(parity_failures)
    # The batched-scan bar holds on any machine: the saving is algebraic.
    assert scan_speedup_m8 >= SCAN_SPEEDUP_BAR, (
        f"batched m=8 verify scan only {scan_speedup_m8:.2f}x faster than "
        f"sequential (bar: {SCAN_SPEEDUP_BAR}x)")
