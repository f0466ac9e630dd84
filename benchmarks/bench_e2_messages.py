"""E2 — per-party message counts vs m (Sections 8.1 / 8.2).

Paper claim: "the communication complexity is O(m) per-user in number of
messages".  With the default BD-based DGKA, every participant sends a
constant 4 broadcasts (2 DGKA rounds + tag + (theta, delta)) and receives
4*(m-1) peer messages — O(m) per user, O(m^2) total deliveries on a
point-to-point fabric (a single physical broadcast medium reduces the
latter back to O(m), the paper's wireless motivation).
"""

import pytest

from _tables import emit
from repro import metrics
from repro.core.handshake import run_handshake
from repro.core.scheme1 import scheme1_policy
from repro.core.scheme2 import scheme2_policy

SWEEP = (2, 3, 4, 6, 8)


def _message_profile(world, policy, m: int):
    metrics.reset()
    run_handshake(world.members[:m], policy, world.rng)
    # Read through the exporter view rather than poking Counters fields.
    sent = metrics.value("hs:0", "messages_sent")
    received = metrics.value("hs:0", "messages_received")
    return sent, received


def test_e2_messages_linear_in_m(benchmark, bench_scheme1, bench_scheme2):
    results = {}

    def run():
        for name, world, policy in (
            ("scheme1", bench_scheme1, scheme1_policy()),
            ("scheme2", bench_scheme2, scheme2_policy()),
        ):
            results[name] = {m: _message_profile(world, policy, m) for m in SWEEP}

    benchmark.pedantic(run, rounds=1, iterations=1)

    rows = []
    for name, profile in results.items():
        for m in SWEEP:
            sent, received = profile[m]
            rows.append((name, m, sent, received, sent + received))
            assert sent == 4  # constant broadcasts per party
            assert received == 4 * (m - 1)  # O(m) receipts
    emit(
        "e2_messages",
        "E2: per-party messages per handshake (paper: O(m) per user)",
        ("scheme", "m", "sent(party 0)", "received(party 0)", "total(party 0)"),
        rows,
    )
