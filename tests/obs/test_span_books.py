"""Span books: every ``obs.span`` block carries the counts of its work.

Spans are the one event model.  While a context-manager span is open its
own counter book sits on the metrics scope stack, so the book holds
exactly the work done inside it — inline, or replayed from a
``ScanCache`` entry.  These properties check that the books of a party's
protocol-step spans add up to its ``hs:<i>`` scope on every in-process
transport, that a socket client's ``handshake`` span books what its
``hs:<i>`` scope does, and that a traced router retains a bounded number
of records however long it heartbeats.
"""

import asyncio
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro import accel, metrics
from repro.cluster import ClusterConfig, ClusterRouter
from repro.core.handshake import run_handshake
from repro.core.scheme1 import create_scheme1, scheme1_policy
from repro.core.scheme2 import create_scheme2, scheme2_policy
from repro.load import run_timed_room
from repro.net.runner import run_handshake_over_network
from repro.service import (ClientConfig, RendezvousServer, ServerConfig,
                           run_room)

TEST_CAP = 120.0

#: The spans a device opens around each unit of its protocol work.
STEP_SPANS = ("dgka:emit", "dgka:absorb", "tag:publish", "tag:verify",
              "phase3:publish", "phase3:scan", "phase3:conclude")

TRANSPORTS = {"engine": run_handshake,
              "simulator": run_handshake_over_network}


def _run(coroutine):
    async def capped():
        return await asyncio.wait_for(coroutine, TEST_CAP)
    return asyncio.run(capped())


@pytest.fixture(scope="module")
def rosters():
    """Four members of one group per scheme, with the scheme's policy."""
    out = {}
    for scheme, create, policy in (("1", create_scheme1, scheme1_policy),
                                   ("2", create_scheme2, scheme2_policy)):
        rng = random.Random(7100 + int(scheme))
        framework = create(f"books-{scheme}", rng=rng)
        members = [framework.admit_member(f"user-{i}", rng) for i in range(4)]
        out[scheme] = (members, policy())
    return out


def _book(counters, field):
    return counters.as_dict().get(field, 0)


@settings(max_examples=20, deadline=None)
@given(scheme=st.sampled_from(("1", "2")), m=st.sampled_from((2, 3, 4)),
       transport=st.sampled_from(sorted(TRANSPORTS)),
       accel_on=st.booleans(), seed=st.integers(0, 2 ** 16))
def test_step_span_books_sum_to_the_party_book(rosters, scheme, m,
                                                transport, accel_on, seed):
    members, policy = rosters[scheme]
    before = accel.is_enabled()
    accel.configure(enabled=accel_on)
    recorder = metrics.Recorder()
    recorder.tracing = True
    try:
        with metrics.using(recorder):
            outcomes = TRANSPORTS[transport](members[:m], policy,
                                             random.Random(seed))
    finally:
        accel.configure(enabled=before)
    assert all(o.success for o in outcomes)
    snap = recorder.snapshot()
    spans = recorder.spans()
    for i in range(m):
        steps = [s for s in spans
                 if s.name in STEP_SPANS and s.attrs.get("party") == i]
        assert {s.name for s in steps} == set(STEP_SPANS)
        for field in ("modexp", "messages_sent", "hashes", "inversions"):
            booked = sum(s.attrs.get(field, 0) for s in steps)
            assert booked == _book(snap[f"hs:{i}"], field), (i, field)
    # Manual spans carry no book.
    roots = [s for s in spans if s.name.startswith(("hs:", "phase:"))]
    assert roots and not any("modexp" in s.attrs for s in roots)


@pytest.mark.parametrize("scheme", ["1", "2"])
def test_socket_handshake_span_books_its_party(rosters, scheme):
    members, policy = rosters[scheme]
    members = members[:3]
    recorder = metrics.Recorder()
    recorder.tracing = True

    async def room():
        async with RendezvousServer(ServerConfig()) as server:
            cfg = ClientConfig(port=server.port, room="books")
            return await run_room(members, cfg, policy)

    with metrics.using(recorder):
        outcomes = _run(room())
    assert all(o.success for o in outcomes)
    snap = recorder.snapshot()
    handshakes = {s.attrs["party"]: s for s in recorder.spans()
                  if s.name == "handshake"}
    assert sorted(handshakes) == [0, 1, 2]
    for i, span in handshakes.items():
        for field in ("modexp", "messages_sent", "messages_received",
                      "bytes_sent", "bytes_received"):
            assert span.attrs.get(field, 0) == _book(snap[f"hs:{i}"], field)
        assert span.attrs["modexp"] > 0 and span.attrs["bytes_sent"] > 0


def test_traced_router_retains_a_bounded_record_count(rosters):
    """Heartbeats and relayed frames leave no record behind: after six
    rooms, two idle seconds of 0.05 s heartbeats change neither the
    router's spans nor the spans its shards shipped."""
    members, policy = rosters["1"]
    config = ClusterConfig(shards=2, heartbeat_interval=0.05, trace=True)
    recorder = metrics.Recorder()
    recorder.tracing = True

    def records(router):
        shipped = router.shipped_spans()
        return (len(recorder.spans()),
                sum(len(batch["spans"]) for batch in shipped.values()))

    async def scenario():
        async with ClusterRouter(config) as router:
            for i in range(6):
                cfg = ClientConfig(port=router.port, room=f"bounded-{i}")
                result = await run_timed_room(members[:2], cfg, policy)
                assert result.outcome == "completed"
            await asyncio.sleep(0.5)        # last span batches land
            before = records(router)
            await asyncio.sleep(2.0)
            return before, records(router)

    with metrics.using(recorder):
        before, after = _run(scenario())
    assert before[0] >= 6                   # one place span per room
    assert after == before
