"""The open-loop driver against a real in-process rendezvous server.

Same discipline as tests/service: no pytest-asyncio, every scenario is
wrapped in ``asyncio.run`` with an outer ``wait_for`` cap so a regression
is a loud timeout, never a hang.
"""

import asyncio
import random

import pytest

from repro import metrics
from repro.core.scheme1 import scheme1_policy
from repro.load import HandshakeModel, LoadConfig, RoomMix, run_open_loop
from repro.load.generator import run_timed_room
from repro.load.report import build_report, format_report
from repro.service import ClientConfig, RendezvousServer, ServerConfig

TEST_CAP = 60.0


def _run(coroutine):
    async def capped():
        return await asyncio.wait_for(coroutine, TEST_CAP)
    return asyncio.run(capped())


def _lineup(world, count):
    names = sorted(world.members)[:count]
    return world.lineup(*names)


class TestRunTimedRoom:
    def test_timestamps_and_model_validation(self, scheme1_world):
        members = _lineup(scheme1_world, 2)

        async def scenario():
            async with RendezvousServer(ServerConfig()) as server:
                cfg = ClientConfig(port=server.port, room="timed")
                return await run_timed_room(
                    members, cfg, scheme1_policy(),
                    model=HandshakeModel("1"))

        result = _run(scenario())
        assert result.outcome == "completed"
        assert result.successes == 2
        assert result.mismatches == []
        # Lifecycle ordering: arrival <= spawn <= first WELCOME <=
        # room filled <= completion.
        assert result.arrival_s <= result.spawned_s
        assert result.spawned_s <= result.first_welcome_s
        assert result.first_welcome_s <= result.admitted_s
        assert result.admitted_s <= result.completed_s
        assert result.admission_latency_s >= 0
        assert result.e2e_latency_s >= result.admission_latency_s
        doc = result.as_dict()
        for key in ("arrival_s", "spawned_s", "first_welcome_s",
                    "admitted_s", "completed_s", "admission_latency_s",
                    "e2e_latency_s", "outcome", "mismatches"):
            assert key in doc

    def test_room_books_do_not_leak_to_caller(self, scheme1_world):
        members = _lineup(scheme1_world, 2)
        recorder = metrics.Recorder()

        async def scenario():
            async with RendezvousServer(ServerConfig()) as server:
                cfg = ClientConfig(port=server.port, room="isolated")
                return await run_timed_room(members, cfg, scheme1_policy())

        with metrics.using(recorder):
            result = _run(scenario())
        assert "hs:0" in result.books
        # The per-party books live in the result, not the ambient scope.
        assert "hs:0" not in recorder.snapshot()


class TestOpenLoop:
    def test_sustained_run_completes_and_books_telemetry(
            self, scheme1_world):
        members = _lineup(scheme1_world, 3)
        config = LoadConfig(rate=4.0, duration=1.0,
                            mix=RoomMix.parse("2:0.8,3:0.2"), seed=21,
                            deadline=20.0, drain_grace=10.0)
        recorder = metrics.Recorder()

        async def scenario():
            async with RendezvousServer(ServerConfig()) as server:
                run_config = LoadConfig(
                    **{**config.__dict__, "port": server.port})
                with metrics.using(recorder):
                    return run_config, await run_open_loop(
                        run_config, members, scheme1_policy())

        run_config, results = _run(scenario())
        assert results, "seeded poisson at 4/s for 1s should arrive"
        assert all(r.outcome == "completed" for r in results)
        assert all(r.mismatches == [] for r in results)
        assert len({r.room for r in results}) == len(results)
        extra = recorder.total().extra
        assert extra["load:arrivals"] == len(results)
        assert extra["load:completed"] == len(results)
        sized = sum(value for name, value in extra.items()
                    if name.startswith("load:arrivals:m="))
        assert sized == len(results)
        hists = recorder.histograms()
        assert hists["load:e2e-latency"].total == len(results)
        assert hists["load:admission-latency"].total == len(results)

        doc = build_report(run_config, results, recorder=recorder)
        assert doc["achieved"]["completed"] == len(results)
        assert doc["model"]["counts_exact"]
        assert "open-loop load report" in format_report(doc)

    def test_overload_sheds_but_nothing_dies(self, scheme1_world):
        members = _lineup(scheme1_world, 2)
        config = LoadConfig(rate=12.0, duration=0.8,
                            mix=RoomMix.single(2), seed=22,
                            deadline=15.0, drain_grace=10.0)
        recorder = metrics.Recorder()

        async def scenario():
            # A one-room admission ceiling under 12 arrivals/s: the
            # server must shed with retryable BUSY, not collapse.
            with metrics.using(recorder):
                async with RendezvousServer(
                        ServerConfig(max_rooms=1)) as server:
                    run_config = LoadConfig(
                        **{**config.__dict__, "port": server.port})
                    return await run_open_loop(
                        run_config, members, scheme1_policy())

        results = _run(scenario())
        assert results
        assert all(r.outcome in ("completed", "retryable")
                   for r in results)
        assert all(r.mismatches == [] for r in results)
        extra = recorder.total().extra
        assert extra.get("svc:busy:at-capacity", 0) > 0
        assert extra.get("svc:busy-sheds", 0) >= \
            extra.get("svc:busy:at-capacity", 0)
        assert extra.get("load:drain-timeouts", 0) == 0

    def test_needs_enough_members_for_the_mix(self, scheme1_world):
        members = _lineup(scheme1_world, 2)
        config = LoadConfig(mix=RoomMix.single(4))
        with pytest.raises(ValueError):
            _run(run_open_loop(config, members, scheme1_policy()))
