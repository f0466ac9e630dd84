"""Open-loop load driver: arrival-clocked rooms against a live relay.

Closed-loop benches admit the next room only when the previous one
finishes, so the system never sees pressure.  This driver spawns rooms on
the *arrival process's* clock — if the relay (or this box's CPU) cannot
keep up, rooms pile up, admission control sheds, and the SLO report says
so.  That is the point: the open-loop numbers are the ones a capacity
claim can stand on.

Every room runs under its own :class:`repro.metrics.Recorder`, so its
per-party ``hs:<i>`` books are isolated and can be validated against the
symbolic model (:mod:`repro.load.model`) room by room.  The driver's own
recorder collects the run-level telemetry: the ``load:*`` counters and
the ``load:admission-latency`` / ``load:e2e-latency`` histograms
(docs/OBSERVABILITY.md).

Honesty guards, because an overloaded *generator* fakes good latencies:

* a room whose spawn lags its scheduled arrival by more than
  ``late_grace`` books ``load:late-arrivals`` — when that counter is a
  large fraction of arrivals the offered rate exceeded what this process
  could generate and the achieved rate (always reported) is the truth;
* admission/e2e latencies are measured from the *scheduled* arrival
  instant, not the (possibly late) spawn, so generator lag counts
  against the SLO rather than hiding inside it.
"""

from __future__ import annotations

import asyncio
import random
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro import metrics
from repro.core.handshake import HandshakePolicy
from repro.load.arrivals import ArrivalProcess, RoomMix, make_process
from repro.load.model import HandshakeModel
from repro.obs import logging as obslog
from repro.obs import spans as obs
from repro.service import framing
from repro.service.client import ClientConfig, join_room

_log = obslog.get_logger("repro.load.generator")


@dataclass
class LoadConfig:
    """One open-loop run."""

    host: str = "127.0.0.1"
    port: int = 0
    rate: float = 2.0               # mean arrivals (rooms) per second
    duration: float = 10.0          # arrival-generation window, seconds
    process: str = "poisson"        # "poisson" | "bursty"
    burst_factor: float = 4.0       # bursty: ON rate / mean rate
    on_fraction: float = 0.3        # bursty: fraction of time bursting
    cycle: float = 2.0              # bursty: mean ON+OFF period, seconds
    mix: RoomMix = field(default_factory=lambda: RoomMix.single(2))
    scheme: str = "1"
    seed: int = 2005
    deadline: float = 30.0          # per-party client deadline
    drain_grace: float = 10.0       # post-generation wait for stragglers
    late_grace: float = 0.05        # spawn lag that books load:late-arrivals
    max_frame: int = framing.DEFAULT_MAX_FRAME
    #: Validate each completed room's books against the symbolic model
    #: (set False only to bypass a *known* model gap while debugging).
    validate: bool = True


@dataclass
class RoomResult:
    """One room's outcome, timestamps relative to the run epoch."""

    room: str
    m: int
    arrival_s: float                  # scheduled arrival offset
    spawned_s: float                  # when the driver actually launched it
    admitted_s: Optional[float]       # all m members WELCOMEd (room filled)
    first_welcome_s: Optional[float]  # first member's index assignment
    completed_s: Optional[float]      # gather returned with all successes
    outcome: str                      # "completed" | "retryable" | "failed"
    successes: int
    retryable_failures: int
    nonretryable_failures: int
    books: Dict[str, Dict[str, object]]   # per-scope counter dicts
    counters: Dict[str, int]              # room-level svc-client:* totals
    mismatches: List[str] = field(default_factory=list)
    #: Trace context all this room's members sent in HELLO (tracing runs
    #: only) — the id that stitches client, router and shard spans into
    #: one trace in the merged Chrome trace.
    trace_id: Optional[str] = None
    #: This room's client-side finished spans (dict form) + their
    #: recorder epoch; stay off ``as_dict()`` — they are trace material,
    #: not SLO schema.
    spans: List[dict] = field(default_factory=list)
    span_epoch: Optional[float] = None

    @property
    def admission_latency_s(self) -> Optional[float]:
        if self.admitted_s is None:
            return None
        return self.admitted_s - self.arrival_s

    @property
    def e2e_latency_s(self) -> Optional[float]:
        if self.completed_s is None:
            return None
        return self.completed_s - self.arrival_s

    def as_dict(self) -> Dict[str, object]:
        """JSON-able schema of one room (load reports, gateway rooms)."""
        rnd = lambda v: None if v is None else round(v, 6)  # noqa: E731
        return {
            "room": self.room,
            "m": self.m,
            "arrival_s": rnd(self.arrival_s),
            "spawned_s": rnd(self.spawned_s),
            "first_welcome_s": rnd(self.first_welcome_s),
            "admitted_s": rnd(self.admitted_s),
            "completed_s": rnd(self.completed_s),
            "admission_latency_s": rnd(self.admission_latency_s),
            "e2e_latency_s": rnd(self.e2e_latency_s),
            "outcome": self.outcome,
            "successes": self.successes,
            "retryable_failures": self.retryable_failures,
            "nonretryable_failures": self.nonretryable_failures,
            "mismatches": list(self.mismatches),
            "trace_id": self.trace_id,
        }


def _books_snapshot(recorder: metrics.Recorder) -> Dict[str, Dict[str, object]]:
    return {name: counters.as_dict()
            for name, counters in recorder.snapshot().items()}


async def run_timed_room(members: Sequence[object], config: ClientConfig,
                         policy: Optional[HandshakePolicy] = None,
                         rngs: Optional[Sequence[random.Random]] = None,
                         *, epoch: Optional[float] = None,
                         arrival_s: Optional[float] = None,
                         model: Optional[HandshakeModel] = None,
                         ) -> RoomResult:
    """Drive one full room and stamp its lifecycle timestamps.

    Like :func:`repro.service.client.run_room` (members join in roster
    order, outcomes aligned with ``members``) but additionally records,
    relative to ``epoch`` (default: now): first WELCOME, room filled, and
    completion instants — the schema both the open-loop driver and the
    HTTP gateway report, so their runs are directly comparable.  Runs
    under a fresh recorder; the room's full books ride along in the
    result (and are validated against ``model`` when given).  Its
    ``svc-client:*`` retry counters therefore never reach the caller's
    recorder: read them from :attr:`RoomResult.counters`.
    """
    epoch = time.perf_counter() if epoch is None else epoch
    spawned_s = time.perf_counter() - epoch
    arrival_s = spawned_s if arrival_s is None else arrival_s
    if rngs is None:
        rngs = [random.Random(7000 + i) for i in range(len(members))]
    m = len(members)
    cfg = ClientConfig(**{**config.__dict__, "m": m})
    recorder = metrics.Recorder()
    # Tracing is inherited from the caller (the load driver, the
    # gateway): one trace id per *room*, minted here — not per member —
    # so all m members send the same context and the server-side room
    # joins it.
    recorder.tracing = metrics.current_recorder().tracing
    trace_id: Optional[str] = None
    if recorder.tracing:
        trace_id = obs.valid_trace(cfg.trace) or obs.mint_trace_id()
        cfg = ClientConfig(**{**cfg.__dict__, "trace": trace_id})
    welcome_times: List[float] = []

    async def _one(index: int) -> object:
        joined = asyncio.Event()
        task = asyncio.ensure_future(
            join_room(members[index], cfg, policy, rngs[index],
                      joined=joined))
        waiter = asyncio.ensure_future(joined.wait())
        await asyncio.wait([waiter, task],
                           return_when=asyncio.FIRST_COMPLETED)
        waiter.cancel()
        if joined.is_set():
            welcome_times.append(time.perf_counter() - epoch)
        return task

    with metrics.using(recorder):
        tasks = [await _one(i) for i in range(m)]
        outcomes = list(await asyncio.gather(*tasks))
    completed_s = time.perf_counter() - epoch

    successes = sum(o.success for o in outcomes)
    retryable = sum((not o.success) and o.retryable for o in outcomes)
    casualties = sum((not o.success) and (not o.retryable)
                     for o in outcomes)
    if successes == m:
        outcome = "completed"
    elif casualties == 0:
        outcome = "retryable"
    else:
        outcome = "failed"
    books = _books_snapshot(recorder)
    counters = {name: value
                for name, value in recorder.total().extra.items()
                if name.startswith("svc-client:")}
    mismatches: List[str] = []
    if model is not None and outcome == "completed":
        mismatches = model.validate_room(m, books, label=cfg.room)
    return RoomResult(
        room=cfg.room, m=m,
        arrival_s=arrival_s, spawned_s=spawned_s,
        first_welcome_s=min(welcome_times) if welcome_times else None,
        admitted_s=(max(welcome_times)
                    if len(welcome_times) == m else None),
        completed_s=completed_s if outcome == "completed" else None,
        outcome=outcome, successes=successes,
        retryable_failures=retryable, nonretryable_failures=casualties,
        books=books, counters=counters, mismatches=mismatches,
        trace_id=trace_id,
        spans=[span.as_dict() for span in recorder.drain_spans()],
        span_epoch=recorder.epoch if recorder.tracing else None)


async def run_open_loop(config: LoadConfig, members: Sequence[object],
                        policy: Optional[HandshakePolicy] = None,
                        *, process: Optional[ArrivalProcess] = None,
                        ) -> List[RoomResult]:
    """The open-loop driver: spawn rooms on the arrival clock, never
    waiting for completions; return every room's :class:`RoomResult`.

    ``members`` must hold at least ``config.mix.max_m`` same-group
    members; each room uses the first ``m`` of them (concurrent reuse of
    member credentials across rooms is safe — handshake state lives in
    the per-room devices).  Run-level ``load:*`` telemetry lands in the
    *caller's* recorder.
    """
    mix = config.mix
    if len(members) < mix.max_m:
        raise ValueError(
            f"need {mix.max_m} members for the largest room in the mix, "
            f"got {len(members)}")
    rng = random.Random(config.seed)
    if process is None:
        process = make_process(config.process, config.rate, rng,
                               burst_factor=config.burst_factor,
                               on_fraction=config.on_fraction,
                               cycle=config.cycle)
    model = HandshakeModel(config.scheme) if config.validate else None
    client = ClientConfig(host=config.host, port=config.port,
                          deadline=config.deadline,
                          max_frame=config.max_frame)

    loop = asyncio.get_running_loop()
    epoch = time.perf_counter()
    loop_epoch = loop.time()
    tasks: List[asyncio.Task] = []
    arrivals = 0
    for arrival_s in process.times(config.duration):
        lag = (loop.time() - loop_epoch) - arrival_s
        if lag < 0:
            await asyncio.sleep(-lag)
        elif lag > config.late_grace:
            # The driver itself fell behind the offered schedule: the
            # achieved rate, not config.rate, is what this run offered.
            metrics.bump("load:late-arrivals")
        m = mix.sample(rng)
        room = f"load-{config.seed}-{arrivals:06d}"
        room_cfg = ClientConfig(**{**client.__dict__, "room": room})
        room_rngs = [random.Random(rng.getrandbits(48)) for _ in range(m)]
        metrics.bump("load:arrivals")
        metrics.bump(f"load:arrivals:m={m}")
        tasks.append(asyncio.ensure_future(run_timed_room(
            members[:m], room_cfg, policy, room_rngs, epoch=epoch,
            arrival_s=arrival_s, model=model)))
        arrivals += 1
    obslog.log_event(_log, "arrivals-done", arrivals=arrivals,
                     duration_s=config.duration)

    # Open-loop ends here; what remains is bounded draining.  Every room
    # task self-terminates (the client deadline is the backstop), so the
    # grace window only covers rooms still legitimately in flight.
    grace = config.deadline + config.drain_grace
    done, pending = await asyncio.wait(tasks, timeout=grace) \
        if tasks else (set(), set())
    for task in pending:                  # deadline machinery failed us
        metrics.bump("load:drain-timeouts")
        task.cancel()
    if pending:
        await asyncio.gather(*pending, return_exceptions=True)

    results: List[RoomResult] = []
    for task in tasks:
        if task.cancelled():
            continue
        exc = task.exception()
        if exc is not None:
            raise exc
        result = task.result()
        results.append(result)
        metrics.bump(f"load:{result.outcome}")
        if result.admission_latency_s is not None:
            metrics.observe("load:admission-latency",
                            result.admission_latency_s)
        if result.e2e_latency_s is not None:
            metrics.observe("load:e2e-latency", result.e2e_latency_s)
        if result.mismatches:
            metrics.bump("load:model-mismatches", len(result.mismatches))
        for name, value in result.counters.items():
            # Room-level client retry/shed telemetry, folded up so the
            # report can state run-wide retry rates.
            metrics.bump(name, value)
    return results


__all__ = ["LoadConfig", "RoomResult", "run_timed_room", "run_open_loop"]
