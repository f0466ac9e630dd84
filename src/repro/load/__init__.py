"""Open-loop load harness + symbolic capacity model (`repro.load`).

Every other bench in this repository drives the system *closed-loop*: a
fixed set of rooms, each waiting for the last.  Production means
*open-loop* sustained arrival traffic — rooms arrive on their own clock
whether or not the cluster has finished the previous ones.  This package
supplies both halves of the capacity-planning story:

* :mod:`repro.load.arrivals` — seeded, deterministic arrival processes
  (Poisson and bursty on-off MMPP) plus the room-size mix;
* :mod:`repro.load.generator` — the open-loop driver: spawns handshake
  rooms against a running relay (single server or `repro.cluster`) at a
  target arrival rate without waiting for completions, collecting
  per-room timestamps, outcomes and metric books;
* :mod:`repro.load.report` — the SLO report: admission / end-to-end
  latency histograms, BUSY-shed and retry rates, throughput, plus the
  relay-side percentiles pulled from the aggregated STATUS query;
* :mod:`repro.load.model` — the symbolic capacity model: closed-form
  modexp / message / wire-byte counts as functions of ``(m, rooms,
  shards, scheme)``, validated *exactly* against the measured books of
  every completed room, and inverted into a capacity estimate ("K shards
  saturate at X rooms/sec").

CLI: ``python -m repro load --rate 2 --duration 10 --mix 2:0.7,3:0.3
--shards 2``.  Tests: ``tests/load`` (a sustained and an overload run,
books model-exact).  Docs: ``docs/PERFORMANCE.md`` (capacity model),
``docs/OBSERVABILITY.md`` (the ``load:*`` counter family).
"""

from repro.load.arrivals import (
    ArrivalProcess,
    OnOffProcess,
    PoissonProcess,
    RoomMix,
    make_process,
)
from repro.load.generator import (
    LoadConfig,
    RoomResult,
    run_open_loop,
    run_timed_room,
)
from repro.load.model import HandshakeModel, capacity_report
from repro.load.report import build_report, format_report

__all__ = [
    "ArrivalProcess",
    "PoissonProcess",
    "OnOffProcess",
    "RoomMix",
    "make_process",
    "LoadConfig",
    "RoomResult",
    "run_open_loop",
    "run_timed_room",
    "HandshakeModel",
    "capacity_report",
    "build_report",
    "format_report",
]
