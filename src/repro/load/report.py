"""SLO report: fold an open-loop run into the numbers a capacity claim
needs.

The report combines three measurement planes:

* **client-side** — per-room :class:`~repro.load.generator.RoomResult`
  timestamps and the driver recorder's ``load:*`` counters and
  ``load:admission-latency`` / ``load:e2e-latency`` histograms;
* **relay-side** — the aggregated STATUS snapshot of the cluster (or
  single server), carrying the merged ``svc:relay-latency`` percentiles
  and the per-reason BUSY-shed counters (``svc:busy:at-capacity``,
  ``svc:busy:draining``, ``svc-cluster:busy:no-live-shards``);
* **model** — the symbolic prediction for the run's completed-room mix,
  validated room-by-room, plus the inverted capacity estimate.

Everything in the returned document is JSON-able; ``format_report``
renders the human summary the CLI prints.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence

from repro import metrics
from repro.load.generator import LoadConfig, RoomResult
from repro.load.model import BYTES_TOLERANCE, HandshakeModel, capacity_report
from repro.obs.telemetry import SHED_COUNTERS

#: Histograms the report lifts from the driver's recorder.
_DRIVER_HISTOGRAMS = ("load:admission-latency", "load:e2e-latency")


def build_report(config: LoadConfig, results: Sequence[RoomResult],
                 *, status: Optional[Mapping[str, object]] = None,
                 recorder: Optional[metrics.Recorder] = None,
                 shards: int = 1,
                 max_rooms_per_shard: Optional[int] = None,
                 cores: int = 1,
                 timeline: Optional[Mapping[str, object]] = None,
                 ) -> Dict[str, object]:
    """Assemble the SLO report document for one finished run.

    ``timeline`` (optional) is a
    :meth:`repro.obs.telemetry.TimeSeries.timeline_doc` built from STATUS
    samples taken *during* the run — per-interval rooms/s, sheds/s,
    retry rate and relay percentiles, answering where inside the run the
    tail latency went rather than only what it averaged."""
    recorder = recorder if recorder is not None else \
        metrics.current_recorder()
    totals = recorder.total()
    hists = recorder.histograms()

    completed = [r for r in results if r.outcome == "completed"]
    retryable = [r for r in results if r.outcome == "retryable"]
    failed = [r for r in results if r.outcome == "failed"]
    span_s = max((r.completed_s for r in completed if r.completed_s),
                 default=0.0)
    throughput = (len(completed) / span_s) if span_s > 0 else 0.0

    rooms_by_m: Dict[int, int] = {}
    for result in completed:
        rooms_by_m[result.m] = rooms_by_m.get(result.m, 0) + 1

    model = HandshakeModel(config.scheme)
    predicted = model.predict(rooms_by_m, shards=shards)
    measured = _measured_totals(completed)
    mismatches: List[str] = [line for r in results for line in r.mismatches]

    busy: Dict[str, int] = {}
    relay_latency = None
    if status is not None:
        counters = status.get("counters") or {}
        for name in SHED_COUNTERS:
            if counters.get(name):
                busy[name] = counters[name]
        relay_latency = (status.get("histograms") or {}).get(
            "svc:relay-latency")

    mean_lifetime = None
    e2e = hists.get("load:e2e-latency")
    if e2e is not None and e2e.total:
        mean_lifetime = e2e.sum / e2e.total
    capacity = capacity_report(
        scheme=config.scheme, mean_m=config.mix.mean_m(), shards=shards,
        max_rooms_per_shard=max_rooms_per_shard,
        mean_room_lifetime_s=mean_lifetime,
        measured_modexp=measured.get("modexp", 0),
        measured_busy_s=span_s, cores=cores)

    extra = totals.extra
    doc: Dict[str, object] = {
        "offered": {
            "process": config.process,
            "rate_rooms_per_s": config.rate,
            "duration_s": config.duration,
            "mix": config.mix.describe(),
            "scheme": config.scheme,
            "seed": config.seed,
            "arrivals": extra.get("load:arrivals", 0),
            "late_arrivals": extra.get("load:late-arrivals", 0),
        },
        "achieved": {
            "completed": len(completed),
            "retryable": len(retryable),
            "failed": len(failed),
            "throughput_rooms_per_s": round(throughput, 4),
            "span_s": round(span_s, 4),
            "rooms_by_m": {str(m): n
                           for m, n in sorted(rooms_by_m.items())},
        },
        "slo": {
            name: hists[name].summary()
            for name in _DRIVER_HISTOGRAMS if name in hists
        },
        "relay": {
            "relay_latency": relay_latency,
            "busy": busy,
            "shed_total": sum(busy.values()),
        },
        "retries": {
            name.removeprefix("svc-client:"): value
            for name, value in sorted(extra.items())
            if name.startswith("svc-client:") and value
        },
        "model": {
            "expressions_per_party": model.expressions(),
            "predicted_totals": predicted,
            "measured_totals": measured,
            "rooms_validated": len(completed),
            "mismatches": mismatches,
            "counts_exact": not mismatches,
            "bytes_tolerance": BYTES_TOLERANCE,
        },
        "capacity": capacity,
        "rooms": [r.as_dict() for r in results],
    }
    if timeline is not None:
        doc["timeline"] = dict(timeline)
    return doc


def _measured_totals(completed: Sequence[RoomResult]) -> Dict[str, int]:
    """Sum the per-party ``hs:<i>`` books of every completed room — the
    measured counterpart of the model's aggregate prediction."""
    totals = {"modexp": 0, "messages_sent": 0, "messages_received": 0,
              "bytes_sent": 0, "bytes_received": 0}
    for result in completed:
        for i in range(result.m):
            party = result.books.get(f"hs:{i}") or {}
            for name in totals:
                totals[name] += int(party.get(name, 0))
    return totals


def format_report(doc: Mapping[str, object]) -> str:
    """Human rendering of :func:`build_report` (the CLI output)."""
    offered = doc["offered"]
    achieved = doc["achieved"]
    model = doc["model"]
    relay = doc["relay"]
    capacity = doc["capacity"]
    lines = [
        "open-loop load report",
        "=====================",
        (f"offered : {offered['process']} @ "
         f"{offered['rate_rooms_per_s']:g} rooms/s for "
         f"{offered['duration_s']:g}s, mix {offered['mix']}, "
         f"scheme {offered['scheme']}, seed {offered['seed']}"),
        (f"arrivals: {offered['arrivals']} "
         f"({offered['late_arrivals']} late spawns)"),
        (f"achieved: {achieved['completed']} completed / "
         f"{achieved['retryable']} retryable / "
         f"{achieved['failed']} failed — "
         f"{achieved['throughput_rooms_per_s']:g} rooms/s sustained "
         f"over {achieved['span_s']:g}s"),
    ]
    for name, summary in (doc.get("slo") or {}).items():
        if summary["count"]:
            lines.append(
                f"{name}: p50={summary['p50']:.4g}s "
                f"p90={summary['p90']:.4g}s p99={summary['p99']:.4g}s "
                f"max={summary['max']:.4g}s (n={summary['count']}, "
                f"clamped={summary.get('clamped', 0)})")
    if relay.get("relay_latency"):
        s = relay["relay_latency"]
        lines.append(
            f"svc:relay-latency (merged): p50={s['p50']:.4g}s "
            f"p99={s['p99']:.4g}s max={s['max']:.4g}s (n={s['count']})")
    if relay.get("busy"):
        sheds = ", ".join(f"{k}={v}" for k, v in
                          sorted(relay["busy"].items()))
        lines.append(f"sheds   : {sheds}")
    retries = doc.get("retries") or {}
    if retries:
        lines.append("retries : " + ", ".join(
            f"{k}={v}" for k, v in sorted(retries.items())))
    verdict = "EXACT" if model["counts_exact"] else \
        f"{len(model['mismatches'])} MISMATCHES"
    lines.append(
        "model   : modexp/party = "
        f"{model['expressions_per_party']['modexp']} — counts {verdict} "
        f"over {model['rooms_validated']} completed rooms "
        f"(bytes ±{model['bytes_tolerance']:.0%})")
    if not model["counts_exact"]:
        for line in model["mismatches"][:10]:
            lines.append(f"  !! {line}")
    if "capacity_rooms_per_s" in capacity:
        bounds = []
        if "admission_bound_rooms_per_s" in capacity:
            bounds.append(
                f"admission {capacity['admission_bound_rooms_per_s']:g}")
        if "compute_bound_rooms_per_s" in capacity:
            bounds.append(
                f"compute {capacity['compute_bound_rooms_per_s']:g}")
        lines.append(
            f"capacity: ~{capacity['capacity_rooms_per_s']:g} rooms/s "
            f"({'; '.join(bounds)} bound)")
    lines.extend(_format_timeline(doc.get("timeline")))
    return "\n".join(lines)


#: Rendered timeline rows are capped — the JSON document keeps them all.
_TIMELINE_ROWS = 12


def _format_timeline(timeline: Optional[Mapping[str, object]]) -> List[str]:
    """The report's timeline section: one row per sampling interval."""
    if not timeline or not timeline.get("intervals"):
        return []
    intervals = list(timeline["intervals"])
    lines = [
        "timeline (sampled during the run)",
        "---------------------------------",
        (f"{'t(s)':>7}  {'rooms/s':>8}  {'sheds/s':>8}  {'retry/s':>8}  "
         f"{'relay p50':>10}  {'relay p99':>10}  {'active':>6}"),
    ]
    step = max(1, -(-len(intervals) // _TIMELINE_ROWS))   # ceil-div stride
    shown = intervals[::step]
    if intervals[-1] not in shown:
        shown.append(intervals[-1])
    for row in shown:
        p50 = (f"{row['relay_p50_s'] * 1e3:.2f}ms"
               if row.get("relay_p50_s") is not None else "-")
        p99 = (f"{row['relay_p99_s'] * 1e3:.2f}ms"
               if row.get("relay_p99_s") is not None else "-")
        lines.append(
            f"{row['t']:7.1f}  {row['rooms_per_s']:8.2f}  "
            f"{row['shed_per_s_total']:8.2f}  {row['retries_per_s']:8.2f}  "
            f"{p50:>10}  {p99:>10}  {row['active_rooms']:6d}")
    if len(shown) < len(intervals):
        lines.append(f"({len(intervals)} intervals sampled, "
                     f"showing every {step}th)")
    peak = timeline.get("peak_rooms_per_s")
    worst = timeline.get("worst_relay_p99_s")
    lines.append(
        f"peak    : {peak:g} rooms/s; worst relay p99 "
        + (f"{worst * 1e3:.2f}ms" if worst is not None else "n/a"))
    return lines


__all__ = ["build_report", "format_report"]
