"""Cluster-wide telemetry: time series, dashboards, Prometheus export.

Everything here is built on STATUS snapshots (docs/OBSERVABILITY.md);
span traces, merged across processes or not, are written by
:mod:`repro.obs.export`, the one span exporter.

* **time series** — :class:`TimeSeries` is a ring buffer of aggregated
  STATUS snapshots; :meth:`TimeSeries.rates` derives per-interval deltas
  (rooms/s, sheds/s per reason, retry rate, interval-exact relay
  p50/p99 from bucket-count differences).  :class:`StatusSampler` polls
  a running relay on an interval and can write one Prometheus
  text-exposition file per sample.
* **dashboards** — :func:`render_top` is the ``python -m repro top``
  frame.

STATUS carries aggregates only — never member identifiers, payload
bytes, or key material (the redaction leak-scan tests cover Prometheus
output too).
"""

from __future__ import annotations

import os
import time
from collections import deque
from typing import Deque, Dict, List, Mapping, Optional

from repro import metrics
#: The one span exporter, under the name ``benchmarks/perf/tracer.py``
#: imports.
from repro.obs.export import export_chrome_trace as export_merged_trace

#: Per-reason shed counters a time series tracks (superset of the load
#: report's; unseen names simply stay at rate 0).
SHED_COUNTERS = (
    "svc:busy:at-capacity",
    "svc:busy:draining",
    "svc-cluster:busy:draining",
    "svc-cluster:busy:no-live-shards",
)

#: Driver-side retry counters folded into the retry rate when the sampler
#: is given client books (the relay cannot see client retries).
RETRY_COUNTERS = (
    "svc-client:retries",
    "svc-client:busy-retries",
    "svc-client:rejoin-retries",
)

_RELAY_HISTOGRAM = "svc:relay-latency"


# ---------------------------------------------------------------------------
# Time series over aggregated STATUS.
# ---------------------------------------------------------------------------


def _counter(status: Mapping[str, object], name: str) -> int:
    counters = status.get("counters") or {}
    return int(counters.get(name, 0))


def _completed(status: Mapping[str, object]) -> int:
    outcomes = status.get("outcomes") or {}
    return int(outcomes.get("completed", 0))


def _delta_histogram(older: Optional[Mapping[str, object]],
                     newer: Optional[Mapping[str, object]],
                     ) -> Optional[metrics.Histogram]:
    """The distribution observed *between* two summaries of one cumulative
    histogram: bucket-count differences (exact — summaries carry raw
    buckets).  Interval extrema are unknowable from cumulative summaries,
    so the newer snapshot's extrema bound the interpolation — honest in
    the same way the overflow bucket is: percentiles never leave what was
    actually observed."""
    if not newer or not newer.get("buckets"):
        return None
    bounds = [b["le"] for b in newer["buckets"] if b["le"] is not None]
    if not bounds:
        return None
    hist = metrics.Histogram(_RELAY_HISTOGRAM, bounds)
    old_counts = [b["count"] for b in (older or {}).get("buckets") or []]
    if older and [b["le"] for b in older.get("buckets", [])
                  if b["le"] is not None] != bounds:
        old_counts = []            # bounds changed mid-run: treat as fresh
    for i, bucket in enumerate(newer["buckets"]):
        prev = old_counts[i] if i < len(old_counts) else 0
        hist.counts[i] = max(0, int(bucket["count"]) - int(prev))
    hist.total = sum(hist.counts)
    if hist.total == 0:
        return None
    hist.sum = float(newer.get("sum") or 0.0) - float(
        (older or {}).get("sum") or 0.0)
    hist.clamped = max(0, int(newer.get("clamped") or 0)
                       - int((older or {}).get("clamped") or 0))
    hist.min = newer.get("min")
    hist.max = newer.get("max")
    return hist


class TimeSeries:
    """Ring buffer of (timestamp, STATUS snapshot, optional client
    counters); derives per-interval rates between consecutive samples.

    Works against both a single server's STATUS document and a cluster
    router's merged one — the fields read (``rooms``, ``outcomes``,
    ``counters``, ``histograms``) are common to both shapes."""

    def __init__(self, capacity: int = 720) -> None:
        self.samples: Deque[dict] = deque(maxlen=capacity)

    def __len__(self) -> int:
        return len(self.samples)

    def add(self, status: Mapping[str, object], *,
            at: Optional[float] = None,
            client_counters: Optional[Mapping[str, int]] = None) -> dict:
        sample = {
            "t": time.monotonic() if at is None else at,
            "status": status,
            "client": dict(client_counters) if client_counters else {},
        }
        self.samples.append(sample)
        return sample

    @property
    def latest(self) -> Optional[dict]:
        return self.samples[-1] if self.samples else None

    def rates(self) -> List[dict]:
        """One row per interval between consecutive samples."""
        rows: List[dict] = []
        samples = list(self.samples)
        for older, newer in zip(samples, samples[1:]):
            dt = newer["t"] - older["t"]
            if dt <= 0:
                continue
            old_s, new_s = older["status"], newer["status"]
            sheds = {}
            for name in SHED_COUNTERS:
                delta = _counter(new_s, name) - _counter(old_s, name)
                if delta > 0:
                    sheds[name] = round(delta / dt, 4)
            retries = 0
            for name in RETRY_COUNTERS:
                retries += (int(newer["client"].get(name, 0))
                            - int(older["client"].get(name, 0)))
            relay = _delta_histogram(
                (old_s.get("histograms") or {}).get(_RELAY_HISTOGRAM),
                (new_s.get("histograms") or {}).get(_RELAY_HISTOGRAM))
            rooms = new_s.get("rooms") or {}
            rows.append({
                "t": round(newer["t"] - samples[0]["t"], 3),
                "dt": round(dt, 4),
                "rooms_per_s": round(
                    max(0, _completed(new_s) - _completed(old_s)) / dt, 4),
                "sheds_per_s": sheds,
                "shed_per_s_total": round(sum(sheds.values()), 4),
                "retries_per_s": round(max(0, retries) / dt, 4),
                "relay_p50_s": (round(relay.percentile(0.50), 6)
                                if relay else None),
                "relay_p99_s": (round(relay.percentile(0.99), 6)
                                if relay else None),
                "relay_n": relay.total if relay else 0,
                "active_rooms": int(rooms.get("active", 0)),
                "filling_rooms": int(rooms.get("filling", 0)),
                "connections": int(new_s.get("connections", 0)),
            })
        return rows

    def timeline_doc(self) -> Dict[str, object]:
        """The SLO report's timeline section: per-interval rates plus a
        peak summary."""
        rows = self.rates()
        peak_rooms = max((r["rooms_per_s"] for r in rows), default=0.0)
        peak_sheds = max((r["shed_per_s_total"] for r in rows), default=0.0)
        worst_p99 = max((r["relay_p99_s"] for r in rows
                         if r["relay_p99_s"] is not None), default=None)
        return {
            "samples": len(self.samples),
            "intervals": rows,
            "peak_rooms_per_s": peak_rooms,
            "peak_sheds_per_s": peak_sheds,
            "worst_relay_p99_s": worst_p99,
        }


# ---------------------------------------------------------------------------
# Prometheus text exposition.
# ---------------------------------------------------------------------------


def _prom_escape(value: str) -> str:
    return (value.replace("\\", "\\\\").replace('"', '\\"')
            .replace("\n", "\\n"))


def prometheus_exposition(status: Mapping[str, object], *,
                          timestamp: Optional[float] = None) -> str:
    """Render one STATUS snapshot (server or merged cluster) in the
    Prometheus text exposition format.

    Metric names (all documented in docs/OBSERVABILITY.md): gauges
    ``repro_rooms{state=...}``, ``repro_open_rooms``,
    ``repro_connections``, ``repro_up``; counters
    ``repro_outcomes_total{outcome=...}`` and
    ``repro_counter_total{name=...}`` (raw ``svc:*`` names as label
    values); histograms ``repro_latency_seconds{histogram=...}`` with
    cumulative ``_bucket`` lines per Prometheus convention.  Only
    aggregates appear — the anonymity rule holds for scrapes too."""
    lines: List[str] = []

    def emit(line: str) -> None:
        lines.append(line)

    emit("# HELP repro_up Relay answered the STATUS query.")
    emit("# TYPE repro_up gauge")
    emit("repro_up 1")
    rooms = status.get("rooms") or {}
    emit("# HELP repro_rooms Rooms by lifecycle state.")
    emit("# TYPE repro_rooms gauge")
    for state in ("filling", "active", "closed", "restoring"):
        emit(f'repro_rooms{{state="{state}"}} {int(rooms.get(state, 0))}')
    open_rooms = status.get("open_rooms")
    if open_rooms is None:
        open_rooms = (status.get("admission") or {}).get("open_rooms", 0)
    emit("# HELP repro_open_rooms Open (filling+active) rooms.")
    emit("# TYPE repro_open_rooms gauge")
    emit(f"repro_open_rooms {int(open_rooms or 0)}")
    emit("# HELP repro_connections Live client connections.")
    emit("# TYPE repro_connections gauge")
    emit(f"repro_connections {int(status.get('connections', 0))}")
    emit("# HELP repro_outcomes_total Closed rooms by outcome.")
    emit("# TYPE repro_outcomes_total counter")
    for outcome, count in sorted((status.get("outcomes") or {}).items()):
        emit(f'repro_outcomes_total{{outcome="{_prom_escape(str(outcome))}"}}'
             f' {int(count)}')
    emit("# HELP repro_counter_total Service counters (raw names).")
    emit("# TYPE repro_counter_total counter")
    for name, value in sorted((status.get("counters") or {}).items()):
        emit(f'repro_counter_total{{name="{_prom_escape(str(name))}"}}'
             f' {int(value)}')
    hists = status.get("histograms") or {}
    if hists:
        emit("# HELP repro_latency_seconds Relay-side distributions.")
        emit("# TYPE repro_latency_seconds histogram")
    for name in sorted(hists):
        summary = hists[name] or {}
        label = _prom_escape(str(name))
        cumulative = 0
        for bucket in summary.get("buckets") or []:
            cumulative += int(bucket.get("count", 0))
            le = ("+Inf" if bucket.get("le") is None
                  else format(bucket["le"], "g"))
            emit(f'repro_latency_seconds_bucket{{histogram="{label}",'
                 f'le="{le}"}} {cumulative}')
        emit(f'repro_latency_seconds_sum{{histogram="{label}"}} '
             f'{float(summary.get("sum") or 0.0):.9g}')
        emit(f'repro_latency_seconds_count{{histogram="{label}"}} '
             f'{int(summary.get("count") or 0)}')
    if timestamp is not None:
        emit(f"# repro_sample_unix_seconds {timestamp:.3f}")
    return "\n".join(lines) + "\n"


def write_prometheus_sample(directory: str, seq: int,
                            status: Mapping[str, object], *,
                            timestamp: Optional[float] = None) -> str:
    """Write one numbered ``.prom`` sample file; returns its path."""
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, f"repro-{seq:06d}.prom")
    with open(path, "w") as handle:
        handle.write(prometheus_exposition(status, timestamp=timestamp))
    return path


# ---------------------------------------------------------------------------
# Sampler + dashboard.
# ---------------------------------------------------------------------------


class StatusSampler:
    """Poll a relay's STATUS on an interval into a :class:`TimeSeries`.

    ``client_recorder`` (optional) is sampled at the same instants for
    the driver-side retry counters.  ``prom_dir`` (optional) gets one
    Prometheus text file per sample.  Run it as a task next to a load
    driver::

        sampler = StatusSampler(host, port, interval=0.5)
        task = asyncio.ensure_future(sampler.run())
        ... drive load ...
        await sampler.stop(task)
    """

    def __init__(self, host: str, port: int, *, interval: float = 1.0,
                 series: Optional[TimeSeries] = None,
                 client_recorder: Optional[metrics.Recorder] = None,
                 prom_dir: Optional[str] = None) -> None:
        self.host = host
        self.port = port
        self.interval = interval
        self.series = series if series is not None else TimeSeries()
        self.client_recorder = client_recorder
        self.prom_dir = prom_dir
        self.errors = 0
        self._seq = 0

    async def sample_once(self) -> Optional[dict]:
        import asyncio

        from repro.service.client import query_status
        try:
            status = await query_status(self.host, self.port,
                                        timeout=max(2.0, self.interval * 4))
        except (ConnectionError, OSError, asyncio.TimeoutError):
            self.errors += 1
            return None
        client = None
        if self.client_recorder is not None:
            extra = self.client_recorder.total().extra
            client = {name: extra.get(name, 0) for name in RETRY_COUNTERS}
        sample = self.series.add(status, client_counters=client)
        if self.prom_dir is not None:
            self._seq += 1
            write_prometheus_sample(self.prom_dir, self._seq, status,
                                    timestamp=time.time())
        return sample

    async def run(self) -> None:
        """Sample forever (cancel the task, or use :meth:`stop`)."""
        import asyncio
        try:
            while True:
                await self.sample_once()
                await asyncio.sleep(self.interval)
        except asyncio.CancelledError:
            pass

    async def stop(self, task) -> None:
        """Take one final sample (the run's end state), then cancel."""
        import asyncio
        task.cancel()
        try:
            await task
        except asyncio.CancelledError:
            pass
        await self.sample_once()


def render_top(series: TimeSeries, *, rows: int = 12,
               title: str = "repro top") -> str:
    """One ASCII dashboard frame over the sampled series (the
    ``python -m repro top`` renderer)."""
    latest = series.latest
    if latest is None:
        return f"{title}\n(no samples yet)"
    status = latest["status"]
    rooms = status.get("rooms") or {}
    cluster = status.get("cluster") or {}
    head = [title, "=" * len(title)]
    if cluster:
        states = cluster.get("states") or {}
        head.append(
            f"cluster: {cluster.get('shards', 0)} shards "
            f"({', '.join(f'{s}:{ids}' for s, ids in sorted(states.items()))})"
            f"  accepting={cluster.get('accepting')}")
    head.append(
        f"rooms: {rooms.get('filling', 0)} filling / "
        f"{rooms.get('active', 0)} active / {rooms.get('closed', 0)} closed"
        f"   connections={status.get('connections', 0)}"
        f"   samples={len(series)}")
    revocation = status.get("revocation") or {}
    if revocation.get("services"):
        head.append(
            f"revocation: epoch={revocation.get('epoch', 0)} "
            f"pending={revocation.get('pending', 0)} "
            f"sealed={revocation.get('epochs_sealed', 0)} "
            f"revoked={revocation.get('revoked', 0)}")
    rate_rows = series.rates()[-rows:]
    if not rate_rows:
        head.append("(one more sample needed for rates)")
        return "\n".join(head)
    header = (f"{'t(s)':>7}  {'rooms/s':>8}  {'sheds/s':>8}  "
              f"{'retry/s':>8}  {'relay p50':>10}  {'relay p99':>10}  "
              f"{'active':>6}")
    lines = head + [header, "-" * len(header)]
    for row in rate_rows:
        p50 = (f"{row['relay_p50_s'] * 1e3:.2f}ms"
               if row["relay_p50_s"] is not None else "-")
        p99 = (f"{row['relay_p99_s'] * 1e3:.2f}ms"
               if row["relay_p99_s"] is not None else "-")
        lines.append(
            f"{row['t']:7.1f}  {row['rooms_per_s']:8.2f}  "
            f"{row['shed_per_s_total']:8.2f}  {row['retries_per_s']:8.2f}  "
            f"{p50:>10}  {p99:>10}  {row['active_rooms']:6d}")
    sheds = rate_rows[-1]["sheds_per_s"]
    if sheds:
        lines.append("sheds: " + ", ".join(
            f"{name.split(':')[-1]}={rate:g}/s"
            for name, rate in sorted(sheds.items())))
    return "\n".join(lines)


__all__ = [
    "SHED_COUNTERS", "RETRY_COUNTERS", "export_merged_trace",
    "TimeSeries", "StatusSampler",
    "prometheus_exposition", "write_prometheus_sample",
    "render_top",
]
