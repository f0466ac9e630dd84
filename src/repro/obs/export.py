"""Span exporters: Chrome ``trace_event`` JSON, JSONL span logs, ASCII Gantt.

This module is the only writer of span output.  Every exporter takes
*sources*, ``[{"label", "epoch", "spans"}]``, one per process: ``spans``
are live :class:`~repro.obs.spans.Span` objects or their ``as_dict`` rows
(the form that crosses a process boundary), and ``epoch`` is the
recording :class:`~repro.metrics.Recorder`'s ``time.perf_counter()``
instant.  A single-process trace is one unlabelled source,
``[{"spans": spans}]``; by default an exporter reads the current
recorder's finished spans that way.

* **Time.** Every span's ``ts`` is seconds since its recorder's epoch.
  Epochs are ``CLOCK_MONOTONIC`` instants on Linux, shared by all
  processes on one machine, so all sources are re-based onto the
  earliest epoch and one room's client, router and shard spans line up
  on one axis.  A source without an epoch is not shifted.
* **Parents.** Span ids are per recorder, so parent links are resolved
  within a source only.
* **Lanes** (Perfetto "threads", Gantt row groups).  A labelled source is
  one lane: ``client``, ``router``, ``shard:<i>``.  In an unlabelled
  source a span takes the lane of its nearest ancestor (itself included)
  with a ``party`` attribute, ``hs:<party>``, or a ``token`` attribute,
  ``room:<token>``; a span with neither in its chain keeps its recording
  thread's lane.

A span's attributes, its counter book included (``modexp``,
``messages_sent``, …), and its ``trace_id`` become the Chrome event's
``args``; a JSONL row is the span's ``as_dict`` form with its ``lane``
and its re-based ``ts``, so :func:`load_spans_jsonl` reads a log back as
one labelled source per lane and re-renders it exactly.

The exporters only see what instrumentation put into span names/attrs —
the anonymity rule (room tokens and roster indices only, never member
identifiers or payload bytes) is enforced at the instrumentation sites
and proven by the redaction tests.
"""

from __future__ import annotations

import json
from typing import Dict, List, Mapping, NamedTuple, Optional, Sequence

from repro.obs.spans import finished_spans

_PID = 1

Sources = Sequence[Mapping[str, object]]


class _Row(NamedTuple):
    lane: str
    depth: int          # ancestors in the span's own lane
    ts: float           # seconds since the earliest source epoch
    dur: float
    record: Mapping[str, object]   # the span's ``as_dict`` form


def _lane_of(record: Mapping[str, object], label: object,
             by_id: Mapping[object, Mapping[str, object]]) -> str:
    if label:
        return str(label)
    cursor: Optional[Mapping[str, object]] = record
    hops = 0
    while cursor is not None and hops < 64:
        if "attr.party" in cursor:
            return f"hs:{cursor['attr.party']}"
        if "attr.token" in cursor:
            return f"room:{cursor['attr.token']}"
        cursor = by_id.get(cursor.get("parent_id"))
        hops += 1
    return str(record.get("tid", "?"))


def _rows(sources: Optional[Sources]) -> List[_Row]:
    """Every finished span of every source, re-based, laned and sorted
    by start time."""
    if sources is None:
        sources = [{"spans": finished_spans()}]
    epochs = [s.get("epoch") for s in sources
              if isinstance(s.get("epoch"), (int, float))]
    t0 = min(epochs) if epochs else 0.0
    rows: List[_Row] = []
    for source in sources:
        epoch = source.get("epoch")
        base = (epoch - t0) if isinstance(epoch, (int, float)) else 0.0
        records = [span if isinstance(span, dict) else span.as_dict()
                   for span in source.get("spans") or ()]
        by_id = {r.get("span_id"): r for r in records
                 if r.get("span_id") is not None}
        label = source.get("label")
        for record in records:
            if record.get("dur") is None:
                continue
            lane = _lane_of(record, label, by_id)
            depth, parent = 0, by_id.get(record.get("parent_id"))
            while (parent is not None and depth < 64
                   and _lane_of(parent, label, by_id) == lane):
                depth += 1
                parent = by_id.get(parent.get("parent_id"))
            rows.append(_Row(lane, depth, base + float(record["ts"]),
                             float(record["dur"]), record))
    rows.sort(key=lambda row: row.ts)
    return rows


def _arg(value: object) -> object:
    """Perfetto args must be JSON scalars; anything richer is flattened to
    a type tag rather than serialized (defence in depth for redaction —
    bytes or structured payloads can never leak through an exporter)."""
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return f"<{type(value).__name__}>"


def chrome_trace(sources: Optional[Sources] = None) -> Dict[str, object]:
    """Build one ``trace_event`` document from span sources (default: the
    current recorder's finished spans)."""
    lanes: Dict[str, int] = {}
    events: List[Dict[str, object]] = []
    for row in _rows(sources):
        args = {k[5:]: _arg(v) for k, v in sorted(row.record.items())
                if k.startswith("attr.")}
        if row.record.get("trace_id"):
            args["trace_id"] = _arg(row.record["trace_id"])
        events.append({
            "ph": "X",
            "name": str(row.record.get("name", "?")),
            "cat": "span",
            "ts": round(row.ts * 1e6, 3),
            "dur": round(row.dur * 1e6, 3),
            "pid": _PID,
            "tid": lanes.setdefault(row.lane, len(lanes) + 1),
            "args": args,
        })
    metadata = [{
        "ph": "M", "name": "process_name", "pid": _PID, "tid": 0,
        "args": {"name": "repro"},
    }]
    for label, tid in lanes.items():
        metadata.append({
            "ph": "M", "name": "thread_name", "pid": _PID, "tid": tid,
            "args": {"name": label},
        })
    return {"traceEvents": metadata + events, "displayTimeUnit": "ms"}


def export_chrome_trace(path: str,
                        sources: Optional[Sources] = None) -> None:
    with open(path, "w") as handle:
        json.dump(chrome_trace(sources), handle, indent=None,
                  separators=(",", ":"))
        handle.write("\n")


def spans_jsonl(sources: Optional[Sources] = None) -> str:
    """One JSON object per finished span, one per line (log-shippable):
    the span's ``as_dict`` form plus its ``lane`` and re-based ``ts``."""
    return "".join(
        json.dumps({**{k: _arg(v) for k, v in row.record.items()},
                    "lane": row.lane, "ts": row.ts}, sort_keys=True) + "\n"
        for row in _rows(sources))


def export_spans_jsonl(path: str,
                       sources: Optional[Sources] = None) -> None:
    with open(path, "w") as handle:
        handle.write(spans_jsonl(sources))


def load_spans_jsonl(path: str) -> List[Dict[str, object]]:
    """Read a span log back as sources: one labelled source per ``lane``
    (its rows' ``ts`` are already re-based) and one unlabelled source for
    rows without a lane.  Raises ``ValueError`` on an empty file or a
    malformed line, ``OSError`` when the file is missing — the CLI turns
    both into a one-line nonzero exit."""
    by_lane: Dict[Optional[str], List[dict]] = {}
    with open(path) as handle:
        for lineno, line in enumerate(handle, 1):
            line = line.strip()
            if not line:
                continue
            try:
                row = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"line {lineno}: not JSON ({exc})") from exc
            if not (isinstance(row, dict) and "name" in row
                    and isinstance(row.get("ts"), (int, float))
                    and isinstance(row.get("dur"), (int, float, type(None)))
                    and isinstance(row.get("lane"), (str, type(None)))):
                raise ValueError(f"line {lineno}: not a span record")
            by_lane.setdefault(row.get("lane"), []).append(row)
    if not by_lane:
        raise ValueError("no spans in file")
    return [{"label": lane, "spans": rows} for lane, rows in by_lane.items()]


# ---------------------------------------------------------------------------
# ASCII Gantt (the ``python -m repro trace`` renderer).
# ---------------------------------------------------------------------------


def render_gantt(sources: Optional[Sources] = None, *, width: int = 60,
                 title: str = "span timeline") -> str:
    """Render span sources as an aligned per-lane Gantt table.

    Rows are grouped by lane, ordered by start time and indented by their
    depth within the lane; each shows its trace id's first 8 hex digits,
    and the bar column shares one time axis."""
    rows = _rows(sources)
    if not rows:
        return f"{title}\n(no spans recorded — enable tracing first)"
    start = rows[0].ts
    extent = max(max(r.ts + r.dur for r in rows) - start, 1e-9)
    rows.sort(key=lambda r: (r.lane, r.ts, -r.dur))
    names = ["  " * r.depth + str(r.record.get("name", "?")) for r in rows]
    lane_w = max(len("lane"), *(len(r.lane) for r in rows))
    name_w = max(len("span"), *(len(n) for n in names))
    lines = [title, "=" * len(title),
             f"{'lane'.ljust(lane_w)}  {'span'.ljust(name_w)}  trace     "
             f"{'start(ms)':>9}  {'dur(ms)':>9}  "
             f"|0 {'-' * max(0, width - 14)} {extent * 1e3:.1f}ms|"]
    last_lane = None
    for row, name in zip(rows, names):
        left = int((row.ts - start) / extent * width)
        length = min(max(1, round(row.dur / extent * width)),
                     width - left) or 1
        bar = (" " * left + "#" * length).ljust(width)
        shown = row.lane if row.lane != last_lane else ""
        last_lane = row.lane
        trace = str(row.record.get("trace_id") or "-")[:8]
        lines.append(f"{shown.ljust(lane_w)}  {name.ljust(name_w)}  "
                     f"{trace:<8}  {(row.ts - start) * 1e3:9.3f}  "
                     f"{row.dur * 1e3:9.3f}  |{bar}|")
    return "\n".join(lines)
