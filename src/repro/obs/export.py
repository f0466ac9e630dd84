"""Span/trace exporters: Chrome ``trace_event`` JSON, JSONL, ASCII Gantt.

The Chrome format is the `trace_event` JSON object form — load the file
in Perfetto (https://ui.perfetto.dev, "Open trace file") or
``chrome://tracing``.  Every span becomes a complete ("ph": "X") event;
lanes (Perfetto "threads") group spans per participant: a span carrying a
``party`` attribute lands in lane ``hs:<party>``, room-lifecycle spans in
lane ``room:<token>``, everything else in its recording thread's lane.
A span's attributes, its counter book included (``modexp``,
``messages_sent``, …), become the event's ``args`` and, in JSONL, its
``attr.*`` fields.

The exporters only see what instrumentation put into span names/attrs —
the anonymity rule (room tokens and roster indices only, never member
identifiers or payload bytes) is enforced at the instrumentation sites
and proven by the redaction tests.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional, Sequence

from repro.obs.spans import Span, finished_spans

_PID = 1


def _lane(span: Span,
          by_id: Optional[Dict[int, Span]] = None) -> str:
    # Walk up the parent chain so un-attributed child spans (gsig:sign
    # inside a device callback, say) inherit their participant's lane.
    cursor: Optional[Span] = span
    hops = 0
    while cursor is not None and hops < 64:
        if "party" in cursor.attrs:
            return f"hs:{cursor.attrs['party']}"
        if "token" in cursor.attrs:
            return f"room:{cursor.attrs['token']}"
        cursor = (by_id.get(cursor.parent_id)
                  if by_id and cursor.parent_id is not None else None)
        hops += 1
    return span.tid


def chrome_trace(spans: Optional[Sequence[Span]] = None) -> Dict[str, object]:
    """Build a ``trace_event`` document from finished spans (default: the
    current recorder's)."""
    spans = finished_spans() if spans is None else list(spans)
    by_id = {s.span_id: s for s in spans}
    lanes: Dict[str, int] = {}

    def tid_for(label: str) -> int:
        if label not in lanes:
            lanes[label] = len(lanes) + 1
        return lanes[label]

    trace_events: List[Dict[str, object]] = []
    for span in sorted(spans, key=lambda s: s.ts):
        if span.dur is None:
            continue
        trace_events.append({
            "ph": "X",
            "name": span.name,
            "cat": "span",
            "ts": round(span.ts * 1e6, 3),
            "dur": round(span.dur * 1e6, 3),
            "pid": _PID,
            "tid": tid_for(_lane(span, by_id)),
            "args": {str(k): _arg(v) for k, v in sorted(span.attrs.items())},
        })
    metadata = [{
        "ph": "M", "name": "process_name", "pid": _PID, "tid": 0,
        "args": {"name": "repro"},
    }]
    for label, tid in sorted(lanes.items(), key=lambda kv: kv[1]):
        metadata.append({
            "ph": "M", "name": "thread_name", "pid": _PID, "tid": tid,
            "args": {"name": label},
        })
    return {"traceEvents": metadata + trace_events, "displayTimeUnit": "ms"}


def _arg(value: object) -> object:
    """Perfetto args must be JSON scalars; anything richer is flattened to
    a type tag rather than serialized (defence in depth for redaction —
    bytes or structured payloads can never leak through an exporter)."""
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return f"<{type(value).__name__}>"


def export_chrome_trace(path: str,
                        spans: Optional[Sequence[Span]] = None) -> None:
    with open(path, "w") as handle:
        json.dump(chrome_trace(spans), handle, indent=None,
                  separators=(",", ":"))
        handle.write("\n")


def spans_jsonl(spans: Optional[Sequence[Span]] = None) -> str:
    """One JSON object per finished span, one per line (log-shippable)."""
    spans = finished_spans() if spans is None else list(spans)
    return "".join(
        json.dumps({k: _arg(v) for k, v in s.as_dict().items()},
                   sort_keys=True) + "\n"
        for s in sorted(spans, key=lambda s: s.ts)
    )


def export_spans_jsonl(path: str,
                       spans: Optional[Sequence[Span]] = None) -> None:
    with open(path, "w") as handle:
        handle.write(spans_jsonl(spans))


# ---------------------------------------------------------------------------
# ASCII Gantt (the ``python -m repro trace`` renderer).
# ---------------------------------------------------------------------------


def render_gantt(spans: Optional[Sequence[Span]] = None, *,
                 width: int = 60, title: str = "handshake timeline") -> str:
    """Render finished spans as an aligned per-lane Gantt table.

    Rows are grouped by lane (participant / room), ordered by start time,
    and indented by parent depth; the bar column shares one time axis."""
    spans = finished_spans() if spans is None else [
        s for s in spans if s.dur is not None]
    if not spans:
        return f"{title}\n(no spans recorded — enable tracing first)"
    by_id = {s.span_id: s for s in spans}

    def depth(span: Span) -> int:
        d, cursor, hops = 0, span.parent_id, 0
        while cursor is not None and hops < 64:
            parent = by_id.get(cursor)
            if parent is None:
                break
            d, cursor, hops = d + 1, parent.parent_id, hops + 1
        return d

    t0 = min(s.ts for s in spans)
    t1 = max(s.ts_end for s in spans)
    extent = max(t1 - t0, 1e-9)
    ordered = sorted(spans,
                     key=lambda s: (_lane(s, by_id), s.ts, -(s.dur or 0)))
    rows = []
    for s in ordered:
        label = "  " * depth(s) + s.name
        left = int((s.ts - t0) / extent * width)
        length = max(1, round((s.dur or 0.0) / extent * width))
        length = min(length, width - left) or 1
        bar = " " * left + "#" * length
        rows.append((_lane(s, by_id), label, f"{(s.ts - t0) * 1e3:9.3f}",
                     f"{(s.dur or 0.0) * 1e3:9.3f}", bar.ljust(width)))
    lane_w = max(len(r[0]) for r in rows + [("lane",) * 5])
    label_w = max(len(r[1]) for r in rows + [("span",) * 5])
    header = (f"{'lane'.ljust(lane_w)}  {'span'.ljust(label_w)}  "
              f"{'start(ms)':>9}  {'dur(ms)':>9}  "
              f"|0 {'-' * max(0, width - 14)} {extent * 1e3:.1f}ms|")
    lines = [title, "=" * len(title), header]
    last_lane = None
    for lane, label, start, dur, bar in rows:
        shown = lane if lane != last_lane else ""
        last_lane = lane
        lines.append(f"{shown.ljust(lane_w)}  {label.ljust(label_w)}  "
                     f"{start}  {dur}  |{bar}|")
    return "\n".join(lines)
