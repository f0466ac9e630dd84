"""``repro.obs`` — span tracing, exporters, and structured logging.

The observability subsystem layered on :mod:`repro.metrics` (which owns
storage: counters, histograms and finished spans all live in the current
:class:`~repro.metrics.Recorder`):

* :func:`span` / :func:`start_span` — nested timed regions, safe across
  threads and asyncio tasks (:mod:`repro.obs.spans`).  Spans are the one
  event model: a :func:`span` block also carries the counter book of the
  work done inside it (modexp, messages, bytes, hashes, …);
* :func:`chrome_trace` / :func:`spans_jsonl` / :func:`render_gantt` /
  :func:`load_spans_jsonl` — the one span exporter
  (:mod:`repro.obs.export`): Perfetto-loadable traces, JSONL span logs
  and the ASCII timeline ``python -m repro trace`` renders, each built
  from per-process span sources (one for a single-process trace; client,
  router and ``shard:<i>`` for a cluster);
* :func:`get_logger` / :func:`log_event` / :func:`configure_logging` —
  JSON log lines with mandatory anonymity redaction
  (:mod:`repro.obs.logging`);
* :class:`TimeSeries` / :class:`StatusSampler` /
  :func:`prometheus_exposition` — STATUS time series with derived rates,
  the ``repro top`` dashboard and Prometheus text exposition
  (:mod:`repro.obs.telemetry`).

Recording is gated by the metrics tracing switch: wrap work in
``with metrics.tracing():`` (or call ``metrics.enable_tracing()``) and
every span started under that recorder is kept, with its book; otherwise
span calls are no-ops and no book is kept.  See docs/OBSERVABILITY.md for
naming conventions and the "no identity on the wire, no identity in
exported artifacts" rule.
"""

from repro.obs.export import (
    chrome_trace,
    export_chrome_trace,
    export_spans_jsonl,
    load_spans_jsonl,
    render_gantt,
    spans_jsonl,
)
from repro.obs.logging import (
    JsonFormatter,
    RedactionFilter,
    configure as configure_logging,
    get_logger,
    log_event,
    redact_fields,
    unconfigure as unconfigure_logging,
)
from repro.obs.spans import (
    NOOP_SPAN,
    Span,
    current_span,
    finished_spans,
    mint_trace_id,
    span,
    start_span,
    valid_trace,
)
from repro.obs.telemetry import (
    StatusSampler,
    TimeSeries,
    prometheus_exposition,
    render_top,
    write_prometheus_sample,
)

__all__ = [
    "Span", "NOOP_SPAN", "span", "start_span", "current_span",
    "finished_spans", "mint_trace_id", "valid_trace",
    "chrome_trace", "export_chrome_trace", "spans_jsonl",
    "export_spans_jsonl", "load_spans_jsonl", "render_gantt",
    "TimeSeries", "StatusSampler",
    "prometheus_exposition", "write_prometheus_sample", "render_top",
    "JsonFormatter", "RedactionFilter", "get_logger", "log_event",
    "redact_fields", "configure_logging", "unconfigure_logging",
]
