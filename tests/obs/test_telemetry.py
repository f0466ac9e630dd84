"""Tests for ``repro.obs.telemetry`` (STATUS time series with derived
rates, Prometheus exposition, the dashboards) and for the multi-source
half of ``repro.obs.export``: merged cluster traces, span-log reload and
the per-process Gantt."""

import json

import pytest

from repro import metrics
from repro.metrics import Histogram
from repro.obs import export as obsx
from repro.obs import spans as obs
from repro.obs import telemetry

BOUNDS = (0.001, 0.01, 0.1, 1.0)


def _status(completed=0, sheds=None, relay=None, rooms=None,
            connections=0):
    """A minimal STATUS document (same shape single-server and merged
    cluster STATUS share)."""
    counters = dict(sheds or {})
    return {
        "rooms": rooms or {"filling": 0, "active": 0, "closed": completed},
        "outcomes": {"completed": completed},
        "counters": counters,
        "histograms": {"svc:relay-latency": relay} if relay else {},
        "connections": connections,
    }


def _relay_summary(*values):
    hist = Histogram("svc:relay-latency", BOUNDS)
    for value in values:
        hist.observe(value)
    return hist.summary()


# ---------------------------------------------------------------------------
# Trace context on spans.
# ---------------------------------------------------------------------------


class TestTraceContext:
    def test_mint_is_wire_valid(self):
        minted = obs.mint_trace_id()
        assert obs.valid_trace(minted) == minted
        assert len(minted) == 16

    @pytest.mark.parametrize("bad", [
        None, "", 42, "XYZ", "abcd", "A" * 16, "f" * 15, "f" * 17,
        "f" * 20,  # bigint-length hex is not a trace context either
    ])
    def test_invalid_contexts_rejected(self, bad):
        assert obs.valid_trace(bad) is None

    def test_child_inherits_parent_trace(self):
        rec = metrics.Recorder()
        rec.tracing = True
        with metrics.using(rec):
            with obs.span("outer") as outer:
                with obs.span("inner") as inner:
                    assert inner.trace_id == outer.trace_id

    def test_root_adopts_remote_context(self):
        rec = metrics.Recorder()
        rec.tracing = True
        remote = "cafe" * 4
        with metrics.using(rec):
            root = obs.start_span("room", parent=None, trace=remote)
            child = obs.start_span("room:fill", parent=root)
            child.end()
            root.end()
        assert root.trace_id == remote
        assert child.trace_id == remote
        # Adopting a remote trace never adopts a remote parent id.
        assert root.parent_id is None

    def test_malformed_remote_context_minted_fresh(self):
        rec = metrics.Recorder()
        rec.tracing = True
        with metrics.using(rec):
            root = obs.start_span("room", parent=None, trace="NOT-HEX").end()
        assert obs.valid_trace(root.trace_id) == root.trace_id
        assert root.trace_id != "NOT-HEX"


# ---------------------------------------------------------------------------
# Merged Chrome traces.
# ---------------------------------------------------------------------------


def _finished_spans(trace=None, names=("connect", "handshake")):
    rec = metrics.Recorder()
    rec.tracing = True
    with metrics.using(rec):
        for name in names:
            obs.start_span(name, parent=None, trace=trace).end()
    return rec, [span.as_dict() for span in rec.drain_spans()]


class TestMergeChromeTrace:
    def test_one_lane_per_label_shared_labels_share(self):
        _, a = _finished_spans()
        _, b = _finished_spans()
        _, c = _finished_spans()
        doc = obsx.chrome_trace([
            {"label": "client", "epoch": 10.0, "spans": a},
            {"label": "client", "epoch": 11.0, "spans": b},
            {"label": "shard:0", "epoch": 10.5, "spans": c},
        ])
        lanes = {e["args"]["name"]: e["tid"] for e in doc["traceEvents"]
                 if e["ph"] == "M" and e["name"] == "thread_name"}
        assert set(lanes) == {"client", "shard:0"}
        xs = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert {e["tid"] for e in xs} == set(lanes.values())
        assert sum(e["tid"] == lanes["client"] for e in xs) == len(a) + len(b)

    def test_epoch_rebasing_onto_earliest(self):
        rec_a, spans_a = _finished_spans(names=("a",))
        rec_b, spans_b = _finished_spans(names=("b",))
        doc = obsx.chrome_trace([
            {"label": "early", "epoch": 100.0, "spans": spans_a},
            {"label": "late", "epoch": 100.5, "spans": spans_b},
        ])
        xs = {e["name"]: e for e in doc["traceEvents"] if e["ph"] == "X"}
        # Source "late" started 0.5s after "early": its event timestamps
        # are shifted right by 500ms relative to its own span clock.
        want_shift = 0.5e6 + (spans_b[0]["ts"] - spans_a[0]["ts"]) * 1e6
        assert xs["b"]["ts"] - xs["a"]["ts"] == pytest.approx(want_shift,
                                                              abs=1.0)
        assert all(e["ts"] >= 0 for e in xs.values())

    def test_trace_id_rides_in_args(self):
        trace = "beef" * 4
        _, spans = _finished_spans(trace=trace)
        doc = obsx.chrome_trace(
            [{"label": "client", "epoch": 0.0, "spans": spans}])
        xs = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert all(e["args"]["trace_id"] == trace for e in xs)

    def test_unfinished_spans_skipped(self):
        row = {"name": "open", "span_id": 1, "parent_id": None,
               "trace_id": None, "ts": 0.0, "dur": None, "tid": "t"}
        doc = obsx.chrome_trace(
            [{"label": "x", "epoch": 0.0, "spans": [row]}])
        assert [e for e in doc["traceEvents"] if e["ph"] == "X"] == []

    def test_attr_args_flattened_like_export(self):
        rec = metrics.Recorder()
        rec.tracing = True
        with metrics.using(rec):
            obs.start_span("leaky", parent=None, blob=b"\x00", m=3).end()
        doc = obsx.chrome_trace(
            [{"label": "x", "epoch": 0.0, "spans": rec.drain_spans()}])
        args = [e for e in doc["traceEvents"] if e["ph"] == "X"][0]["args"]
        assert args["blob"] == "<bytes>"
        assert args["m"] == 3

    def test_export_file_is_json(self, tmp_path):
        _, spans = _finished_spans()
        path = tmp_path / "merged.json"
        telemetry.export_merged_trace(
            str(path), [{"label": "c", "epoch": 0.0, "spans": spans}])
        loaded = json.loads(path.read_text())
        assert loaded["displayTimeUnit"] == "ms"
        assert loaded["traceEvents"]


class TestLoadSpansJsonl:
    def test_roundtrip_from_export(self, tmp_path):
        rec = metrics.Recorder()
        rec.tracing = True
        with metrics.using(rec):
            with obs.span("hs:0", party=0):
                with obs.span("gsig:sign"):
                    pass
            spans = rec.drain_spans()
        path = tmp_path / "spans.jsonl"
        obsx.export_spans_jsonl(str(path), [{"spans": spans}])
        loaded = obsx.load_spans_jsonl(str(path))
        rows = [row for source in loaded for row in source["spans"]]
        assert {row["name"] for row in rows} == {"hs:0", "gsig:sign"}
        by_name = {row["name"]: row for row in rows}
        assert by_name["gsig:sign"]["parent_id"] == by_name["hs:0"]["span_id"]
        assert {k: v for k, v in by_name["hs:0"].items()
                if k.startswith("attr.")} == {"attr.party": 0}
        # Loaded spans render through the same Gantt as live ones.
        out = obsx.render_gantt(loaded, width=30)
        assert "hs:0" in out and "#" in out

    def test_missing_file_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            obsx.load_spans_jsonl(str(tmp_path / "nope.jsonl"))

    def test_empty_file_raises_valueerror(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        with pytest.raises(ValueError, match="no spans"):
            obsx.load_spans_jsonl(str(path))

    def test_malformed_line_raises_with_lineno(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"name": "ok", "ts": 0, "dur": 1}\nnot json\n')
        with pytest.raises(ValueError, match="line 2"):
            obsx.load_spans_jsonl(str(path))

    def test_non_span_record_rejected(self, tmp_path):
        path = tmp_path / "odd.jsonl"
        path.write_text('{"rooms": 3}\n')
        with pytest.raises(ValueError, match="not a span record"):
            obsx.load_spans_jsonl(str(path))


class TestClusterGantt:
    def test_lanes_and_trace_column(self):
        trace = "dead" * 4
        _, client = _finished_spans(trace=trace, names=("handshake",))
        _, shard = _finished_spans(trace=trace, names=("room",))
        out = obsx.render_gantt([
            {"label": "client", "epoch": 1.0, "spans": client},
            {"label": "shard:0", "epoch": 1.0, "spans": shard},
        ], width=30)
        assert "client" in out and "shard:0" in out
        assert trace[:8] in out
        assert "#" in out

    def test_empty_sources_message(self):
        out = obsx.render_gantt([], title="empty")
        assert "no spans recorded" in out


# ---------------------------------------------------------------------------
# Time series and derived rates.
# ---------------------------------------------------------------------------


class TestTimeSeries:
    def test_rates_from_completed_and_shed_deltas(self):
        series = telemetry.TimeSeries()
        series.add(_status(completed=0), at=0.0,
                   client_counters={"svc-client:retries": 0})
        series.add(_status(completed=6,
                           sheds={"svc:busy:at-capacity": 4}), at=2.0,
                   client_counters={"svc-client:retries": 8})
        rows = series.rates()
        assert len(rows) == 1
        row = rows[0]
        assert row["rooms_per_s"] == 3.0
        assert row["sheds_per_s"] == {"svc:busy:at-capacity": 2.0}
        assert row["shed_per_s_total"] == 2.0
        assert row["retries_per_s"] == 4.0
        assert row["relay_p50_s"] is None and row["relay_n"] == 0

    def test_interval_exact_relay_percentiles(self):
        series = telemetry.TimeSeries()
        # First window: slow observations.  Second: only fast ones.  The
        # cumulative summary still remembers the slow ones; the delta
        # histogram must not.
        slow = _relay_summary(0.5, 0.5, 0.5)
        both = _relay_summary(0.5, 0.5, 0.5, 0.002, 0.002, 0.002)
        series.add(_status(relay=slow), at=0.0)
        series.add(_status(relay=both), at=1.0)
        row = series.rates()[0]
        assert row["relay_n"] == 3
        assert row["relay_p99_s"] <= 0.01   # fast bucket only

    def test_counter_resets_clamp_to_zero(self):
        series = telemetry.TimeSeries()
        series.add(_status(completed=10), at=0.0)
        series.add(_status(completed=4), at=1.0)   # restarted relay
        assert series.rates()[0]["rooms_per_s"] == 0.0

    def test_ring_buffer_capacity(self):
        series = telemetry.TimeSeries(capacity=3)
        for i in range(10):
            series.add(_status(completed=i), at=float(i))
        assert len(series) == 3
        assert series.latest["status"]["outcomes"]["completed"] == 9
        assert len(series.rates()) == 2

    def test_timeline_doc_peaks(self):
        series = telemetry.TimeSeries()
        series.add(_status(completed=0), at=0.0)
        series.add(_status(completed=4), at=1.0)
        series.add(_status(completed=5,
                           sheds={"svc:busy:draining": 3}), at=2.0)
        doc = series.timeline_doc()
        assert doc["samples"] == 3
        assert len(doc["intervals"]) == 2
        assert doc["peak_rooms_per_s"] == 4.0
        assert doc["peak_sheds_per_s"] == 3.0
        assert doc["worst_relay_p99_s"] is None
        json.dumps(doc)   # report documents must stay JSON-able


class TestDeltaHistogram:
    def test_none_without_new_observations(self):
        summary = _relay_summary(0.05)
        assert telemetry._delta_histogram(summary, summary) is None

    def test_bounds_change_treated_as_fresh(self):
        older = _relay_summary(0.05)
        newer = Histogram("svc:relay-latency", (0.5, 2.0))
        newer.observe(1.0)
        hist = telemetry._delta_histogram(older, newer.summary())
        assert hist is not None and hist.total == 1

    def test_extrema_come_from_newer_snapshot(self):
        older = _relay_summary(0.05)
        newer = _relay_summary(0.05, 0.2)
        hist = telemetry._delta_histogram(older, newer)
        assert hist.min == 0.05 and hist.max == 0.2
        # percentile() dereferences extrema — must not crash on a delta.
        assert hist.percentile(0.99) <= 1.0


# ---------------------------------------------------------------------------
# Prometheus exposition.
# ---------------------------------------------------------------------------


class TestPrometheus:
    def test_gauges_counters_and_up(self):
        text = telemetry.prometheus_exposition(_status(
            completed=7, sheds={"svc:busy:at-capacity": 2},
            rooms={"filling": 1, "active": 2, "closed": 7},
            connections=5))
        assert "repro_up 1\n" in text
        assert 'repro_rooms{state="active"} 2' in text
        assert "repro_connections 5" in text
        assert 'repro_outcomes_total{outcome="completed"} 7' in text
        assert ('repro_counter_total{name="svc:busy:at-capacity"} 2'
                in text)

    def test_histogram_buckets_are_cumulative(self):
        text = telemetry.prometheus_exposition(
            _status(relay=_relay_summary(0.0005, 0.005, 0.05, 0.5, 5.0)))
        lines = [l for l in text.splitlines()
                 if l.startswith("repro_latency_seconds_bucket")]
        counts = [int(l.rsplit(" ", 1)[1]) for l in lines]
        assert counts == sorted(counts)        # cumulative, per convention
        assert counts[-1] == 5
        assert 'le="+Inf"' in lines[-1]
        assert ('repro_latency_seconds_count'
                '{histogram="svc:relay-latency"} 5') in text

    def test_label_escaping(self):
        status = _status()
        status["counters"]['we"ird\\name'] = 1
        text = telemetry.prometheus_exposition(status)
        assert 'name="we\\"ird\\\\name"' in text

    def test_write_numbered_sample_files(self, tmp_path):
        prom = tmp_path / "prom"
        path1 = telemetry.write_prometheus_sample(str(prom), 1, _status())
        path2 = telemetry.write_prometheus_sample(str(prom), 2, _status())
        assert path1.endswith("repro-000001.prom")
        assert path2.endswith("repro-000002.prom")
        assert "repro_up 1" in (prom / "repro-000001.prom").read_text()


# ---------------------------------------------------------------------------
# Dashboards.
# ---------------------------------------------------------------------------


class TestRenderTop:
    def test_no_samples_frame(self):
        out = telemetry.render_top(telemetry.TimeSeries(), title="t")
        assert "no samples yet" in out

    def test_single_sample_needs_one_more(self):
        series = telemetry.TimeSeries()
        series.add(_status(completed=1), at=0.0)
        assert "one more sample" in telemetry.render_top(series)

    def test_full_frame_rows_and_sheds(self):
        series = telemetry.TimeSeries()
        series.add(_status(completed=0), at=0.0)
        series.add(_status(completed=3,
                           sheds={"svc:busy:at-capacity": 2},
                           relay=_relay_summary(0.01, 0.02),
                           rooms={"filling": 1, "active": 2, "closed": 3}),
                   at=1.0)
        out = telemetry.render_top(series, title="repro top")
        assert out.startswith("repro top")
        assert "rooms/s" in out and "relay p99" in out
        assert "3.00" in out            # rooms/s column
        assert "at-capacity=2/s" in out

    def test_cluster_header_when_present(self):
        series = telemetry.TimeSeries()
        status = _status(completed=1)
        status["cluster"] = {"shards": 2, "accepting": True,
                             "states": {"live": [0, 1]}}
        series.add(status, at=0.0)
        assert "2 shards" in telemetry.render_top(series)
