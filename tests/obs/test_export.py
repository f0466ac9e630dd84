"""Exporter goldens: Chrome trace_event structure, JSONL span logs, and
the ASCII Gantt renderer."""

import json

from repro import metrics
from repro.obs import export as obsx
from repro.obs import spans as obs


def _spans_fixture():
    """A deterministic little span forest: one party with a child crypto
    span (no attrs of its own) and one room span."""
    rec = metrics.Recorder()
    rec.tracing = True
    with metrics.using(rec):
        with obs.span("hs:0", party=0):
            with obs.span("gsig:sign"):
                pass
        obs.start_span("room", parent=None, token="cafe1234").end(
            outcome="completed")
        return rec, [s for s in rec.spans()]


class TestChromeTrace:
    def test_document_structure(self):
        rec, spans = _spans_fixture()
        with metrics.using(rec):
            doc = obsx.chrome_trace([{"spans": spans}])
        assert set(doc) == {"traceEvents", "displayTimeUnit"}
        events = doc["traceEvents"]
        meta = [e for e in events if e["ph"] == "M"]
        xs = [e for e in events if e["ph"] == "X"]
        assert {e["name"] for e in meta} == {"process_name", "thread_name"}
        assert len(xs) == 3
        for e in xs:
            assert set(e) == {"ph", "name", "cat", "ts", "dur",
                              "pid", "tid", "args"}
            assert e["ts"] >= 0 and e["dur"] >= 0

    def test_lanes_from_party_and_token(self):
        rec, spans = _spans_fixture()
        with metrics.using(rec):
            doc = obsx.chrome_trace([{"spans": spans}])
        thread_names = {e["args"]["name"] for e in doc["traceEvents"]
                        if e["name"] == "thread_name"}
        assert "hs:0" in thread_names
        assert "room:cafe1234" in thread_names

    def test_child_span_inherits_parent_lane(self):
        rec, spans = _spans_fixture()
        with metrics.using(rec):
            doc = obsx.chrome_trace([{"spans": spans}])
        lanes = {e["tid"]: e["args"]["name"] for e in doc["traceEvents"]
                 if e["name"] == "thread_name"}
        by_name = {e["name"]: e for e in doc["traceEvents"]
                   if e["ph"] == "X"}
        # gsig:sign carries no party attr, yet renders in the hs:0 lane
        # because its parent chain leads there.
        assert lanes[by_name["gsig:sign"]["tid"]] == "hs:0"
        assert by_name["gsig:sign"]["tid"] == by_name["hs:0"]["tid"]

    def test_args_flatten_non_scalars(self):
        rec = metrics.Recorder()
        rec.tracing = True
        with metrics.using(rec):
            obs.start_span("leaky", parent=None,
                           blob=b"\x00\x01", items=(1, 2)).end()
            doc = obsx.chrome_trace()
        args = [e for e in doc["traceEvents"] if e["ph"] == "X"][0]["args"]
        assert args["blob"] == "<bytes>"
        assert args["items"] == "<tuple>"

    def test_json_serializable_and_file_export(self, tmp_path):
        rec, spans = _spans_fixture()
        path = tmp_path / "trace.json"
        with metrics.using(rec):
            obsx.export_chrome_trace(str(path), [{"spans": spans}])
        loaded = json.loads(path.read_text())
        assert loaded["traceEvents"]

    def test_args_and_jsonl_carry_the_span_book(self):
        from repro.crypto.modmath import mexp
        rec = metrics.Recorder()
        rec.tracing = True
        with metrics.using(rec):
            with obs.span("work", party=0):
                mexp(2, 50, 1009)
                mexp(3, 50, 1009)
                metrics.count_message_sent(17)
            doc = obsx.chrome_trace()
            lines = obsx.spans_jsonl().splitlines()
        xs = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        # Only spans are exported: one event, category "span".
        assert [(e["name"], e["cat"]) for e in xs] == [("work", "span")]
        assert xs[0]["args"] == {"party": 0, "modexp": 2,
                                 "messages_sent": 1, "bytes_sent": 17,
                                 "trace_id": rec.spans()[0].trace_id}
        row = json.loads(lines[0])
        assert (row["attr.modexp"], row["attr.messages_sent"],
                row["attr.bytes_sent"]) == (2, 1, 17)
        # Zero counts and wall time are left off.
        assert "attr.hashes" not in row and "attr.wall_time" not in row


class TestJsonl:
    def test_one_parseable_line_per_span(self):
        rec, spans = _spans_fixture()
        lines = obsx.spans_jsonl([{"spans": spans}]).splitlines()
        assert len(lines) == len(spans)
        docs = [json.loads(line) for line in lines]
        assert {"name", "span_id", "parent_id", "ts", "dur", "tid"} <= set(docs[0])
        by_name = {d["name"]: d for d in docs}
        assert by_name["hs:0"]["attr.party"] == 0
        assert by_name["gsig:sign"]["parent_id"] == by_name["hs:0"]["span_id"]

    def test_file_export(self, tmp_path):
        rec, spans = _spans_fixture()
        path = tmp_path / "spans.jsonl"
        obsx.export_spans_jsonl(str(path), [{"spans": spans}])
        assert len(path.read_text().splitlines()) == len(spans)


class TestGantt:
    def test_renders_lanes_bars_and_title(self):
        rec, spans = _spans_fixture()
        out = obsx.render_gantt([{"spans": spans}], width=40,
                                title="golden timeline")
        assert out.startswith("golden timeline")
        assert "hs:0" in out
        assert "room:cafe1234" in out
        assert "#" in out
        # Child spans are indented under their parents.
        assert "  gsig:sign" in out

    def test_empty_spans_message(self):
        out = obsx.render_gantt([], title="empty")
        assert "no spans recorded" in out
