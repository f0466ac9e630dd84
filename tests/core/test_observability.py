"""Tests for the observability layer: timers, span books, exporters,
thread isolation, and per-party cost parity between the synchronous
handshake engine and the network runner (both feed the paper's O(m)
accounting, so they must agree)."""

import json
import random
import threading
import time

import pytest

from repro import metrics
from repro.core.handshake import run_handshake
from repro.core.scheme1 import scheme1_policy
from repro.crypto.modmath import mexp
from repro.net.runner import run_handshake_over_network
from repro.obs import spans as obs


class TestTimers:
    def test_scope_accrues_wall_time(self):
        metrics.reset()
        with metrics.scope("slow"):
            time.sleep(0.01)
        assert metrics.snapshot()["slow"].wall_time >= 0.009

    def test_reentrant_scope_does_not_double_book_time(self):
        metrics.reset()
        with metrics.scope("t"):
            time.sleep(0.05)
            with metrics.scope("t"):
                time.sleep(0.05)
        wall = metrics.snapshot()["t"].wall_time
        # Inclusive time is ~0.1s; double-booking the inner re-entry would
        # push it past ~0.15s.
        assert 0.09 <= wall <= 0.14



class TestSpanBooks:
    """A context-manager span books the work done inside it; manual spans
    and untraced recorders book nothing."""

    def _traced(self):
        rec = metrics.Recorder()
        rec.tracing = True
        return rec

    def test_span_books_its_modexps(self):
        rec = self._traced()
        with metrics.using(rec):
            with metrics.scope("work"), obs.span("burst"):
                for _ in range(5):
                    mexp(2, 10, 101)
        (span,) = rec.spans()
        assert span.attrs == {"modexp": 5}
        # The book is extra: the scope and the total still book the work.
        assert rec.snapshot()["work"].modexp == 5
        assert rec.total().modexp == 5

    def test_span_books_messages_and_bytes(self):
        rec = self._traced()
        with metrics.using(rec):
            with obs.span("wire"):
                metrics.count_message_sent(17)
                metrics.count_message_received(17)
        (span,) = rec.spans()
        assert span.attrs == {"messages_sent": 1, "bytes_sent": 17,
                              "messages_received": 1, "bytes_received": 17}

    def test_nested_spans_each_book_their_work(self):
        rec = self._traced()
        with metrics.using(rec):
            with obs.span("outer"):
                mexp(2, 10, 101)
                with obs.span("inner"):
                    mexp(2, 10, 101)
                    metrics.bump("inversions")
        books = {s.name: s.attrs for s in rec.spans()}
        assert books == {"inner": {"modexp": 1, "inversions": 1},
                         "outer": {"modexp": 2, "inversions": 1}}

    def test_replayed_counts_reach_the_span_book(self):
        rec = self._traced()
        with metrics.using(rec):
            with obs.span("cached"):
                metrics.replay({"modexp": 3, "hashes": 2, "wall_time": 9.0})
        (span,) = rec.spans()
        assert span.attrs == {"modexp": 3, "hashes": 2}

    def test_manual_spans_carry_no_book(self):
        rec = self._traced()
        with metrics.using(rec):
            manual = obs.start_span("manual", parent=None, party=0)
            mexp(2, 10, 101)
            manual.end(success=True)
        assert manual.attrs == {"party": 0, "success": True}

    def test_reset_clears_spans(self):
        rec = self._traced()
        with metrics.using(rec):
            with obs.span("x"):
                mexp(2, 10, 101)
            metrics.reset()
        assert rec.spans() == []
        assert rec.total().modexp == 0

    def test_tracing_off_records_no_span_and_no_book(self):
        rec = metrics.Recorder()
        with metrics.using(rec):
            with metrics.scope("quiet"), obs.span("quiet") as span:
                # Nothing but the scope itself is pushed.
                assert metrics.active_scopes() == ["quiet"]
                mexp(2, 10, 101)
        assert span is obs.NOOP_SPAN
        assert rec.spans() == []
        assert rec.snapshot()["quiet"].modexp == 1


class TestExporters:
    def test_json_round_trip(self):
        metrics.reset()
        with metrics.scope("j"):
            mexp(2, 10, 101)
            metrics.bump("widgets", 2)
        doc = json.loads(metrics.export_json())
        assert doc["scopes"]["j"]["modexp"] == 1
        assert doc["scopes"]["j"]["widgets"] == 2
        assert doc["scopes"]["total"]["modexp"] == 1
        assert "events" not in doc

    def test_csv_has_scope_rows_and_extra_columns(self):
        metrics.reset()
        with metrics.scope("c"):
            metrics.count_message_sent(10)
            metrics.bump("bonus")
        lines = metrics.export_csv().strip().splitlines()
        header = lines[0].split(",")
        assert header[0] == "scope"
        assert "bytes_sent" in header
        assert "bonus" in header
        rows = {line.split(",")[0]: line.split(",") for line in lines[1:]}
        assert rows["c"][header.index("messages_sent")] == "1"
        assert rows["c"][header.index("bytes_sent")] == "10"

    def test_value_accessor(self):
        metrics.reset()
        with metrics.scope("v"):
            mexp(2, 10, 101)
            metrics.bump("odd:key")
        assert metrics.value("v", "modexp") == 1
        assert metrics.value("v", "odd:key") == 1
        assert metrics.value("v", "missing", default=-1) == -1
        assert metrics.value("no-such-scope", "modexp") == 0

    def test_format_table_selects_scopes(self):
        metrics.reset()
        with metrics.scope("keep"):
            mexp(2, 10, 101)
        with metrics.scope("drop"):
            mexp(2, 10, 101)
        text = metrics.format_table(scopes=["keep"], title="t")
        assert "keep" in text and "drop" not in text


class TestThreadIsolation:
    def test_raw_counters_do_not_bleed(self):
        """Two threads using the same scope names see disjoint recorders."""
        results = {}
        barrier = threading.Barrier(2)

        def worker(idx: int, amount: int) -> None:
            metrics.reset()
            barrier.wait()
            with metrics.scope("shared-name"):
                for _ in range(amount):
                    metrics.count_modexp()
            results[idx] = metrics.snapshot()

        threads = [threading.Thread(target=worker, args=(i, n))
                   for i, n in ((0, 3), (1, 11))]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert results[0]["shared-name"].modexp == 3
        assert results[1]["shared-name"].modexp == 11
        assert results[0]["total"].modexp == 3
        assert results[1]["total"].modexp == 11

    def test_concurrent_handshakes_have_disjoint_scopes(self, scheme1_world):
        """Two handshakes on separate threads produce independent, correct
        per-party counters — the instrumented run of one must not leak
        into the books of the other."""
        results = {}
        errors = []
        barrier = threading.Barrier(2)

        def worker(idx: int, names) -> None:
            try:
                metrics.reset()
                lineup = scheme1_world.lineup(*names)
                rng = random.Random(100 + idx)
                barrier.wait()
                outcomes = run_handshake(lineup, scheme1_policy(), rng)
                assert all(o.success for o in outcomes)
                results[idx] = metrics.snapshot()
            except Exception as exc:  # pragma: no cover - diagnostic
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(0, ("alice", "bob"))),
            threading.Thread(target=worker,
                             args=(1, ("alice", "bob", "carol"))),
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        two, three = results[0], results[1]
        # Each thread sees exactly its own parties…
        assert "hs:2" not in two
        assert "hs:2" in three
        # …with the correct per-party message accounting (4 broadcasts per
        # party; receipts 4*(m-1)) and no inflation from the sibling run.
        for snap, m in ((two, 2), (three, 3)):
            for i in range(m):
                assert snap[f"hs:{i}"].messages_sent == 4
                assert snap[f"hs:{i}"].messages_received == 4 * (m - 1)
                assert snap[f"hs:{i}"].modexp > 0
            assert snap["total"].messages_sent == 4 * m

    def test_using_shares_one_recorder_across_threads(self):
        """An explicitly pinned recorder aggregates safely under the lock."""
        recorder = metrics.Recorder()

        def worker() -> None:
            with metrics.using(recorder):
                for _ in range(200):
                    with metrics.scope("pool"):
                        metrics.count_modexp()

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert recorder.snapshot()["pool"].modexp == 800


class TestEngineParity:
    def test_sync_and_network_runner_agree_per_party(self, scheme1_world):
        """The synchronous engine and the network runner execute the same
        protocol, so for the same roster and seed every party must report
        identical modexp and message counts — otherwise the O(m) tables
        depend on which driver produced them."""
        lineup = scheme1_world.lineup("alice", "bob", "carol")
        m = len(lineup)

        metrics.reset()
        outcomes = run_handshake(lineup, scheme1_policy(), random.Random(7))
        assert all(o.success for o in outcomes)
        sync_snap = metrics.snapshot()

        metrics.reset()
        outcomes = run_handshake_over_network(lineup, scheme1_policy(),
                                              random.Random(7))
        assert all(o.success for o in outcomes)
        net_snap = metrics.snapshot()

        for i in range(m):
            scope = f"hs:{i}"
            assert sync_snap[scope].modexp == net_snap[scope].modexp
            assert sync_snap[scope].messages_sent == net_snap[scope].messages_sent
            assert (sync_snap[scope].messages_received
                    == net_snap[scope].messages_received)
        # The network runner additionally measures real wire sizes.
        for i in range(m):
            assert net_snap[f"hs:{i}"].bytes_sent > 0
            assert net_snap[f"hs:{i}"].bytes_received > 0

    def test_network_wire_bytes_balance(self, scheme1_world):
        """Broadcast fan-out: every byte sent is received m-1 times."""
        lineup = scheme1_world.lineup("alice", "bob")
        metrics.reset()
        run_handshake_over_network(lineup, scheme1_policy(),
                                   random.Random(11))
        total = metrics.total()
        assert total.bytes_sent > 0
        assert total.bytes_received == total.bytes_sent * (len(lineup) - 1)
