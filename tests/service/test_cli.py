"""CLI smoke tests: exit codes, --seed plumbing, and the join/serve path.

``demo``'s heavy crypto is stubbed out so these tests probe exactly what
the satellite asks for — nonzero exit status on handshake failure — in
milliseconds; ``join`` runs the real thing against an in-process server.
"""

import asyncio
import threading
from types import SimpleNamespace

from repro import __main__ as cli


def _outcomes(m, success=True, distinct=None):
    return [
        SimpleNamespace(
            index=i, success=success,
            session_key=b"k" * 32 if success else None,
            confirmed_peers=set(range(m)) - {i} if success else set(),
            distinct=distinct, transcript="T")
        for i in range(m)
    ]


class _FakeFramework:
    def __init__(self):
        self.authority = SimpleNamespace(board=[1])

    def admit_member(self, name, rng):
        return name

    def trace(self, transcript):
        return SimpleNamespace(identified=["agent-0", "agent-1", "agent-2"])

    def remove_user(self, name):
        pass


def _stub_demo_world(monkeypatch, script):
    """Replace the demo's crypto with fakes; ``script`` yields one verdict
    ("ok" / "fail" / "rogue") per run_handshake call."""
    plan = iter(script)

    def fake_run(members, policy, rng):
        verdict = next(plan)
        if verdict == "ok":
            return _outcomes(len(members), True)
        if verdict == "rogue":
            return _outcomes(len(members), False, distinct=False)
        return _outcomes(len(members), False)

    monkeypatch.setattr(cli, "create_scheme1", lambda *a, **k: _FakeFramework())
    monkeypatch.setattr(cli, "create_scheme2", lambda *a, **k: _FakeFramework())
    monkeypatch.setattr(cli, "run_handshake", fake_run)


# The demo runs six handshakes, expecting this verdict sequence.
DEMO_HAPPY = ["ok", "fail", "ok", "fail", "ok", "rogue"]


class TestDemo:
    def test_exit_zero_when_all_expectations_hold(self, monkeypatch, capsys):
        _stub_demo_world(monkeypatch, DEMO_HAPPY)
        assert cli.main(["demo", "--seed", "7"]) == 0
        assert "expectation failed" not in capsys.readouterr().out

    def test_exit_nonzero_when_handshake_misbehaves(self, monkeypatch, capsys):
        # The revoked member's handshake "succeeds" — a protocol failure.
        script = ["ok", "fail", "ok", "ok", "ok", "rogue"]
        _stub_demo_world(monkeypatch, script)
        assert cli.main(["demo"]) == 1
        assert "expectation failed" in capsys.readouterr().out

    def test_default_command_is_demo(self, monkeypatch):
        _stub_demo_world(monkeypatch, DEMO_HAPPY)
        assert cli.main([]) == 0


class TestStats:
    def test_exit_nonzero_on_failed_handshake(self, monkeypatch, capsys):
        monkeypatch.setattr(cli, "create_scheme1",
                            lambda *a, **k: _FakeFramework())
        monkeypatch.setattr(
            cli, "run_handshake",
            lambda members, policy, rng: _outcomes(len(members), False))
        assert cli.main(["stats", "-m", "2", "--seed", "5"]) == 1
        assert "failed" in capsys.readouterr().err

    def test_exit_zero_on_success(self, monkeypatch):
        monkeypatch.setattr(cli, "create_scheme1",
                            lambda *a, **k: _FakeFramework())
        monkeypatch.setattr(
            cli, "run_handshake",
            lambda members, policy, rng: _outcomes(len(members), True))
        assert cli.main(["stats", "-m", "2", "3"]) == 0

    def _stub_success(self, monkeypatch):
        monkeypatch.setattr(cli, "create_scheme1",
                            lambda *a, **k: _FakeFramework())
        monkeypatch.setattr(
            cli, "run_handshake",
            lambda members, policy, rng: _outcomes(len(members), True))

    def test_format_json_stdout_is_parseable(self, monkeypatch, capsys):
        import json
        self._stub_success(monkeypatch)
        assert cli.main(["stats", "-m", "2", "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert "scopes" in doc

    def test_format_csv_stdout_is_parseable(self, monkeypatch, capsys):
        import csv
        import io
        self._stub_success(monkeypatch)
        assert cli.main(["stats", "-m", "2", "--format", "csv"]) == 0
        rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
        assert rows[0][0] == "scope"

    def test_percentiles_prints_histogram_table(self, monkeypatch, capsys):
        self._stub_success(monkeypatch)
        assert cli.main(["stats", "-m", "2", "--percentiles"]) == 0
        out = capsys.readouterr().out
        assert "percentiles" in out and "p99" in out


class TestStatsPhaseRows:
    #: ``repro stats -m 2 4`` phase rows (scheme 1, default seed):
    #: modexp, messages sent, messages received.
    EXPECTED = {
        2: {"phase:I": (8, 4, 4), "phase:II": (0, 2, 2),
            "phase:III": (108, 2, 2)},
        4: {"phase:I": (24, 8, 24), "phase:II": (0, 4, 12),
            "phase:III": (400, 4, 12)},
    }

    def test_phase_rows_are_pinned(self, capsys):
        assert cli.main(["stats", "-m", "2", "4"]) == 0
        rows, m = {}, None
        for line in capsys.readouterr().out.splitlines():
            if line.startswith("m="):
                m = int(line[2:].split()[0])
            elif line.startswith("phase:"):
                name, modexp, sent, received = line.split()[:4]
                rows.setdefault(m, {})[name] = (int(modexp), int(sent),
                                                int(received))
        assert rows == self.EXPECTED


class TestTrace:
    def test_sim_transport_renders_gantt_and_exports(self, tmp_path, capsys):
        import json
        out_path = tmp_path / "trace.json"
        jsonl_path = tmp_path / "spans.jsonl"
        code = cli.main(["trace", "-m", "2", "--transport", "sim",
                         "--seed", "11",
                         "--out", str(out_path), "--jsonl", str(jsonl_path)])
        assert code == 0
        rendered = capsys.readouterr().out
        assert "hs:0" in rendered and "hs:1" in rendered
        assert "phase:I" in rendered and "#" in rendered
        doc = json.loads(out_path.read_text())
        names = {e["name"] for e in doc["traceEvents"] if e["ph"] == "X"}
        assert {"handshake", "phase:I", "phase:III"} <= names
        assert len(jsonl_path.read_text().splitlines()) > 0


def _gantt_rows(text):
    """(lane, span, start ms) of every Gantt row, the lane filled down."""
    lines = text.splitlines()
    header = next(i for i, line in enumerate(lines)
                  if line.startswith("lane "))
    rows, lane = [], None
    for line in lines[header + 1:]:
        if not line.endswith("|"):
            break
        fields = line.split("|")[0].split()
        if len(fields) == 5:
            lane = fields.pop(0)
        name, _trace, start, _dur = fields
        rows.append((lane, name, start))
    return rows


class TestTraceCluster:
    def test_lanes_and_span_log_rerender(self, tmp_path, capsys):
        """One m=2 room through a self-hosted 2-shard cluster: client,
        router and shard lanes, and ``trace --in`` on the span log prints
        every span at the start offset the live run printed."""
        import json
        out_path = tmp_path / "trace.json"
        jsonl_path = tmp_path / "spans.jsonl"
        code = cli.main(["trace", "--transport", "cluster", "-m", "2",
                         "--shards", "2", "--seed", "11",
                         "--out", str(out_path), "--jsonl", str(jsonl_path)])
        assert code == 0
        live = capsys.readouterr().out
        doc = json.loads(out_path.read_text())
        lanes = {e["tid"]: e["args"]["name"] for e in doc["traceEvents"]
                 if e["ph"] == "M" and e["name"] == "thread_name"}
        names = {}
        for e in doc["traceEvents"]:
            if e["ph"] == "X":
                names.setdefault(lanes[e["tid"]], set()).add(e["name"])
        shards = {lane for lane in names if lane.startswith("shard:")}
        assert shards and set(names) == {"client", "router"} | shards
        assert names["router"] == {"place"}
        for lane in shards:
            assert all(name.startswith("room") for name in names[lane])

        assert cli.main(["trace", "--in", str(jsonl_path)]) == 0
        rerendered = _gantt_rows(capsys.readouterr().out)
        assert len(rerendered) == len(jsonl_path.read_text().splitlines())
        assert rerendered == _gantt_rows(live)


def _rendezvous_server():
    from repro.service import RendezvousServer, ServerConfig
    return RendezvousServer(ServerConfig())


def _cluster_router():
    from repro.cluster import ClusterConfig, ClusterRouter
    return ClusterRouter(ClusterConfig(shards=2, heartbeat_interval=0.1))


class _ServerThread:
    """A rendezvous server (or, with ``factory=_cluster_router``, a
    cluster router) on its own thread + loop, for driving the CLI client
    exactly as a user would (separate process boundary modulo GIL)."""

    def __init__(self, factory=_rendezvous_server):
        self.factory = factory
        self.started = threading.Event()
        self.port = None
        self._loop = None
        self._stop = None
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self):
        async def main():
            self._loop = asyncio.get_running_loop()
            self._stop = self._loop.create_future()
            async with self.factory() as server:
                self.port = server.port
                self.started.set()
                await self._stop

        asyncio.run(main())

    def __enter__(self):
        self._thread.start()
        assert self.started.wait(60), "server thread failed to start"
        return self

    def __exit__(self, *exc):
        self._loop.call_soon_threadsafe(self._stop.set_result, None)
        self._thread.join(10)


class TestJoin:
    def test_loopback_join_exits_zero(self):
        with _ServerThread() as server:
            code = cli.main(["join", "--port", str(server.port),
                             "-m", "2", "--seed", "11", "--room", "cli-e2e",
                             "--deadline", "60"])
        assert code == 0

    def test_join_without_server_exits_nonzero(self):
        # Grab a port nothing listens on.
        probe = __import__("socket").socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        code = cli.main(["join", "--port", str(port), "-m", "2",
                         "--seed", "11", "--deadline", "10"])
        assert code == 1


def _unused_port():
    probe = __import__("socket").socket()
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()
    return port


class TestStatus:
    """One ``status`` command for a relay and a cluster router: the
    router's reply adds the cluster header and per-shard lines."""

    def test_plain_server_prints_relay_lines(self, capsys):
        with _ServerThread() as server:
            code = cli.main(["status", "--port", str(server.port)])
        assert code == 0
        out = capsys.readouterr().out
        assert out.startswith(f"relay 127.0.0.1:{server.port}")
        assert "connections:" in out and "send queues:" in out
        assert "shards:" not in out and "(merged)" not in out

    def test_cluster_router_prints_shards_and_merged_tallies(self, capsys):
        with _ServerThread(_cluster_router) as router:
            code = cli.main(["status", "--port", str(router.port)])
        assert code == 0
        out = capsys.readouterr().out
        assert out.startswith(f"cluster router 127.0.0.1:{router.port}")
        assert "2 shards" in out
        shard_lines = [line.split()[0] for line in out.splitlines()
                       if line.startswith("  #")]
        assert shard_lines == ["#0", "#1"]
        assert "counters (merged):" in out
        assert "svc-cluster:shards-up" in out
        assert "send queues:" not in out

    def test_json_prints_the_raw_reply(self, capsys):
        import json
        with _ServerThread() as server:
            code = cli.main(["status", "--port", str(server.port), "--json"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert "rooms" in doc and "cluster" not in doc

    def test_unreachable_port_exits_nonzero(self, capsys):
        code = cli.main(["status", "--port", str(_unused_port()),
                         "--timeout", "2"])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err.strip().splitlines()
        assert len(err) == 1 and "could not query" in err[0]


class TestTraceFromFile:
    """Satellite: ``repro trace --in`` on bad input fails fast with a
    one-line message, and renders offline span logs when they're good."""

    def test_missing_file_exits_nonzero(self, tmp_path, capsys):
        code = cli.main(["trace", "--in", str(tmp_path / "nope.jsonl")])
        assert code == 1
        err = capsys.readouterr().err
        assert "cannot load spans" in err
        assert len(err.strip().splitlines()) == 1

    def test_empty_file_exits_nonzero(self, tmp_path, capsys):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        assert cli.main(["trace", "--in", str(path)]) == 1
        assert "no spans" in capsys.readouterr().err

    def test_malformed_line_exits_nonzero(self, tmp_path, capsys):
        path = tmp_path / "bad.jsonl"
        path.write_text("this is not json\n")
        assert cli.main(["trace", "--in", str(path)]) == 1
        assert "line 1" in capsys.readouterr().err

    def test_good_span_log_renders_gantt(self, tmp_path, capsys):
        import json
        path = tmp_path / "spans.jsonl"
        rows = [
            {"name": "handshake", "span_id": 1, "parent_id": None,
             "trace_id": "ab" * 8, "ts": 0.0, "dur": 0.2, "tid": "t"},
            {"name": "phase:I", "span_id": 2, "parent_id": 1,
             "trace_id": "ab" * 8, "ts": 0.01, "dur": 0.05, "tid": "t"},
        ]
        path.write_text("".join(json.dumps(r) + "\n" for r in rows))
        assert cli.main(["trace", "--in", str(path)]) == 0
        out = capsys.readouterr().out
        assert "handshake" in out and "phase:I" in out and "#" in out


class TestStatsFromFile:
    """Satellite: ``repro stats --from`` re-renders an exported snapshot
    and fails fast on missing/empty/non-metrics files."""

    def test_missing_file_exits_nonzero(self, tmp_path, capsys):
        code = cli.main(["stats", "--from", str(tmp_path / "nope.json")])
        assert code == 1
        err = capsys.readouterr().err
        assert "cannot load metrics" in err
        assert len(err.strip().splitlines()) == 1

    def test_empty_file_exits_nonzero(self, tmp_path, capsys):
        path = tmp_path / "empty.json"
        path.write_text("")
        assert cli.main(["stats", "--from", str(path)]) == 1
        assert "empty file" in capsys.readouterr().err

    def test_wrong_document_exits_nonzero(self, tmp_path, capsys):
        import json
        path = tmp_path / "odd.json"
        path.write_text(json.dumps({"rooms": 3}))
        assert cli.main(["stats", "--from", str(path)]) == 1
        assert "scopes" in capsys.readouterr().err

    def test_good_snapshot_renders_tables(self, tmp_path, capsys):
        import json
        path = tmp_path / "metrics.json"
        path.write_text(json.dumps({
            "scopes": {
                "hs:0": {"modexp": 5, "messages_sent": 4,
                         "messages_received": 8},
                "total": {"modexp": 5, "messages_sent": 4,
                          "messages_received": 8},
            },
            "histograms": {"hs:latency": {
                "count": 1, "p50": 0.1, "p99": 0.2, "max": 0.3}},
        }))
        assert cli.main(["stats", "--from", str(path)]) == 0
        out = capsys.readouterr().out
        assert "hs:0" in out and "total" in out
        assert "hs:latency" in out and "p99" in out


class TestTop:
    def test_no_server_exits_nonzero(self, capsys):
        probe = __import__("socket").socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        code = cli.main(["top", "--port", str(port), "--samples", "1",
                         "--interval", "0.1"])
        assert code == 1
        assert "cannot reach" in capsys.readouterr().err

    def test_nonpositive_interval_rejected(self, capsys):
        import pytest
        with pytest.raises(SystemExit) as err:
            cli.main(["top", "--interval", "0"])
        assert err.value.code == 2
        assert "--interval must be positive" in capsys.readouterr().err
