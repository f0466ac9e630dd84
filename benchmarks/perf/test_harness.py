"""Tests of the benchmark harness: statistics, the pairing-rule verdicts,
the tracer's accounting, the BENCHMARK.json contract, and a short smoke
run of every workload.

    PYTHONPATH=src python -m pytest benchmarks/perf/test_harness.py -q
"""

import asyncio
import json
import os
import shutil
import statistics
import subprocess
import sys

import pytest

import compare
import harness

BENCHMARK_PATH = os.path.join(harness.ROOT, "BENCHMARK.json")


# Statistics -----------------------------------------------------------------


def test_percentile_interpolates_between_order_statistics():
    assert harness.percentile([4, 1, 3, 2], 50) == 2.5
    assert harness.percentile([1, 2, 3, 4], 0) == 1
    assert harness.percentile([1, 2, 3, 4], 100) == 4
    assert harness.percentile(range(11), 90) == pytest.approx(9.0)
    assert harness.percentile([7.0], 90) == 7.0
    with pytest.raises(ValueError):
        harness.percentile([], 50)


def test_quartiles_and_spread_follow_statistics_quantiles():
    values = [3.0, 1.0, 4.0, 1.5, 5.0, 9.0, 2.0, 6.0]
    assert list(harness.quartiles(values)) == \
        statistics.quantiles(values, n=4)
    q1, q2, q3 = statistics.quantiles(values, n=4)
    assert harness.spread(values) == pytest.approx((q3 - q1) / q2)
    assert harness.quartiles([2.0]) == (2.0, 2.0, 2.0)
    assert harness.spread([5.0] * 6) == 0.0


# Pairing-rule verdicts --------------------------------------------------------


def _steady(center, n=10, step=0.001):
    return [center + step * ((i * 7) % n - n / 2) for i in range(n)]


def test_clear_gain_is_claimed_and_is_no_regression():
    row = compare.verdict(_steady(1.0), _steady(0.8), "lower", bound=0.1)
    assert row["gain"] and row["wins"] == 10
    assert row["verdict"] == "ok"


def test_gain_needs_ten_pairs():
    row = compare.verdict(_steady(1.0, n=9), _steady(0.8, n=9), "lower",
                          bound=0.1)
    assert row["wins"] == 9 and not row["gain"]


def test_gain_needs_ninety_percent_of_pairs_and_ties_count_for_neither():
    parent = _steady(1.0)
    child = [p - 0.3 for p in parent]
    child[0] = parent[0]                       # a tie: no win
    child[1] = parent[1] + 0.01                # a loss
    row = compare.verdict(parent, child, "lower", bound=0.1)
    assert row["wins"] == 8 and not row["gain"]


def test_gain_needs_medians_apart_by_more_than_parent_iqr():
    parent = [1.0, 1.4, 0.6, 1.2, 0.8, 1.3, 0.7, 1.1, 0.9, 1.0]
    child = [p - 0.05 for p in parent]         # wins every pair, tiny shift
    row = compare.verdict(parent, child, "lower")
    assert row["wins"] == 10 and not row["gain"]


def test_regression_beyond_the_bound():
    row = compare.verdict(_steady(1.0), _steady(1.3), "lower", bound=0.1)
    assert row["verdict"] == "regression"
    assert row["worse_by"] == pytest.approx(0.3, abs=0.01)


def test_higher_is_better_direction():
    row = compare.verdict(_steady(10.0), _steady(8.0), "higher", bound=0.1)
    assert row["verdict"] == "regression" and not row["gain"]
    row = compare.verdict(_steady(10.0), _steady(12.0), "higher", bound=0.1)
    assert row["verdict"] == "ok" and row["gain"]


def test_wide_spread_is_unresolved_unless_the_child_dominates():
    wide = [1.0, 1.6, 0.5, 1.3, 0.7, 1.5, 0.6, 1.2, 0.8, 1.1]
    row = compare.verdict(wide, [v * 1.02 for v in wide], "lower", bound=0.1)
    assert row["verdict"] == "unresolved"
    row = compare.verdict(wide, [0.2 + 0.01 * i for i in range(10)],
                          "lower", bound=0.1)
    assert row["verdict"] == "ok"


def _run(workload, value, calibration=7e-4):
    return {workload: {"correct": True,
                       "host": {"s_per_modexp": {"512": calibration}},
                       "end_to_end": {"room_p50_s": value}}}


def test_compare_documents_and_calibration_warning():
    bench = {"end_to_end": [{"name": "room_p50_s", "unit": "s",
                             "better": "lower", "bound": 0.1}],
             "per_layer": []}
    parent = [_run("w", v) for v in _steady(1.0)]
    child = [_run("w", v, calibration=9e-4) for v in _steady(0.8)]
    report = compare.compare(parent, child, bench)
    (row,) = report["rows"]
    assert (row["workload"], row["metric"]) == ("w", "room_p50_s")
    assert row["gain"] and row["verdict"] == "ok"
    assert any("calibrations differ" in w for w in report["warnings"])
    report = compare.compare(parent[:3], child[:3], bench)
    assert any("only 3 pairs" in w for w in report["warnings"])


# Tracer -----------------------------------------------------------------------


def test_tracer_counts_public_calls_and_restores_originals():
    from tracer import Tracer

    from repro.crypto import mac

    original = mac.mac
    tracer = Tracer()
    with tracer.installed():
        with tracer.unit("room", 1):
            tag = mac.mac(b"k", "x")
            assert mac.verify(b"k", tag, "x")   # calls mac.mac inside
    assert mac.mac is original
    assert tracer.calls["crypto.mac"] == 2
    assert tracer.self_s["crypto.mac"] > 0
    assert {s["trace_id"] for s in tracer.spans} == {f"{1:016x}"}
    roots = [s for s in tracer.spans if s["parent_id"] is None]
    assert [s["name"] for s in roots] == ["room"]


# The BENCHMARK.json contract --------------------------------------------------


def test_benchmark_json_matches_the_harness():
    import workloads

    with open(BENCHMARK_PATH) as handle:
        bench = json.load(handle)
    assert bench["command"] == ["python3", "benchmarks/perf/run.py"]
    assert bench["paths"] == ["benchmarks/perf"]
    assert [w["name"] for w in bench["workloads"]] == \
        list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"])
            for m in bench["end_to_end"]] == list(workloads.END_TO_END)
    assert [(m["name"], m["unit"], m["better"])
            for m in bench["per_layer"]] == list(workloads.PER_LAYER)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25


def test_run_refuses_without_a_source_tree(tmp_path):
    perf = tmp_path / "benchmarks" / "perf"
    perf.mkdir(parents=True)
    for name in ("run.py", "harness.py"):
        shutil.copy(os.path.join(harness.HERE, name), perf / name)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, str(perf / "run.py"), "--workload", "engine-m8",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


# Smoke runs -------------------------------------------------------------------


@pytest.mark.parametrize("name", ["engine-m8", "socket-m2", "relay-m2",
                                  "churn-m4"])
def test_workload_smoke(name, tmp_path, monkeypatch):
    import workloads

    monkeypatch.setattr(workloads, "SETUP_REPEATS", 1)
    trace_path = str(tmp_path / "trace.json")
    doc = asyncio.run(workloads.measure(name, seed=11, seconds=120,
                                        trace=True, max_units=2,
                                        trace_path=trace_path))
    assert doc["problems"] == [] and doc["correct"], doc["problems"]
    assert doc["failed"] == 0 and doc["attempted"] >= 2
    e2e = doc["end_to_end"]
    assert [n for n, _, _ in workloads.END_TO_END] == list(e2e)
    assert all(v > 0 for v in e2e.values()), e2e
    layer = doc["per_layer"]
    assert [n for n, _, _ in workloads.PER_LAYER] == list(layer)
    expected = workloads.WORKLOADS[name].expected_calls
    for group, per_room in expected.items():
        assert layer[f"{group}.calls"] == per_room
    with open(trace_path) as handle:
        assert len(json.load(handle)["traceEvents"]) == doc["trace_events"]
