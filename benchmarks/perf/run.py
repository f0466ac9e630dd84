"""Run the benchmark: one workload, or all four in fresh processes.

    python3 benchmarks/perf/run.py --workload engine-m8 --seed 2005 \\
        --seconds 20 --trace 0
    python3 benchmarks/perf/run.py --seed 2005 --out R.json   # all four
    python3 benchmarks/perf/run.py --seed 2005 --trace        # per-layer

Without ``--trace`` every end-to-end metric is printed by name and unit;
with it, every per-layer metric, and a merged span trace is written under
``benchmarks/perf/out/``.  The last line of standard output is one JSON
object with exactly the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``--out`` writes the full result document (host fingerprint,
calibration, problems) for ``compare.py``.
"""

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import asyncio  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

import harness  # noqa: E402

_AGE_AT_START = harness.process_age_s()

#: Matches ``run_seconds`` in BENCHMARK.json.
DEFAULT_SECONDS = 20
#: A child run's ceiling in the all-workloads mode.
CHILD_TIMEOUT_S = 900


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default=None,
                        help="one workload (default: all four, each in a "
                             "fresh process)")
    parser.add_argument("--seed", type=int, default=2005)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help="timed phase per workload (default: "
                             f"{DEFAULT_SECONDS})")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="1 (or bare --trace): report per-layer "
                             "metrics from a traced run")
    parser.add_argument("--out", metavar="PATH",
                        help="write the full result document as JSON")
    return parser.parse_args(argv)


def _result_line(correct, attempted, failed, values, units) -> str:
    return json.dumps({
        "correct": bool(correct), "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in values}})


def _write(path, doc) -> None:
    with open(path, "w") as handle:
        json.dump(doc, handle, indent=2, sort_keys=True)
        handle.write("\n")


def _run_one(args, workloads, import_s) -> int:
    trace_path = None
    if args.trace:
        os.makedirs(harness.OUT_DIR, exist_ok=True)
        trace_path = os.path.join(
            harness.OUT_DIR, f"trace-{args.workload}-{args.seed}.json")
    doc = asyncio.run(workloads.measure(
        args.workload, args.seed, args.seconds, bool(args.trace),
        import_s=import_s, trace_path=trace_path))
    specs = workloads.PER_LAYER if args.trace else workloads.END_TO_END
    section = doc["per_layer" if args.trace else "end_to_end"]
    units = {name: unit for name, unit, _ in specs}
    values = {name: section[name] for name in units}
    for name in units:
        print(f"{args.workload:<10} {name:<42} {values[name]:>14.6g} "
              f"{units[name]}")
    for problem in doc["problems"]:
        print(f"!! {args.workload}: {problem}")
    print("host:", json.dumps(doc["host"], sort_keys=True))
    if args.out:
        _write(args.out, doc)
    print(_result_line(doc["correct"], doc["attempted"], doc["failed"],
                       values, units))
    return 0


def _run_all(args, workloads) -> int:
    os.makedirs(harness.OUT_DIR, exist_ok=True)
    docs = {}
    for name in workloads.WORKLOADS:
        path = os.path.join(harness.OUT_DIR, f"{name}-{args.seed}.json")
        cmd = [sys.executable, os.path.abspath(__file__),
               "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--out", path]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=CHILD_TIMEOUT_S, cwd=harness.ROOT)
        if proc.returncode != 0:
            docs[name] = {"correct": False, "attempted": 0, "failed": 0,
                          "problems": [f"exit code {proc.returncode}"]}
            continue
        with open(path) as handle:
            docs[name] = json.load(handle)
    specs = workloads.PER_LAYER if args.trace else workloads.END_TO_END
    section = "per_layer" if args.trace else "end_to_end"
    names = list(docs)
    print(f"{'metric':<42} {'unit':<9}" + "".join(f"{n:>14}" for n in names))
    values, units = {}, {}
    for metric, unit, _ in specs:
        row = []
        for wl in names:
            value = docs[wl].get(section, {}).get(metric)
            row.append(f"{value:>14.6g}" if value is not None else
                       f"{'-':>14}")
            if value is not None:
                values[f"{wl}.{metric}"] = value
                units[f"{wl}.{metric}"] = unit
        print(f"{metric:<42} {unit:<9}" + "".join(row))
    for wl in names:
        for problem in docs[wl].get("problems", []):
            print(f"!! {wl}: {problem}")
    if args.out:
        _write(args.out, {"seed": args.seed, "seconds": args.seconds,
                          "trace": args.trace, "workloads": docs})
    print(_result_line(all(d["correct"] for d in docs.values()),
                       sum(d["attempted"] for d in docs.values()),
                       sum(d["failed"] for d in docs.values()),
                       values, units))
    return 0


def main(argv=None) -> int:
    args = _parse(argv)
    # The program is always measured from this checkout's source tree,
    # never from whatever copy happens to be importable.
    if not os.path.isdir(os.path.join(harness.SRC, "repro")):
        print(f"no source tree at {harness.SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, harness.SRC)
    try:
        import workloads
    except ImportError as exc:
        print(f"cannot import the program under test from {harness.SRC}: "
              f"{exc}", file=sys.stderr)
        return 2
    import_s = _AGE_AT_START + time.perf_counter() - _STARTED
    if args.workload is None:
        return _run_all(args, workloads)
    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    return _run_one(args, workloads, import_s)


if __name__ == "__main__":
    sys.exit(main())
