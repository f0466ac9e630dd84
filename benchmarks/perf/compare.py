"""Compare parent and child benchmark runs by the pairing rule.

    python3 benchmarks/perf/compare.py \\
        --parent P1.json P2.json ... --child C1.json C2.json ...

Each file is a ``run.py --out`` document (one workload or all four).
Runs pair up in the order given, so make them alternately (parent first
in one pair, child first in the next) with the same seed and seconds.
For every workload and metric the report gives:

* each side's median and quartiles;
* ``GAIN`` when the child wins at least 90% of all pairs (ties count for
  neither), there are at least 10 pairs, and the medians differ by more
  than the parent's interquartile range;
* for end-to-end metrics, a verdict against the bound in BENCHMARK.json:
  ``ok``, ``regression`` (child median worse than the parent's by more
  than the bound), or ``unresolved`` when the run-to-run spread (IQR over
  median, the wider side) exceeds the bound — unless every child run is
  better than every parent run;
* a warning when the two sides' calibrations differ by more than 10%.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
from typing import Dict, List, Optional, Sequence

from harness import GSIG_BITS, ROOT, quartiles, spread

MIN_PAIRS = 10
GAIN_SHARE = 0.9
CALIBRATION_TOLERANCE = 0.10


def verdict(parent: Sequence[float], child: Sequence[float], better: str,
            bound: Optional[float] = None) -> Dict[str, object]:
    """Pairing-rule verdict for one metric of one workload; ``parent[i]``
    and ``child[i]`` are the i-th pair."""
    sign = 1.0 if better == "lower" else -1.0
    pairs = list(zip(parent, child))
    wins = sum(1 for p, c in pairs if (p - c) * sign > 0)
    pq1, pmed, pq3 = quartiles(parent)
    cq1, cmed, cq3 = quartiles(child)
    out: Dict[str, object] = {
        "parent": {"median": pmed, "q1": pq1, "q3": pq3},
        "child": {"median": cmed, "q1": cq1, "q3": cq3},
        "pairs": len(pairs), "wins": wins,
        "gain": (len(pairs) >= MIN_PAIRS
                 and wins >= GAIN_SHARE * len(pairs)
                 and (pmed - cmed) * sign > pq3 - pq1),
    }
    if bound is not None:
        worse = (cmed - pmed) * sign / abs(pmed) if pmed else 0.0
        width = max(spread(parent), spread(child))
        dominates = all((p - c) * sign > 0 for p in parent for c in child)
        if width > bound and not dominates:
            out["verdict"] = "unresolved"
        elif worse > bound:
            out["verdict"] = "regression"
        else:
            out["verdict"] = "ok"
        out["worse_by"] = worse
        out["spread"] = width
    return out


def load_runs(path: str) -> Dict[str, dict]:
    """``{workload: result document}`` from one ``run.py --out`` file."""
    with open(path) as handle:
        doc = json.load(handle)
    if "workloads" in doc:
        return doc["workloads"]
    return {doc["workload"]: doc}


def calibration(runs: List[Dict[str, dict]]) -> Optional[float]:
    values = [doc["host"]["s_per_modexp"][str(GSIG_BITS)]
              for run in runs for doc in run.values() if "host" in doc]
    return statistics.median(values) if values else None


def compare(parent: List[Dict[str, dict]], child: List[Dict[str, dict]],
            benchmark: dict) -> Dict[str, object]:
    bounds = {m["name"]: m for m in benchmark["end_to_end"]}
    directions = {m["name"]: m["better"]
                  for m in benchmark["end_to_end"] + benchmark["per_layer"]}
    pairs = min(len(parent), len(child))
    rows = []
    for workload in sorted(set().union(*parent, *child)):
        for section in ("end_to_end", "per_layer"):
            names = sorted({name for run in parent + child
                            for name in run.get(workload, {})
                                           .get(section, {})})
            for name in names:
                try:
                    p = [run[workload][section][name]
                         for run in parent[:pairs]]
                    c = [run[workload][section][name]
                         for run in child[:pairs]]
                except KeyError:
                    continue            # a run lacks this metric: skip it
                spec = bounds.get(name) if section == "end_to_end" else None
                row = verdict(p, c, directions.get(name, "lower"),
                              spec["bound"] if spec else None)
                row.update(workload=workload, metric=name)
                rows.append(row)
    warnings = []
    if pairs < MIN_PAIRS:
        warnings.append(f"only {pairs} pairs: no gain can be claimed "
                        f"(needs {MIN_PAIRS})")
    cal_p, cal_c = calibration(parent), calibration(child)
    if cal_p and cal_c and abs(cal_c / cal_p - 1) > CALIBRATION_TOLERANCE:
        warnings.append(f"calibrations differ: parent {cal_p:.3g} s vs "
                        f"child {cal_c:.3g} s per {GSIG_BITS}-bit modexp")
    if any(not doc.get("correct", False)
           for run in parent + child for doc in run.values()):
        warnings.append("some runs were not correct")
    return {"pairs": pairs, "rows": rows, "warnings": warnings}


def _cell(side: Dict[str, float]) -> str:
    return f"{side['median']:.4g} [{side['q1']:.4g},{side['q3']:.4g}]"


def format_report(report: Dict[str, object]) -> str:
    lines = [f"{'workload':<10} {'metric':<40} {'parent median [q1,q3]':>32} "
             f"{'child median [q1,q3]':>32} {'wins':>7} verdict"]
    for row in report["rows"]:
        verdicts = [v for v in (row.get("verdict"),
                                "GAIN" if row["gain"] else None) if v]
        lines.append(
            f"{row['workload']:<10} {row['metric']:<40} "
            f"{_cell(row['parent']):>32} {_cell(row['child']):>32} "
            f"{row['wins']:>3}/{row['pairs']:<3} {' '.join(verdicts)}")
    lines += [f"!! {w}" for w in report["warnings"]]
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", nargs="+", required=True)
    parser.add_argument("--child", nargs="+", required=True)
    parser.add_argument("--benchmark",
                        default=os.path.join(ROOT, "BENCHMARK.json"))
    args = parser.parse_args(argv)
    with open(args.benchmark) as handle:
        benchmark = json.load(handle)
    report = compare([load_runs(p) for p in args.parent],
                     [load_runs(c) for c in args.child], benchmark)
    print(format_report(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
