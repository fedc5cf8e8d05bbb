#!/usr/bin/env python3
"""Summarize perfbench records of a parent and a change into one BENCH file.

    python3 benchmarks/bench_record.py PARENT_DIR CHANGE_DIR --label LABEL

Each directory holds ``perfbench/run.py`` records: every ``*.json`` file
under it, at any depth, is one run (copy each run's
``.perfbench-results/<workload>-seed<n>-trace<t>.json`` to its own place,
since the next run of the same workload and seed overwrites it).  A parent
record and a change record at the same path relative to their directories
form a pair.

Writes ``BENCH_<LABEL>.json`` in the current directory.  For every workload
and side it gives the runs, seeds, numpy versions and the host reference
(median over the start and end timings of every run); for every metric, the
median and interquartile range of each side and, for metrics that
``BENCHMARK.json`` declares, the number of pairs the change won.  For an
end-to-end metric with a ``bound`` and runs on both sides it also gives
the change's relative median shift, the parent's IQR over its median, and
``unresolved``: whether that spread exceeds the bound, in which case the
runs spread too widely to tell a shift within the bound from noise.  Only
the standard library is used.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load_runs(root: Path) -> dict[str, dict]:
    """Records under ``root``, keyed by their path relative to it."""
    runs = {}
    for path in sorted(root.rglob("*.json")):
        record = json.loads(path.read_text())
        if "workload" in record and "metrics" in record:
            runs[path.relative_to(root).as_posix()] = record
    if not runs:
        sys.exit(f"bench_record: no perfbench records under {root}")
    return runs


def spread(values: list[float]) -> dict:
    """Median, quartiles and interquartile range of ``values``."""
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        q1 = q3 = values[0]
    return {"runs": len(values), "median": statistics.median(values), "q1": q1, "q3": q3, "iqr": q3 - q1}


def side_summary(records: list[dict]) -> dict:
    host = {}
    for key in ("python_ms", "numpy_ms"):
        host[key] = statistics.median(
            r["host_reference"][end][key] for r in records for end in ("start", "end")
        )
    return {
        "runs": len(records),
        "seeds": sorted({r["seed"] for r in records}),
        "numpy": sorted({r["numpy"] for r in records}),
        "host_reference_ms": host,
    }


def summarize(
    parent: dict[str, dict], change: dict[str, dict], better: dict[str, str], bounds: dict[str, float]
) -> dict:
    workloads = {}
    for name in sorted({r["workload"] for r in [*parent.values(), *change.values()]}):
        sides = {
            side: {key: r for key, r in runs.items() if r["workload"] == name}
            for side, runs in (("parent", parent), ("change", change))
        }
        entry = {side: side_summary(list(runs.values())) for side, runs in sides.items() if runs}
        metrics = {}
        names = {m for runs in sides.values() for r in runs.values() for m in r["metrics"]}
        for metric in sorted(names):
            row = {}
            for side, runs in sides.items():
                values = [r["metrics"][metric] for r in runs.values() if metric in r["metrics"]]
                if values:
                    row[side] = spread(values)
            if metric in better:
                pairs = [
                    (r["metrics"][metric], sides["change"][key]["metrics"][metric])
                    for key, r in sides["parent"].items()
                    if key in sides["change"] and metric in r["metrics"]
                    and metric in sides["change"][key]["metrics"]
                ]
                sign = 1.0 if better[metric] == "lower" else -1.0
                row["better"] = better[metric]
                row["pairs"] = len(pairs)
                row["change_wins"] = sum(sign * (p - c) > 0 for p, c in pairs)
            if metric in bounds and "parent" in row and "change" in row:
                base = row["parent"]["median"]
                row["bound"] = bounds[metric]
                row["shift"] = row["change"]["median"] / base - 1.0
                row["parent_spread"] = row["parent"]["iqr"] / base
                row["unresolved"] = row["parent_spread"] > bounds[metric]
            metrics[metric] = row
        entry["metrics"] = metrics
        workloads[name] = entry
    return workloads


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", type=Path, help="directory of the parent commit's records")
    ap.add_argument("change", type=Path, help="directory of the change's records")
    ap.add_argument("--label", required=True, help="output goes to BENCH_<label>.json")
    args = ap.parse_args(argv)

    declared = json.loads(BENCHMARK.read_text())
    better = {m["name"]: m["better"] for m in declared["end_to_end"] + declared["per_layer"]}
    bounds = {m["name"]: m["bound"] for m in declared["end_to_end"] if "bound" in m}
    out = {
        "label": args.label,
        "workloads": summarize(load_runs(args.parent), load_runs(args.change), better, bounds),
    }
    path = Path(f"BENCH_{args.label}.json")
    path.write_text(json.dumps(out, indent=1) + "\n")
    print(path)


if __name__ == "__main__":
    main()
