#!/usr/bin/env python3
"""Run perfbench in two checkouts in alternating order, keeping every record.

    python3 benchmarks/bench_pairs.py PARENT CHANGE --workload graph-sweep --seed 7 --pairs 5 --out pairs

Pair i runs ``perfbench/run.py`` once in each checkout: the parent first in
even pairs and the change first in odd ones, so host drift falls on both
sides alike.  ``run.py`` writes its record to
``.perfbench-results/<workload>-seed<n>-trace<t>.json`` in its checkout,
where the next run of the same workload and seed overwrites it, so each
record is copied to ``<out>/{parent,change}/NN/`` as soon as its run ends.

    python3 benchmarks/bench_record.py pairs/parent pairs/change --label LABEL

then reads the pairs as they stand.  Several workloads can share one
``--out``, since their record names differ; an existing record is never
overwritten.  Only the standard library is used.
"""

from __future__ import annotations

import argparse
import shutil
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")
RUNNER = "perfbench/run.py"  # relative to each checkout


def run_once(checkout: Path, record: Path, args) -> str:
    """One run of ``perfbench/run.py`` in ``checkout``; returns its result line."""
    record.unlink(missing_ok=True)  # a stale record must not pass for this run's
    cmd = [
        sys.executable, RUNNER, "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0 or not record.is_file():
        sys.exit(f"bench_pairs: {' '.join(cmd)} in {checkout} wrote no record:\n{proc.stderr}")
    return proc.stdout.strip().splitlines()[-1]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", type=Path, help="checkout of the parent commit")
    ap.add_argument("change", type=Path, help="checkout of the change")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--out", type=Path, required=True, help="records go to OUT/{parent,change}/NN/")
    ap.add_argument("--seconds", type=float, default=28.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    dest = {(i, side): args.out / side / f"{i:02d}" / name for i in range(args.pairs) for side in SIDES}
    taken = [path for path in dest.values() if path.exists()]
    if taken:
        sys.exit(f"bench_pairs: {taken[0]} exists")
    for i in range(args.pairs):
        for side in SIDES if i % 2 == 0 else SIDES[::-1]:
            checkout = getattr(args, side).resolve()
            record = checkout / ".perfbench-results" / name
            line = run_once(checkout, record, args)
            dest[i, side].parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(record, dest[i, side])
            print(f"pair {i:02d} {side}: {line}", flush=True)


if __name__ == "__main__":
    main()
