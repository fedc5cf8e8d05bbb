"""Smoke test of benchmarks/bench_pairs.py with a stub perfbench/run.py in
each fake checkout."""

import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "benchmarks"

# Writes a record as perfbench/run.py does, with the checkout's name in
# op_p90_ms (10 for the parent, 5 for the change), and logs each run.
STUB = """
import argparse, json, pathlib
ap = argparse.ArgumentParser()
for flag in ("--workload", "--seed", "--seconds", "--trace"):
    ap.add_argument(flag)
a = ap.parse_args()
here = pathlib.Path.cwd()
with open(here.parent / "log.txt", "a") as fh:
    fh.write(here.name + "\\n")
ref = {"python_ms": 1.0, "numpy_ms": 2.0}
record = {
    "workload": a.workload, "seed": int(a.seed), "numpy": "2.4.6",
    "host_reference": {"start": ref, "end": ref},
    "metrics": {"op_p90_ms": 10.0 if here.name == "parent" else 5.0},
}
out = here / ".perfbench-results"
out.mkdir(exist_ok=True)
(out / f"{a.workload}-seed{a.seed}-trace{a.trace}.json").write_text(json.dumps(record))
print(json.dumps({"correct": True, "failed": 0}))
"""


def _run(script, *args, cwd):
    return subprocess.run(
        [sys.executable, str(BENCH / script), *map(str, args)],
        cwd=cwd, capture_output=True, text=True, timeout=60,
    )


def test_alternating_pairs_feed_bench_record(tmp_path):
    for side in ("parent", "change"):
        (tmp_path / side / "perfbench").mkdir(parents=True)
        (tmp_path / side / "perfbench" / "run.py").write_text(STUB)
    out = tmp_path / "out"
    args = ("parent", "change", "--seed", 3, "--pairs", 3, "--out", out)
    for workload in ("graph-sweep", "dense-sweep"):
        proc = _run("bench_pairs.py", *args, "--workload", workload, cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
    order = (tmp_path / "log.txt").read_text().split()
    assert order == ["parent", "change", "change", "parent", "parent", "change"] * 2
    name = "graph-sweep-seed3-trace0.json"
    assert sorted(p.relative_to(out).as_posix() for p in out.rglob(name)) == [
        f"{side}/{i:02d}/{name}" for side in ("change", "parent") for i in range(3)
    ]

    # a second call for the same records refuses before it runs anything
    proc = _run("bench_pairs.py", *args, "--workload", "graph-sweep", cwd=tmp_path)
    assert proc.returncode != 0 and "exists" in proc.stderr
    assert len((tmp_path / "log.txt").read_text().split()) == 12

    proc = _run("bench_record.py", out / "parent", out / "change", "--label", "t", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    bench = json.loads((tmp_path / "BENCH_t.json").read_text())
    for workload in ("graph-sweep", "dense-sweep"):
        p90 = bench["workloads"][workload]["metrics"]["op_p90_ms"]
        assert (p90["pairs"], p90["change_wins"]) == (3, 3)
        assert (p90["parent"]["median"], p90["change"]["median"]) == (10.0, 5.0)


def test_runner_without_record_fails(tmp_path):
    for side in ("parent", "change"):
        (tmp_path / side / "perfbench").mkdir(parents=True)
        (tmp_path / side / "perfbench" / "run.py").write_text("print('{}')\n")
    proc = _run(
        "bench_pairs.py", "parent", "change", "--workload", "graph-sweep", "--seed", 1,
        "--pairs", 1, "--out", tmp_path / "out", cwd=tmp_path,
    )
    assert proc.returncode != 0 and "wrote no record" in proc.stderr
    assert not (tmp_path / "out").exists()
