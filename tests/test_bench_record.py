"""Smoke test of benchmarks/bench_record.py on synthetic perfbench records."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "benchmarks" / "bench_record.py"


def _record(workload, seed, p90, rss, host_ms):
    ref = {"python_ms": host_ms, "numpy_ms": 2 * host_ms}
    return {
        "workload": workload,
        "seed": seed,
        "numpy": "2.4.6",
        "host_reference": {"start": ref, "end": ref},
        "metrics": {"op_p90_ms": p90, "peak_rss_mb": rss, "op_p50_ms": p90 / 2},
    }


def _write(root, name, record):
    path = root / name / f"{record['workload']}-seed{record['seed']}-trace0.json"
    path.parent.mkdir(parents=True)
    path.write_text(json.dumps(record))


def _run(tmp_path, parent, change):
    proc = subprocess.run(
        [sys.executable, str(SCRIPT), str(parent), str(change), "--label", "t"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads((tmp_path / "BENCH_t.json").read_text())


def test_medians_iqr_and_pair_wins(tmp_path):
    parent, change = tmp_path / "parent", tmp_path / "change"
    for i, (p90_parent, p90_change) in enumerate([(70.0, 12.0), (74.0, 11.0), (60.0, 65.0)]):
        _write(parent, f"{i:02d}", _record("fastpath-large", 7, p90_parent, 40.0, 10.0))
        _write(change, f"{i:02d}", _record("fastpath-large", 7, p90_change, 41.0, 12.0))
    _write(parent, "other", _record("graph-sweep", 8, 40.0, 30.0, 10.0))
    (change / "spans.jsonl").write_text("not a record\n")

    out = _run(tmp_path, parent, change)
    assert out["label"] == "t"
    fast = out["workloads"]["fastpath-large"]
    assert fast["parent"]["seeds"] == [7] and fast["change"]["numpy"] == ["2.4.6"]
    assert fast["change"]["host_reference_ms"] == {"python_ms": 12.0, "numpy_ms": 24.0}
    p90 = fast["metrics"]["op_p90_ms"]
    assert p90["parent"]["median"] == 70.0 and p90["change"]["median"] == 12.0
    assert p90["parent"]["iqr"] == pytest.approx(7.0)  # quartiles 65 and 72
    assert (p90["better"], p90["pairs"], p90["change_wins"]) == ("lower", 3, 2)
    # a metric BENCHMARK.json does not declare gets no pair count
    assert "pairs" not in fast["metrics"]["op_p50_ms"]
    assert fast["metrics"]["peak_rss_mb"]["change_wins"] == 0
    # a workload with runs on one side only keeps that side
    graph = out["workloads"]["graph-sweep"]
    assert "change" not in graph and graph["metrics"]["op_p90_ms"]["parent"]["runs"] == 1
    assert graph["metrics"]["op_p90_ms"]["pairs"] == 0


def test_bounded_metrics_flag_a_parent_spread_wider_than_the_bound(tmp_path):
    # BENCHMARK.json bounds op_p90_ms by 0.25 and peak_rss_mb by 0.1
    parent, change = tmp_path / "parent", tmp_path / "change"
    for i, (p90, rss) in enumerate([(40.0, 30.0), (44.0, 40.0), (36.0, 50.0)]):
        _write(parent, f"{i:02d}", _record("lattice-oracle", 9, p90, rss, 10.0))
        _write(change, f"{i:02d}", _record("lattice-oracle", 9, 50.0, 44.0, 10.0))
    metrics = _run(tmp_path, parent, change)["workloads"]["lattice-oracle"]["metrics"]
    # quartiles 38 and 42 around a median of 40: a 10 % spread resolves a 0.25 bound
    p90 = metrics["op_p90_ms"]
    assert p90["bound"] == 0.25 and p90["unresolved"] is False
    assert p90["shift"] == pytest.approx(0.25) and p90["parent_spread"] == pytest.approx(0.1)
    # quartiles 35 and 45 around 40: a 25 % spread cannot resolve a 0.1 bound
    rss = metrics["peak_rss_mb"]
    assert rss["bound"] == 0.1 and rss["unresolved"] is True
    assert rss["shift"] == pytest.approx(0.1) and rss["parent_spread"] == pytest.approx(0.25)
    # an unbounded metric gets neither
    assert "unresolved" not in metrics["op_p50_ms"]
