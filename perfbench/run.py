#!/usr/bin/env python3
"""End-to-end benchmark of ``maxdiv``: four workloads in a closed loop.

    python3 perfbench/run.py --workload dense-sweep --seed 1 --seconds 28 --trace 0

One process and one caller: each operation starts when the previous one has
returned.  The pool of inputs comes from ``--seed`` and runs in whole rounds
until ``--seconds`` of timed wall time have passed; every output is checked
after its round, outside the timed section.  The last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the bounded end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.  A full record of the run goes to
``.perfbench-results/`` at the root of the checkout.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
from time import perf_counter

import bootstrap

SETUP_PROBES = 5
RESULTS = bootstrap.ROOT / ".perfbench-results"
# The end-to-end metrics that BENCHMARK.json bounds, and so the only ones on
# the result line of an untraced run.  op_p50_ms and throughput_ops_s are
# printed above it and recorded, but not bounded: on a host whose speed
# switches between two states, their spread over runs of the same code
# reached 28 %, past the widest bound of 25 % (README, "Steadiness").
BOUNDED = ("op_p90_ms", "setup_s", "peak_rss_mb")


def host_reference(np):
    """Milliseconds for a fixed pure-Python loop and a fixed numpy loop.

    Taken at the start and the end of every run, to tell host drift apart
    from program changes; not a metric.
    """
    t0 = perf_counter()
    acc = 0
    for i in range(200_000):
        acc += i * i % 7
    t1 = perf_counter()
    a = np.eye(96) * 96.0 + np.arange(96 * 96).reshape(96, 96) % 5
    for _ in range(300):
        np.linalg.solve(a, a[0])
    t2 = perf_counter()
    return {"python_ms": (t1 - t0) * 1e3, "numpy_ms": (t2 - t1) * 1e3}


class Phase:
    """Whole rounds over the pool: each operation's wall time, the timed
    wall time of all rounds, failures and check errors."""

    def __init__(self):
        self.times = []
        self.wall = 0.0
        self.attempted = 0
        self.failed = 0
        self.errors = []


def run_round(workload, pool, phase, maxdiv, checks, tracer=None):
    """One operation per input, timed; then the outputs are checked outside
    the timed section."""
    outs = []
    start = perf_counter()
    for case in pool:
        if tracer is not None:
            tracer.op = phase.attempted + len(outs)
        t0 = perf_counter()
        try:
            out = case.op()
        except maxdiv.MaxdivError as exc:
            out = exc
        else:
            phase.times.append(perf_counter() - t0)
        outs.append(out)
    phase.wall += perf_counter() - start
    phase.attempted += len(outs)
    for case, out in zip(pool, outs):
        if isinstance(out, maxdiv.MaxdivError):
            phase.failed += 1
            continue
        try:
            checks.check(workload, case, out)
        except checks.CheckFailed as exc:
            phase.errors.append(str(exc))


def measure_setup(workload, seed):
    samples = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(bootstrap.HERE / "probe.py"), workload, str(seed)],
            cwd=bootstrap.ROOT,
            capture_output=True,
            text=True,
            timeout=120,
        )
        if proc.returncode != 0:
            sys.exit(f"perfbench: set-up probe failed:\n{proc.stderr}")
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return samples


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    maxdiv = bootstrap.use_source_tree()
    import numpy as np

    import checks
    import workloads
    from tracing import Tracer

    if args.workload not in workloads.WORKLOADS:
        ap.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    host_start = host_reference(np)
    pool = workloads.make_pool(args.workload, args.seed)

    tracer = Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()  # before warm-up, to time the first lazy cache fill
    warm = Phase()
    run_round(args.workload, pool[:1], warm, maxdiv, checks)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "pool": len(pool)}

    if tracer is None:
        phase = Phase()
        while phase.wall < args.seconds:
            run_round(args.workload, pool, phase, maxdiv, checks)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        phases = [warm, phase]
        setup = measure_setup(args.workload, args.seed)
        ms = np.asarray(phase.times) * 1e3
        metrics = {
            "op_p50_ms": (float(np.percentile(ms, 50)), "ms"),
            "op_p90_ms": (float(np.percentile(ms, 90)), "ms"),
            "throughput_ops_s": ((phase.attempted - phase.failed) / phase.wall, "1/s"),
            "setup_s": (statistics.median(s["import_s"] + s["warmup_s"] for s in setup), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
        record["setup_probes"] = setup
        record["samples"] = len(ms)
        record["samples_above_p90"] = int((ms > metrics["op_p90_ms"][0]).sum())
    else:
        # plain and traced rounds alternate, so host drift hits both alike
        tracer.uninstall()
        tracer.reset()
        plain, phase = Phase(), Phase()
        while plain.wall + phase.wall < args.seconds:
            run_round(args.workload, pool, plain, maxdiv, checks)
            tracer.install()
            run_round(args.workload, pool, phase, maxdiv, checks, tracer)
            tracer.uninstall()
        phases = [warm, plain, phase]
        metrics = tracer.layer_metrics(phase.attempted)
        plain_rate = plain.attempted / plain.wall
        traced_rate = phase.attempted / phase.wall
        metrics["trace.overhead_pct"] = ((plain_rate - traced_rate) / plain_rate * 100.0, "%")
        record["layers"] = tracer.summary(phase.attempted)
        record["absent"] = tracer.absent

    attempted = sum(p.attempted for p in phases[1:])
    failed = sum(p.failed for p in phases[1:])
    errors = [e for p in phases for e in p.errors]
    record.update(
        attempted=attempted,
        failed=failed,
        errors=errors[:20],
        blas_threads=bootstrap.blas_threads(),
        numpy=np.__version__,
        python=sys.version.split()[0],
        host_reference={"start": host_start, "end": host_reference(np)},
        metrics={k: v for k, (v, _) in metrics.items()},
    )
    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=1))
    if tracer is not None:
        with open(RESULTS / f"{stem}-spans.jsonl", "w") as fh:
            for span in tracer.spans:
                fh.write(json.dumps(span) + "\n")

    for e in errors[:5]:
        print(f"check failed: {e}", file=sys.stderr)
    hs, he = record["host_reference"]["start"], record["host_reference"]["end"]
    print(
        f"{args.workload} seed={args.seed} ops={attempted} blas_threads={record['blas_threads']} "
        f"host python {hs['python_ms']:.1f}->{he['python_ms']:.1f} ms, numpy {hs['numpy_ms']:.1f}->{he['numpy_ms']:.1f} ms"
    )
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    if tracer is None:
        metrics = {k: metrics[k] for k in BOUNDED}
    print(
        json.dumps(
            {
                "correct": not errors,
                "attempted": attempted,
                "failed": failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )


if __name__ == "__main__":
    main()
