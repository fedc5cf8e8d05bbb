#!/usr/bin/env python3
"""Time the package's two numpy kernels: the subset scan behind
``maximize_exhaustive`` and the lattice sweep behind ``grid_max``.

Run from the root of a checkout:

    PYTHONPATH=src python benchmarks/bench_kernels.py [--scan-sizes 8,10,12] [--grid-sizes 3,4,5] [--resolution 40]

Each row is the best of three timed calls after one warm-up call.
"""

import argparse
import math
import time

import numpy as np

from maxdiv.kernels import grid_best, scan_subsets

QS = np.array([0.0, 0.5, 1.0, 2.0, 8.0, math.inf])


def random_similarity(rng, n):
    a = rng.uniform(0.0, 1.0, size=(n, n))
    z = (a + a.T) / 2.0
    np.fill_diagonal(z, 1.0)
    return z


def time_call(fn, repeats=3):
    fn()  # warm up (compositions cache fill)
    best = math.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def bench_scan(rng, sizes):
    rows = []
    for n in sizes:
        z = random_similarity(rng, n)
        rows.append((f"subset scan n={n} ({2**n - 1} subsets)", time_call(lambda: scan_subsets(z))))
    return rows


def bench_grid(rng, sizes, resolution):
    rows = []
    for n in sizes:
        z = random_similarity(rng, n)
        label = f"lattice sweep n={n} m={resolution} ({math.comb(resolution + n - 1, n - 1)} points x {len(QS)} orders)"
        rows.append((label, time_call(lambda: grid_best(z, QS, resolution))))
    return rows


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scan-sizes", default="8,10,12,14,16")
    parser.add_argument("--grid-sizes", default="3,4,5,6")
    parser.add_argument("--resolution", type=int, default=40)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    rng = np.random.default_rng(args.seed)
    rows = bench_scan(rng, [int(s) for s in args.scan_sizes.split(",")])
    rows += bench_grid(rng, [int(s) for s in args.grid_sizes.split(",")], args.resolution)

    width = max(len(label) for label, _ in rows)
    header = f"{'kernel':<{width}}  {'time':>12}"
    print(header)
    print("-" * len(header))
    for label, seconds in rows:
        print(f"{label:<{width}}  {seconds * 1e3:>10.2f}ms")


if __name__ == "__main__":
    main()
