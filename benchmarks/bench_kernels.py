#!/usr/bin/env python3
"""Time the package's two numpy kernels, the subset scan behind
``maximize_exhaustive`` and the lattice sweep behind ``grid_max``, the
phase-1 LP behind ``find_nonnegative_weighting``, the ultrametric test
that names the fast path, and the definiteness verdicts that gate it.

Run from the root of a checkout:

    PYTHONPATH=src python benchmarks/bench_kernels.py [--scan-sizes 8,10,12] [--grid-sizes 3,4,5] [--resolution 40]

Each row is the best of three timed calls after one warm-up call.  A scan
row also counts the subsets the scan classified, that is eliminated rather
than skipped as ``DOMINATED`` by their column-sum bound, and adds a second
time: one cold call, made after emptying the cache of the scan's subset
tables (masks, member tables, membership bits), so that it builds them as
the first scan at each n does.  Above n=16 only the 16-species tables are
cached, so a cold call rebuilds them once and then shifts them into every
block of the other species, as a warm call does.  A lattice row has a cold
time too: one call made after emptying the cache of ``compositions``, so
that it builds the lattice table first.  The LP row is the total
time of ``find_nonnegative_weighting`` over a fixed corpus
(set by ``--seed`` alone) of duplicated-species weighting spaces on which
the LP runs: full sets and random subsets, each as solved and shifted by
``-POSITIVITY_EPS`` as the positive-weighting search shifts it.  No
perfbench workload reaches the LP, so this row is its only timing.  The
ultrametric rows call ``is_ultrametric`` on one random ultrametric (set by
``--seed`` alone) at each of n = 128, 256 and 512; the test passes on it, so
it checks every species.  The definiteness row times the Cholesky verdicts
that gate the fast path, ``_definiteness``, on one positive definite matrix
at n=128 (a random ultrametric, set by ``--seed`` alone), and names in its
label the time of the ``eigvalsh`` that decided them before.
"""

import argparse
import math
import time
from dataclasses import replace

import numpy as np

from maxdiv.kernels import DOMINATED, _cached_subset_groups, compositions, grid_best, scan_subsets
from maxdiv.linalg import (
    POSITIVITY_EPS,
    SOLVE_TOL,
    SimilarityMatrix,
    _definiteness,
    find_nonnegative_weighting,
    is_ultrametric,
    solve_weighting_space,
)

LP_SPACES = 200
ULTRAMETRIC_SIZES = (128, 256, 512)
DEFINITENESS_SIZE = 128

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


def cold_call(fn, cache):
    """One call of ``fn`` after emptying ``cache``: the scan's subset tables,
    the 16-species ones included, or the lattice tables."""
    cache.cache_clear()
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def bench_scan(rng, sizes):
    rows = []
    for n in sizes:
        z = random_similarity(rng, n)
        classified = int((scan_subsets(z)[0] != DOMINATED).sum())
        label = f"subset scan n={n} ({2**n - 1} subsets, {classified} classified)"
        warm = time_call(lambda: scan_subsets(z))
        rows.append((label, warm, cold_call(lambda: scan_subsets(z), _cached_subset_groups)))
    return rows


def bench_grid(rng, sizes, resolution):
    rows = []
    for n in sizes:
        z = random_similarity(rng, n)
        label = f"lattice sweep n={n} m={resolution} ({math.comb(resolution + n - 1, n - 1)} points x {len(QS)} orders)"
        warm = time_call(lambda: grid_best(z, QS, resolution))
        rows.append((label, warm, cold_call(lambda: grid_best(z, QS, resolution), compositions)))
    return rows


def duplicated_psd(rng, n):
    """A singular positive semidefinite matrix: a strictly diagonally
    dominant base on k < n species, with n - k extra copies of its species."""
    k = int(rng.integers(2, n))
    off = random_similarity(rng, k)
    np.fill_diagonal(off, 0.0)
    off *= rng.uniform(0.2, 0.95) / off.sum(axis=1).max()
    species = np.concatenate([np.arange(k), rng.integers(0, k, size=n - k)])
    rng.shuffle(species)
    return SimilarityMatrix((off + np.eye(k))[np.ix_(species, species)])


def bench_lp(rng):
    spaces = []
    while len(spaces) < LP_SPACES:
        z = duplicated_psd(rng, int(rng.integers(6, 11)))
        sub = np.flatnonzero(rng.uniform(size=z.n) < 0.7)
        for idx in (None, sub if sub.size else None):
            ws = solve_weighting_space(z, idx)
            if ws.particular is None or ws.nullspace.shape[0] == 0:
                continue
            for space in (ws, replace(ws, particular=ws.particular - POSITIVITY_EPS)):
                if space.particular.min() < -SOLVE_TOL:  # the LP runs
                    spaces.append(space)
    spaces = spaces[:LP_SPACES]
    label = f"phase-1 LP ({LP_SPACES} duplicated-species weighting spaces, n=6-10)"
    return [(label, time_call(lambda: [find_nonnegative_weighting(ws) for ws in spaces]), None)]


def random_ultrametric(rng, n):
    """Agglomerative merges of random clusters at n - 1 distinct levels in
    (0.05, 0.95), highest first, so species labels follow no tree order."""
    z = np.eye(n)
    clusters = [[i] for i in range(n)]
    for level in np.sort(rng.uniform(0.05, 0.95, size=n - 1))[::-1]:
        a, b = sorted(rng.choice(len(clusters), size=2, replace=False))
        ia, ib = np.array(clusters[a]), np.array(clusters[b])
        z[np.ix_(ia, ib)] = level
        z[np.ix_(ib, ia)] = level
        clusters[a] += clusters.pop(b)
    return SimilarityMatrix(z)


def bench_ultrametric(rng):
    rows = []
    for n in ULTRAMETRIC_SIZES:
        z = random_ultrametric(rng, n)
        assert is_ultrametric(z)
        rows.append((f"ultrametric test n={n} (ultrametric input)", time_call(lambda: is_ultrametric(z)), None))
    return rows


def bench_definiteness(rng):
    z = random_ultrametric(rng, DEFINITENESS_SIZE)
    assert _definiteness(z) == (True, True)
    eig = time_call(lambda: np.linalg.eigvalsh(z.values))
    label = f"definiteness n={DEFINITENESS_SIZE} (positive definite input, eigvalsh {eig * 1e3:.2f}ms)"
    return [(label, time_call(lambda: _definiteness(z)), None)]


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
    rows += bench_lp(np.random.default_rng(args.seed))
    rows += bench_ultrametric(np.random.default_rng(args.seed))
    rows += bench_definiteness(np.random.default_rng(args.seed))

    width = max(len(label) for label, _, _ in rows)
    header = f"{'kernel':<{width}}  {'best of 3':>12}  {'cold':>12}"
    print(header)
    print("-" * len(header))
    for label, seconds, cold in rows:
        cold_ms = "" if cold is None else f"  {cold * 1e3:>10.2f}ms"
        print(f"{label:<{width}}  {seconds * 1e3:>10.2f}ms{cold_ms}")


if __name__ == "__main__":
    main()
