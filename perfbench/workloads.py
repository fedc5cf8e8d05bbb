"""Input families, operations and reference answers for the four workloads.

Every input comes from ``numpy.random.default_rng`` seeded with the run's
``--seed`` and the workload's index, so one seed always yields the same pool.
A workload runs its pool in whole rounds; every operation in a pool has the
same family and size, so the percentiles of one run do not sit on a cost
cliff.  Reference answers are computed here, once per input and before any
timed phase, by the benchmark's own numpy code or by parts of ``maxdiv``
that no workload measures (``graphs``, ``diversity``, and ``maximize`` on
the lattice workload's 5x5 matrices).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

import maxdiv

# Sizes are chosen so one operation takes roughly 50-100 ms on a 2-CPU host:
# a run then holds well over 100 operations, leaving at least ten samples
# above the 90th percentile.
DENSE_N = 14
GRAPH_N = 11
GRAPH_EDGES = 22  # 40 % of the 55 possible edges
# Accepted graphs have this many singular principal submatrices (of 2047):
# the subsets the sweep leaves UNRESOLVED for the slow path, which set the
# cost of an operation.  Unfiltered, the pool median of this count moved by
# 9 % between seeds; within the band it moves by under 2 %.
GRAPH_SINGULAR = (800, 880)
FAST_N = 128
LATTICE_N = 5
LATTICE_M = 40  # divisible by LATTICE_N, so the uniform point is on the lattice
LATTICE_ORDERS = (0.0, 1.0, 2.0, math.inf)
POOL = 16

WORKLOADS = ("dense-sweep", "graph-sweep", "fastpath-large", "lattice-oracle")


@dataclass
class Case:
    """One input of a pool: the matrix, the operation on it, and the
    reference answer the checks compare its output with."""

    z: Any  # maxdiv.SimilarityMatrix
    op: Callable[[], Any]
    ref: dict | None = None


def _rng(workload: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), WORKLOADS.index(workload)])


def dense_symmetric(rng, n):
    """Unit diagonal, off-diagonal entries uniform on [0, 1], symmetric."""
    a = rng.uniform(0.0, 1.0, size=(n, n))
    z = (a + a.T) / 2.0
    np.fill_diagonal(z, 1.0)
    return z


def random_graph_edges(rng, n, m):
    """``m`` distinct edges of the complete graph on ``n`` vertices."""
    pairs = list(itertools.combinations(range(n), 2))
    pick = np.sort(rng.choice(len(pairs), size=m, replace=False))
    return [pairs[i] for i in pick]


def singular_subsets(a: np.ndarray) -> int:
    """Number of singular principal submatrices of a 0/1 matrix.  Their
    determinants are integers, so ``|det| < 0.5`` decides exactly."""
    n = a.shape[0]
    count = 0
    for k in range(1, n + 1):
        subs = np.array(list(itertools.combinations(range(n), k)))
        count += int((np.abs(np.linalg.det(a[subs[:, :, None], subs[:, None, :]])) < 0.5).sum())
    return count


def banded_graph(rng, n, m, band):
    """Adjacency matrix, with unit diagonal, of a random graph with ``m``
    edges whose singular-subset count lies in ``band``."""
    while True:
        a = np.eye(n)
        for u, v in random_graph_edges(rng, n, m):
            a[u, v] = a[v, u] = 1.0
        if band[0] <= singular_subsets(a) <= band[1]:
            return a


def ultrametric(rng, n):
    """Agglomerative merges at strictly decreasing similarity levels in
    (0.05, 0.95), unit diagonal.  Unlike rejection sampling on level gaps,
    this returns at any n."""
    levels = np.sort(rng.uniform(0.05, 0.95, size=n - 1))[::-1]
    z = np.eye(n)
    clusters = [[i] for i in range(n)]
    for level in levels:
        a, b = sorted(rng.choice(len(clusters), size=2, replace=False))
        ia, ib = np.array(clusters[a]), np.array(clusters[b])
        z[np.ix_(ia, ib)] = level
        z[np.ix_(ib, ia)] = level
        clusters[a] += clusters.pop(b)
    return z


def diagonally_dominant(rng, n):
    """Unit diagonal, symmetric off-diagonal part scaled so the largest row
    sum is uniform on [0.2, 0.95]."""
    a = rng.uniform(0.0, 1.0, size=(n, n))
    off = (a + a.T) / 2.0
    np.fill_diagonal(off, 0.0)
    off *= rng.uniform(0.2, 0.95) / off.sum(axis=1).max()
    return off + np.eye(n)


def sweep_dmax(z: np.ndarray, tol: float = 1e-9, chunk: int = 512) -> float:
    """Maximum diversity by a plain numpy sweep over nonsingular principal
    submatrices: the largest entry sum of a nonnegative solution of
    ``Z_B w = 1``.  Singular subsets can be skipped, because every singular
    subset with a nonnegative weighting contains a nonsingular one with the
    same magnitude.  Works in chunks, so its memory stays small."""
    n = z.shape[0]
    best = -math.inf
    for k in range(1, n + 1):
        combos = itertools.combinations(range(n), k)
        while block := list(itertools.islice(combos, chunk)):
            subs = np.array(block)
            a = z[subs[:, :, None], subs[:, None, :]]
            ones = np.ones((subs.shape[0], k, 1))
            try:
                w = np.linalg.solve(a, ones)[:, :, 0]
            except np.linalg.LinAlgError:  # one singular member spoils the stack
                w = np.full((subs.shape[0], k), np.nan)
                for i in range(subs.shape[0]):
                    try:
                        w[i] = np.linalg.solve(a[i], ones[i])[:, 0]
                    except np.linalg.LinAlgError:
                        pass
            resid = np.abs(np.einsum("bij,bj->bi", a, w) - 1.0).max(axis=1)
            ok = (resid <= tol) & (w.min(axis=1) >= -tol)
            if ok.any():
                best = max(best, float(w[ok].sum(axis=1).max()))
    return best


def _build(workload: str, rng, i: int) -> Case:
    """Input ``i`` of a pool, without its reference."""
    if workload == "graph-sweep":
        z = maxdiv.SimilarityMatrix(banded_graph(rng, GRAPH_N, GRAPH_EDGES, GRAPH_SINGULAR))
        return Case(z, lambda: maxdiv.maximize(z))
    if workload == "lattice-oracle":
        z = maxdiv.SimilarityMatrix(dense_symmetric(rng, LATTICE_N))
        spec = maxdiv.GridSpec(LATTICE_N, LATTICE_M)
        return Case(z, lambda: maxdiv.grid_max_multi(z, LATTICE_ORDERS, spec))
    if workload == "dense-sweep":
        values = dense_symmetric(rng, DENSE_N)
    elif workload == "fastpath-large":
        values = (ultrametric if i % 2 == 0 else diagonally_dominant)(rng, FAST_N)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    z = maxdiv.SimilarityMatrix(values)
    return Case(z, lambda: maxdiv.maximize(z))


def _reference(workload: str, case: Case) -> dict:
    z = case.z
    if workload == "dense-sweep":
        return {"dmax": sweep_dmax(z.values)}
    if workload == "graph-sweep":
        edges = [(i, j) for i, j in itertools.combinations(range(z.n), 2) if z.values[i, j] == 1.0]
        return {"dmax": float(maxdiv.independence_number(maxdiv.ReflexiveGraph(z.n, edges)))}
    if workload == "fastpath-large":
        # ultrametric and strictly diagonally dominant matrices are positive
        # definite, so the full set wins with the solution of Z w = 1
        w = np.linalg.solve(z.values, np.ones(z.n))
        return {"dmax": float(w.sum()), "p": w / w.sum()}
    uni = maxdiv.uniform(z.n)
    return {
        "dmax": maxdiv.maximize(z).dmax,
        "uniform": [maxdiv.diversity(z, uni, q) for q in LATTICE_ORDERS],
    }


def make_pool(workload: str, seed: int, size: int = POOL) -> list[Case]:
    """The run's inputs, each with its reference answer."""
    rng = _rng(workload, seed)
    pool = [_build(workload, rng, i) for i in range(size)]
    for case in pool:
        case.ref = _reference(workload, case)
    return pool


def first_operation(workload: str, seed: int) -> Callable[[], Any]:
    """The operation on the pool's first input: what a set-up probe runs as
    its warm-up."""
    return _build(workload, _rng(workload, seed), 0).op
