"""Acceptance suite: one test per shipping criterion, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``).

Stated tolerances and runtime limits are asserted as given.
"""

import itertools
import math
import time
from fractions import Fraction

import numpy as np
import pytest

import maxdiv as md
from maxdiv.kernels import compositions

from helpers import (
    NONSYM,
    THREE_SPECIES,
    path_adjacency,
    path_graph,
    random_distribution,
    random_duplicated_psd,
    random_graph,
    random_planar_metric,
    random_sdd,
    random_symmetric,
    random_ultrametric,
)

QS_C3 = (0.0, 0.5, 1.0, 2.0, 8.0, math.inf)


def _crit(num, name, ok, detail=""):
    line = f"[ACCEPTANCE {num:02d}] {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def random200():
    rng = np.random.default_rng(2026)
    return [random_symmetric(rng, int(rng.integers(2, 7))) for _ in range(200)]


def test_c01_three_species_reproduction():
    t0 = time.perf_counter()
    z = md.SimilarityMatrix(THREE_SPECIES)
    result = md.maximize(z)
    point_ok = (
        result.unique is True
        and result.sample_maximizer.full_support()
        and np.abs(result.sample_maximizer.probs - np.array([0.478, 0.261, 0.261])).max() <= 5e-4
    )
    prof = md.diversity_profile(z, result.sample_maximizer, (0.0, 0.5, 1.0, 2.0, math.inf))
    elapsed = time.perf_counter() - t0
    _crit(
        1,
        "three-species maximizer (0.478, 0.261, 0.261), constant profile",
        point_ok and prof.spread() <= 1e-6 and elapsed < 1.0,
        f"spread {prof.spread():.1e}, {elapsed:.3f}s",
    )


def test_c02_graph_identities():
    t0 = time.perf_counter()
    ok = True
    # the two paths, then 50 random reflexive graphs
    r3 = md.maximize_exhaustive(path_adjacency(3))
    ok &= np.array_equal(r3.sample_maximizer.probs, [0.5, 0.0, 0.5])
    ok &= [f.indices for f in r3.winners] == [(0, 2)]
    r4 = md.maximize_exhaustive(path_adjacency(4))
    supports = {f.indices for f in r4.winners}
    ok &= {(0, 2), (0, 3), (1, 3)} <= supports
    ok &= any(f.weighting_space.nullspace.shape[0] >= 1 for f in r4.winners)
    graphs = [path_graph(3), path_graph(4)]
    rng = np.random.default_rng(82)
    graphs += [
        random_graph(rng, int(rng.integers(2, 9)), edge_prob=rng.uniform(0.1, 0.9))
        for _ in range(50)
    ]
    for g in graphs:
        alpha = md.independence_number(g)
        dmax = md.maximize_exhaustive(md.adjacency_matrix(g)).dmax
        ok &= round(dmax) == alpha and abs(dmax - alpha) <= 1e-9
    elapsed = time.perf_counter() - t0
    _crit(2, "graph maximum diversity equals independence number", ok and elapsed < 10.0, f"{elapsed:.2f}s")


def test_c03_main_theorem_at_desk_scale(random200):
    t0 = time.perf_counter()
    worst_spread = 0.0
    ok = True
    for z in random200:
        result = md.maximize_exhaustive(z)
        vals = [md.diversity(z, result.sample_maximizer, q) for q in QS_C3]
        worst_spread = max(worst_spread, max(vals) - min(vals))
        ok &= max(vals) - min(vals) < 1e-7
        grid = md.grid_max_multi(z, QS_C3, md.GridSpec(z.n, 40))
        for v, g in zip(vals, grid):
            ok &= v > g.value - 1e-3
    elapsed = time.perf_counter() - t0
    _crit(
        3,
        "maximizer value constant in q and above the order-wise lattice max",
        ok and elapsed < 120.0,
        f"worst spread {worst_spread:.1e}, {elapsed:.1f}s",
    )


def test_c04_order_irrelevance(random200):
    worst_gap = 0.0
    ok = True
    for z in random200:
        dmax = md.maximize_exhaustive(z).dmax
        start = md.grid_max(z, 2.0, md.GridSpec(z.n, 40)).point
        polished = md.refine(z, 2.0, start)
        for q in (1.0, math.inf):
            gap = dmax - md.diversity(z, polished, q)
            worst_gap = max(worst_gap, gap)
            ok &= gap <= 1e-6
    # order zero does not suffice: (3/4, 1/4) attains richness 2 = dmax for
    # the naive two-species model yet fails at order 1
    z2 = md.SimilarityMatrix(np.eye(2))
    skew = md.Distribution([0.75, 0.25])
    counter = (
        md.diversity(z2, skew, 0.0) == pytest.approx(2.0, abs=1e-12)
        and md.maximize_exhaustive(z2).dmax == pytest.approx(2.0, abs=1e-12)
        and md.diversity(z2, skew, 1.0) < 2.0
    )
    _crit(
        4,
        "an order-2 maximizer maximizes orders 1 and infinity as well",
        ok and counter,
        f"worst gap {worst_gap:.1e}",
    )


def test_c05_fast_path_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(5150)
    ok = True
    for i in range(200):
        n = int(rng.integers(2, 11))
        z = random_ultrametric(rng, n) if i < 100 else random_sdd(rng, n)
        fast = md.maximize_fast_path(z)
        slow = md.maximize_exhaustive(z)
        ok &= fast is not None
        ok &= abs(fast.dmax - slow.dmax) <= 1e-9
        ok &= [f.indices for f in fast.winners] == [f.indices for f in slow.winners]
        ok &= fast.unique is True and fast.sample_maximizer.full_support()
        ok &= md.is_positive_definite(z)
    elapsed = time.perf_counter() - t0
    _crit(
        5,
        "ultrametric / diagonally dominant fast path agrees with the sweep",
        ok and elapsed < 60.0,
        f"{elapsed:.2f}s",
    )


def test_c06_nonsymmetric_regression():
    z = md.SimilarityMatrix(NONSYM)
    ok = True
    for p1 in (0.1, 0.25, 0.5, 0.75, 0.9):
        p = md.Distribution([p1, 1.0 - p1])
        expected = 2.0 / (3.0 * (p1 - 0.5) ** 2 + 1.25)
        ok &= abs(md.diversity(z, p, 2.0) - expected) <= 1e-12
    for q, sup in ((0.0, 2.0), (2.0, 1.6), (math.inf, 1.5)):
        best = md.grid_max(z, q, md.GridSpec(2, 60)).value
        ok &= abs(best - sup) <= 2e-2
    rejected = False
    try:
        md.maximize_exhaustive(z)
    except md.PreconditionError:
        rejected = True
    _crit(6, "triangular-matrix diversity formulas and rejection", ok and rejected)


def test_c07_species_preservation_diagnostics():
    d = md.full_support_diagnostics(md.SimilarityMatrix(np.eye(6)))
    ok = (d.exists_full_support_maximizer, d.all_maximizers_full_support) == (True, True)
    d = md.full_support_diagnostics(md.SimilarityMatrix([[1.0, 1.0], [1.0, 1.0]]))
    ok &= (d.exists_full_support_maximizer, d.all_maximizers_full_support) == (True, False)
    d = md.full_support_diagnostics(path_adjacency(3))
    ok &= (d.exists_full_support_maximizer, d.all_maximizers_full_support) == (False, False)
    rng = np.random.default_rng(1013)
    for trial in range(100):
        n = int(rng.integers(2, 7))
        if trial % 3 == 0:
            z = random_symmetric(rng, n)
        elif trial % 3 == 1:
            z = random_duplicated_psd(rng, n)
        else:
            z = random_ultrametric(rng, n)
        result = md.maximize_exhaustive(z)
        scan = _winner_scan_full_support(z, result)
        ok &= md.full_support_diagnostics(z).exists_full_support_maximizer == scan
    _crit(7, "full-support diagnostics match a direct winner scan", ok)


def _winner_scan_full_support(z, result):
    for fs in result.winners:
        if fs.indices != tuple(range(z.n)):
            continue
        if fs.weighting_space.unique:
            return bool(fs.weighting_space.nonnegative.min() > 0)
        return md.find_positive_weighting(z, fs.indices) is not None
    return False


def test_c08_clique_capacity():
    rng = np.random.default_rng(85)
    ok = True
    for _ in range(100):
        n = int(rng.integers(2, 6))
        x = random_graph(rng, n, edge_prob=rng.uniform(0.0, 1.0)).complement()
        res = md.clique_capacity(x)
        omega = md.clique_number(x)
        # an independent lattice search over the simplex, m = 40
        adj = np.zeros((n, n))
        for i, j in x.edges:
            adj[i, j] = adj[j, i] = 1.0
        grid = compositions(n, 40).T / 40.0
        best = float(np.einsum("ki,ij,kj->k", grid, adj, grid).max()) if x.edges else 0.0
        ok &= abs(best - (1.0 - 1.0 / omega)) <= 1e-3
        # the uniform-on-clique witness attains the capacity exactly
        # (checked in rational arithmetic)
        w = Fraction(1, omega)
        quad = sum(
            w * w
            for i, j in itertools.product(res.clique, res.clique)
            if i != j and (min(i, j), max(i, j)) in x.edges
        )
        ok &= quad == 1 - Fraction(1, omega)
    _crit(8, "clique capacity equals 1 - 1/omega with exact witness", ok)


def test_c09_epsilon_entropy_sandwich():
    rng = np.random.default_rng(84)
    ok = True
    for _ in range(100):
        metric = random_planar_metric(rng, int(rng.integers(2, 9)))
        for eps in (0.5, 1.0, 2.0):
            res = md.epsilon_entropy_bounds(metric, eps)
            ok &= res.covering_number <= res.dmax_of_threshold <= res.covering_number_half
    _crit(9, "covering numbers sandwich the thresholded maximum diversity", ok)


def test_c10_invariant_suites():
    rng = np.random.default_rng(1618)
    monotone = absent = effective = bounded = True
    # profile monotonicity, and 1 <= D <= n under unit-diagonal hypotheses
    for _ in range(500):
        n = int(rng.integers(1, 7))
        z = random_symmetric(rng, n)
        p = random_distribution(rng, n)
        prof = md.diversity_profile(z, p, md.DEFAULT_ORDERS)
        vals = prof.values
        monotone &= all(b <= a + 1e-9 for a, b in zip(vals, vals[1:]))
        bounded &= all(1.0 - 1e-12 <= v <= n + 1e-12 for v in vals)
    # absent species: dropping zero-abundance species is arithmetic identity
    for _ in range(500):
        n = int(rng.integers(2, 7))
        z = random_symmetric(rng, n)
        p = random_distribution(rng, n, zero_prob=0.5)
        subset = sorted(set(p.support) | {i for i in range(n) if rng.uniform() < 0.3})
        zb = md.SimilarityMatrix(z.sub(subset))
        pb = md.restrict(p, subset)
        for q in QS_C3:
            absent &= md.diversity(zb, pb, q) == md.diversity(z, p, q)
    # effective numbers: naive model at the uniform distribution scores n
    for _ in range(500):
        n = int(rng.integers(1, 31))
        q = rng.choice([0.0, 0.5, 1.0, 2.0, rng.uniform(0.0, 20.0), math.inf])
        d = md.diversity(md.SimilarityMatrix(np.eye(n)), md.uniform(n), q)
        effective &= abs(d - n) <= 1e-12 * n
    _crit(
        10,
        "monotone profiles, absent-species identity, effective numbers, bounds",
        monotone and absent and effective and bounded,
    )
