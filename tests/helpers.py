"""Shared fixtures-in-code: canonical matrices and random instance makers."""

from itertools import combinations

import numpy as np

from maxdiv import (
    Distribution,
    FiniteMetric,
    ReflexiveGraph,
    SimilarityMatrix,
    find_nonnegative_weighting,
    normalize_weighting,
    solve_weighting_space,
)
from maxdiv.kernels import UNIQUE_NONNEG, UNRELIABLE, UNRESOLVED, _classify_group, _subset_groups
from maxdiv.linalg import TIE_RTOL
from maxdiv.maximize import FeasibleSubset

# Three-species community (one newt, two similar frogs).  The unique
# weighting is (55/79, 30/79, 30/79), giving magnitude 115/79 and the
# maximizing distribution (11/23, 6/23, 6/23) ~ (0.478, 0.261, 0.261).
THREE_SPECIES = np.array([
    [1.0, 0.4, 0.4],
    [0.4, 1.0, 0.9],
    [0.4, 0.9, 1.0],
])
THREE_SPECIES_WEIGHTING = np.array([55 / 79, 30 / 79, 30 / 79])
THREE_SPECIES_MAGNITUDE = 115 / 79
THREE_SPECIES_MAXIMIZER = np.array([11 / 23, 6 / 23, 6 / 23])

# Two genera in one family plus a second family with one genus:
# 1 on the diagonal, 0.8 within a genus, 0.5 within a family, 0 otherwise.
TAXONOMIC = np.array([
    [1.0, 0.8, 0.5, 0.0, 0.0],
    [0.8, 1.0, 0.5, 0.0, 0.0],
    [0.5, 0.5, 1.0, 0.0, 0.0],
    [0.0, 0.0, 0.0, 1.0, 0.8],
    [0.0, 0.0, 0.0, 0.8, 1.0],
])

# Upper-triangular counterexample: no symmetric theory applies.
NONSYM = np.array([[1.0, 0.5], [0.0, 1.0]])

ALL_ONES_2 = np.array([[1.0, 1.0], [1.0, 1.0]])


def path_graph(n):
    return ReflexiveGraph(n, [(i, i + 1) for i in range(n - 1)])


def complete_graph(n):
    return ReflexiveGraph(n, combinations(range(n), 2))


def path_adjacency(n):
    from maxdiv import adjacency_matrix

    return adjacency_matrix(path_graph(n))


def random_symmetric(rng, n, lo=0.0, hi=1.0, unit_diag=True):
    a = rng.uniform(lo, hi, size=(n, n))
    z = (a + a.T) / 2.0
    if unit_diag:
        np.fill_diagonal(z, 1.0)
    else:
        np.fill_diagonal(z, rng.uniform(max(lo, 0.1), hi + 0.5, size=n))
    return SimilarityMatrix(z)


def random_distribution(rng, n, zero_prob=0.3):
    p = rng.uniform(0.0, 1.0, size=n)
    mask = rng.uniform(size=n) < zero_prob
    if mask.all():
        mask[rng.integers(n)] = False
    p[mask] = 0.0
    return Distribution(p / p.sum())


def random_ultrametric(rng, n, min_gap=0.02):
    """Random ultrametric similarity matrix via agglomerative merges at n - 1
    decreasing similarity levels in (0.05, 0.95), adjacent levels at least
    ``min_gap`` apart."""
    slack = 0.9 - (n - 2) * min_gap
    if slack <= 0:
        raise ValueError(f"{n - 1} levels {min_gap} apart do not fit in (0.05, 0.95)")
    # sorted uniform draws on (0, slack), the i-th shifted up by i gaps: the
    # same law as rejection sampling on the gaps, in one draw
    levels = 0.05 + np.sort(rng.uniform(0.0, slack, size=n - 1)) + min_gap * np.arange(n - 1)
    z = np.eye(n)
    clusters = [[i] for i in range(n)]
    for level in levels[::-1]:
        a, b = sorted(rng.choice(len(clusters), size=2, replace=False))
        ia, ib = np.array(clusters[a]), np.array(clusters[b])
        z[np.ix_(ia, ib)] = level
        z[np.ix_(ib, ia)] = level
        clusters[a] += clusters.pop(b)
    return SimilarityMatrix(z)


def random_sdd(rng, n):
    """Random strictly diagonally dominant similarity matrix, unit diagonal."""
    a = rng.uniform(0.0, 1.0, size=(n, n))
    off = (a + a.T) / 2.0
    np.fill_diagonal(off, 0.0)
    worst = off.sum(axis=1).max()
    if worst > 0:
        off *= rng.uniform(0.2, 0.95) / worst
    return SimilarityMatrix(off + np.eye(n))


def random_psd(rng, n):
    """Random positive semidefinite matrix with nonnegative entries and
    positive diagonal (Gram matrix of nonnegative vectors)."""
    k = int(rng.integers(1, n + 1))
    g = rng.uniform(0.05, 1.0, size=(k, n))
    return SimilarityMatrix(g.T @ g)


def random_duplicated_psd(rng, n):
    """Random singular-but-consistent PSD matrix: a strictly diagonally
    dominant base with some species duplicated, so the weighting space has a
    nontrivial kernel but Z w = 1 stays solvable."""
    k = int(rng.integers(1, n))
    base = random_sdd(rng, k).values
    assignment = np.concatenate([np.arange(k), rng.integers(0, k, size=n - k)])
    rng.shuffle(assignment)
    return SimilarityMatrix(base[np.ix_(assignment, assignment)])


def near_duplicate_gram(rng, n):
    """Gram matrix of nonnegative vectors in which species copy others up to
    a relative perturbation below 1e-9: the copies' rows are tight within
    SOLVE_TOL, so many singular subsets sit at the edge of the row
    reduction's tolerances."""
    g = rng.uniform(0.05, 1.0, size=(int(rng.integers(1, n)), n))
    g = g[:, rng.integers(0, n, size=n)] * (1.0 + rng.uniform(-1e-9, 1e-9, size=n))
    return SimilarityMatrix(g.T @ g)


def zero_weight_duplicates(rng):
    """A unit-diagonal matrix on 5 to 7 species whose first four are
    ``[[1, 0, a, a], [0, 1, 1-a, 1-a], [a, 1-a, 1, 1], [a, 1-a, 1, 1]]``
    and whose other entries are uniform.  Species 3 copies species 2, and
    the weighting (1, 1) of {0, 1} makes both their rows tight, so where
    {0, 1} wins, {0, 1, 2}, {0, 1, 3} and {0, 1, 2, 3} tie with it and weight
    the copies by zero."""
    n = 4 + int(rng.integers(1, 4))
    a = rng.uniform(0.05, 0.95)
    u = rng.uniform(size=(n, n))
    z = (u + u.T) / 2.0
    z[:4, :4] = [[1.0, 0.0, a, a], [0.0, 1.0, 1.0 - a, 1.0 - a], [a, 1.0 - a, 1.0, 1.0], [a, 1.0 - a, 1.0, 1.0]]
    z[3, 4:] = z[2, 4:]
    z[4:, 3] = z[4:, 2]
    np.fill_diagonal(z, 1.0)
    return SimilarityMatrix(z)


def random_graph(rng, n, edge_prob=0.4):
    edges = [
        (i, j)
        for i in range(n)
        for j in range(i + 1, n)
        if rng.uniform() < edge_prob
    ]
    return ReflexiveGraph(n, edges)


def from_points(points):
    """Euclidean distance matrix of a point array (rows = points)."""
    pts = np.asarray(points, dtype=np.float64)
    diff = pts[:, None, :] - pts[None, :, :]
    return FiniteMetric(np.sqrt((diff**2).sum(axis=2)))


def random_planar_metric(rng, n, box=3.0):
    return from_points(rng.uniform(0.0, box, size=(n, 2)))


def mask_indices(mask, n):
    return tuple(i for i in range(n) if (mask >> i) & 1)


def scan_every_subset(z):
    """``scan_subsets`` without its column-sum bound: every mask is
    eliminated and classified, so no status is ``DOMINATED``."""
    z = np.ascontiguousarray(z, dtype=np.float64)
    total = (1 << z.shape[0]) - 1
    status = np.empty(total, np.int8)
    mags = np.empty(total)
    for masks, members, _ in _subset_groups(z.shape[0]):
        status[masks - 1], mags[masks - 1] = _classify_group(z, members)
    return status, mags


def unpruned_reference(z):
    """The subset sweep with no column-sum bound, every mask classified by
    :func:`scan_every_subset`, and every mask it leaves unsettled
    (UNRESOLVED or UNRELIABLE) sent through the row reduction and the
    phase-1 LP: ``(dmax, winners, unique, sample maximizer)``.  ``dmax`` is
    the largest magnitude of a nonsingular winner, and the maximizer is
    unique when the winners' normalized weightings agree within 1e-9; a
    singular winner carries its own phase-1 LP point, not a tying subset's
    weighting, so this checks the sweep's verdict independently."""
    status, mags = scan_every_subset(z.values)
    mags = np.where(status == UNIQUE_NONNEG, mags, np.nan)
    for mask in np.flatnonzero((status == UNRESOLVED) | (status == UNRELIABLE)) + 1:
        ws = solve_weighting_space(z, mask_indices(int(mask), z.n))
        if find_nonnegative_weighting(ws) is not None:
            mags[mask - 1] = ws.magnitude
    dmax0 = float(np.nanmax(mags))
    with np.errstate(invalid="ignore"):
        tying = np.flatnonzero(mags >= dmax0 - TIE_RTOL * max(1.0, abs(dmax0))) + 1
    winners = []
    for mask in sorted(tying, key=lambda m: (bin(m).count("1"), mask_indices(int(m), z.n))):
        ws = solve_weighting_space(z, mask_indices(int(mask), z.n))
        w = find_nonnegative_weighting(ws)
        winners.append(FeasibleSubset(ws.subset, float(ws.magnitude), ws.with_nonnegative(w)))
    reps = {fs.indices: normalize_weighting(fs.weighting_space.nonnegative, fs.indices, z.n) for fs in winners}
    spread = np.ptp([p.probs for p in reps.values()], axis=0).max()
    dmax = max(fs.magnitude for fs in winners if fs.weighting_space.unique)
    return dmax, winners, bool(spread <= 1e-9), reps[min(reps)]


def assert_same_result(r, dmax, winners, unique, sample):
    """``r`` matches :func:`unpruned_reference`'s answer exactly."""
    assert r.dmax == dmax
    assert [fs.indices for fs in r.winners] == [fs.indices for fs in winners]
    assert r.unique == unique
    assert np.array_equal(r.sample_maximizer.probs, sample.probs)
