"""Graph and finite-metric applications of maximum diversity, for graphs
given by an edge list and finite metrics given by a distance matrix.

A reflexive graph (loop on every vertex) is exactly a 0/1 similarity matrix
with unit diagonal; its maximum diversity equals its independence number.
Complementation swaps reflexive and loop-free graphs, turning independence
into cliques, which gives the quadratic-form capacity result.  Thresholding
a finite metric at distance eps gives the covering-number sandwich.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .diversity import Distribution
from .errors import InputError, NumericalError, PreconditionError
from .linalg import SimilarityMatrix, _check_integer

# Largest graph the independent-set search accepts.
GRAPH_CAP = 30
# Largest metric the covering search accepts: it is brute-force set cover.
METRIC_CAP = 20

_METRIC_TOL = 1e-12


def _init_graph(g, n, edges, kind):
    """Validate the vertex count and edges of a ``kind`` graph and set them
    on ``g``: the constructor of both graph classes."""
    n = _check_integer(n, "vertex count")
    if n < 1:
        raise InputError("graph needs at least one vertex")
    out = set()
    for e in edges:
        try:
            i, j = e
        except (TypeError, ValueError):
            raise InputError(f"edge {e!r} is not a pair of vertices") from None
        i, j = _check_integer(i, "vertex"), _check_integer(j, "vertex")
        if not (0 <= i < n and 0 <= j < n):
            raise InputError(f"edge ({i}, {j}) out of range for n={n}")
        if i == j:
            raise InputError(
                f"edge ({i}, {i}) is a loop; loops are implicit in a {kind} graph"
            )
        out.add((min(i, j), max(i, j)))
    object.__setattr__(g, "n", n)
    object.__setattr__(g, "edges", frozenset(out))


def _missing_edges(g):
    # the vertex pairs that are not edges of g: the edges of its complement
    return [(i, j) for i, j in combinations(range(g.n), 2) if (i, j) not in g.edges]


@dataclass(frozen=True)
class ReflexiveGraph:
    """Undirected graph with an implicit loop on every vertex; ``edges``
    holds the non-loop adjacencies as 0-based sorted pairs."""

    n: int
    edges: frozenset

    def __init__(self, n: int, edges=()):
        _init_graph(self, n, edges, "reflexive")

    def complement(self) -> "IrreflexiveGraph":
        return IrreflexiveGraph(self.n, _missing_edges(self))


@dataclass(frozen=True)
class IrreflexiveGraph:
    """Loop-free undirected graph."""

    n: int
    edges: frozenset

    def __init__(self, n: int, edges=()):
        _init_graph(self, n, edges, "loop-free")

    def complement(self) -> ReflexiveGraph:
        return ReflexiveGraph(self.n, _missing_edges(self))


def adjacency_matrix(g: ReflexiveGraph) -> SimilarityMatrix:
    """0/1 similarity matrix of a reflexive graph (unit diagonal)."""
    a = np.eye(g.n)
    for i, j in g.edges:
        a[i, j] = a[j, i] = 1.0
    return SimilarityMatrix(a)


def _adjacency_sets(g) -> list[set]:
    adj = [set() for _ in range(g.n)]
    for i, j in g.edges:
        adj[i].add(j)
        adj[j].add(i)
    return adj


def _degeneracy_order(n, adj):
    degs = [len(a) for a in adj]
    remaining = set(range(n))
    order = []
    while remaining:
        v = min(remaining, key=lambda u: (degs[u], u))
        order.append(v)
        remaining.remove(v)
        for u in adj[v] & remaining:
            degs[u] -= 1
    return order


def maximum_independent_set(g: ReflexiveGraph) -> tuple[int, ...]:
    """A maximum independent set, by branch and bound over the degeneracy
    order, for at most ``GRAPH_CAP`` vertices.  Exact; independent of the
    subset-sweep maximizer so the two can cross-validate."""
    if g.n > GRAPH_CAP:
        raise PreconditionError(f"graph size {g.n} exceeds the cap {GRAPH_CAP}")
    adj = _adjacency_sets(g)
    order = _degeneracy_order(g.n, adj)
    best: list[int] = []

    def expand(current: list[int], cands: list[int]):
        nonlocal best
        if len(current) + len(cands) <= len(best):
            return
        if not cands:
            best = list(current)
            return
        v = cands[0]
        rest = cands[1:]
        current.append(v)
        expand(current, [u for u in rest if u not in adj[v]])
        current.pop()
        expand(current, rest)

    expand([], order)
    return tuple(sorted(best))


def independence_number(g: ReflexiveGraph) -> int:
    return len(maximum_independent_set(g))


def maximum_clique(x: IrreflexiveGraph) -> tuple[int, ...]:
    if x.n > GRAPH_CAP:  # before the complement lists every non-edge
        raise PreconditionError(f"graph size {x.n} exceeds the cap {GRAPH_CAP}")
    return maximum_independent_set(x.complement())


def clique_number(x: IrreflexiveGraph) -> int:
    return len(maximum_clique(x))


@dataclass(frozen=True)
class CliqueCapacityResult:
    value: float
    witness: Distribution
    clique: tuple[int, ...]


def clique_capacity(x: IrreflexiveGraph) -> CliqueCapacityResult:
    """Supremum over distributions of the adjacency quadratic form
    ``sum over ordered adjacent pairs of p_i p_j``, which equals
    ``1 - 1/clique_number``; the uniform distribution on a maximum clique
    attains it."""
    clique = maximum_clique(x)
    omega = len(clique)
    probs = np.zeros(x.n)
    probs[list(clique)] = 1.0 / omega
    return CliqueCapacityResult(1.0 - 1.0 / omega, Distribution(probs), clique)


@dataclass(frozen=True)
class FiniteMetric:
    """Finite metric space given by its distance matrix (validated:
    symmetric, zero diagonal, triangle inequality within 1e-12)."""

    dist: np.ndarray

    def __init__(self, dist):
        d = np.array(dist, dtype=np.float64)
        if d.ndim != 2 or d.shape[0] != d.shape[1] or d.shape[0] < 1:
            raise InputError(f"distance matrix must be square, got shape {d.shape}")
        if not np.isfinite(d).all():
            raise InputError("distances must be finite")
        if (d < 0).any():
            raise InputError("distances must be nonnegative")
        if np.abs(d.diagonal()).max() > _METRIC_TOL:
            raise InputError("distance matrix must have zero diagonal")
        if np.abs(d - d.T).max() > _METRIC_TOL:
            raise InputError("distance matrix must be symmetric")
        d = (d + d.T) / 2.0
        np.fill_diagonal(d, 0.0)
        for j in range(d.shape[0]):
            # d(i,k) <= d(i,j) + d(j,k) for all i, k
            if ((d[:, j][:, None] + d[j][None, :]) - d).min() < -_METRIC_TOL:
                raise InputError(f"triangle inequality fails through point {j + 1}")
        d.setflags(write=False)
        object.__setattr__(self, "dist", d)

    @property
    def n(self) -> int:
        return self.dist.shape[0]


def _check_eps(eps) -> None:
    if not (isinstance(eps, numbers.Real) and eps > 0):  # also refuses NaN
        raise InputError("eps must be positive")


def threshold_graph(metric: FiniteMetric, eps: float) -> ReflexiveGraph:
    """Reflexive graph joining points at distance <= eps."""
    _check_eps(eps)
    d = metric.dist
    edges = [(i, j) for i, j in combinations(range(metric.n), 2) if d[i, j] <= eps]
    return ReflexiveGraph(metric.n, edges)


def check_covering_size(n: int) -> None:
    """Refuse a covering search over more than ``METRIC_CAP`` points."""
    if n > METRIC_CAP:
        raise PreconditionError(f"metric size {n} exceeds the covering cap {METRIC_CAP}")


def covering_number(metric: FiniteMetric, eps: float) -> int:
    """Fewest closed eps-balls covering the space, by brute-force set cover
    over at most ``METRIC_CAP`` points."""
    _check_eps(eps)
    n = metric.n
    check_covering_size(n)
    balls = [sum(1 << j for j in range(n) if metric.dist[i, j] <= eps) for i in range(n)]
    full = (1 << n) - 1
    for k in range(1, n + 1):
        for centers in combinations(range(n), k):
            acc = 0
            for c in centers:
                acc |= balls[c]
            if acc == full:
                return k
    return n  # unreachable: every point covers itself


@dataclass(frozen=True)
class EpsilonEntropyBounds:
    covering_number: int
    covering_number_half: int
    dmax_of_threshold: float


def epsilon_entropy_bounds(metric: FiniteMetric, eps: float) -> EpsilonEntropyBounds:
    """Covering numbers at eps and eps/2 sandwiching the maximum diversity of
    the thresholded similarity matrix."""
    n_eps = covering_number(metric, eps)
    n_half = covering_number(metric, eps / 2.0)
    dmax = float(independence_number(threshold_graph(metric, eps)))
    if not n_eps <= dmax <= n_half:
        raise NumericalError(
            f"covering sandwich violated: N(eps)={n_eps}, Dmax={dmax}, N(eps/2)={n_half}"
        )
    return EpsilonEntropyBounds(n_eps, n_half, dmax)
