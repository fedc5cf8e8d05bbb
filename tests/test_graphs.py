import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from maxdiv import (
    FiniteMetric,
    InputError,
    IrreflexiveGraph,
    PreconditionError,
    ReflexiveGraph,
    adjacency_matrix,
    clique_capacity,
    clique_number,
    covering_number,
    diversity,
    epsilon_entropy_bounds,
    extend_by_zero,
    independence_number,
    maximize_exhaustive,
    maximum_clique,
    maximum_independent_set,
    uniform,
)
from maxdiv.graphs import GRAPH_CAP, METRIC_CAP, threshold_graph

from helpers import complete_graph, from_points, path_graph, random_graph, random_planar_metric


def _alpha_bruteforce(g):
    """Independent oracle: check every vertex subset."""
    adj = {(i, j) for i, j in g.edges} | {(j, i) for i, j in g.edges}
    best = 0
    for r in range(g.n, 0, -1):
        for sub in itertools.combinations(range(g.n), r):
            if all((a, b) not in adj for a, b in itertools.combinations(sub, 2)):
                return r
    return best


class TestGraphTypes:
    def test_validation(self):
        with pytest.raises(InputError):
            ReflexiveGraph(3, [(0, 3)])
        with pytest.raises(InputError):
            ReflexiveGraph(3, [(1, 1)])
        with pytest.raises(InputError):
            IrreflexiveGraph(2, [(0, 0)])

    def test_complement_round_trip(self):
        g = path_graph(4)
        assert g.complement().complement() == g
        x = IrreflexiveGraph(3, [(0, 1)])
        assert x.complement().edges == frozenset({(0, 2), (1, 2)})


class TestAdjacency:
    def test_edgeless_is_identity(self):
        z = adjacency_matrix(ReflexiveGraph(4))
        assert np.array_equal(z.values, np.eye(4))

    def test_three_path_rows(self):
        z = adjacency_matrix(path_graph(3))
        assert np.array_equal(z.values, [[1, 1, 0], [1, 1, 1], [0, 1, 1]])

    def test_complete_graph_all_ones(self):
        z = adjacency_matrix(complete_graph(3))
        assert np.array_equal(z.values, np.ones((3, 3)))


class TestIndependence:
    def test_paths_and_cliques(self):
        assert independence_number(path_graph(3)) == 2
        assert independence_number(path_graph(4)) == 2
        assert maximum_independent_set(path_graph(3)) == (0, 2)
        for n in (1, 2, 5):
            assert independence_number(complete_graph(n)) == 1
        assert independence_number(ReflexiveGraph(6)) == 6

    def test_cap(self):
        assert independence_number(ReflexiveGraph(GRAPH_CAP)) == GRAPH_CAP
        with pytest.raises(PreconditionError):
            independence_number(ReflexiveGraph(GRAPH_CAP + 1))

    def test_branch_and_bound_vs_subset_oracle(self):
        rng = np.random.default_rng(107)
        for _ in range(40):
            g = random_graph(rng, int(rng.integers(1, 9)), edge_prob=rng.uniform(0.1, 0.8))
            assert independence_number(g) == _alpha_bruteforce(g)

    def test_alpha_equals_maximum_diversity(self):
        rng = np.random.default_rng(109)
        for _ in range(50):
            g = random_graph(rng, int(rng.integers(2, 9)), edge_prob=rng.uniform(0.1, 0.8))
            alpha = independence_number(g)
            dmax = maximize_exhaustive(adjacency_matrix(g)).dmax
            assert abs(dmax - alpha) <= 1e-9
            assert round(dmax) == alpha

    def test_uniform_on_independent_set_attains_order_inf(self):
        rng = np.random.default_rng(113)
        for _ in range(30):
            g = random_graph(rng, int(rng.integers(2, 9)))
            z = adjacency_matrix(g)
            mis = maximum_independent_set(g)
            p = extend_by_zero(uniform(len(mis)), mis, g.n)
            assert diversity(z, p, math.inf) == pytest.approx(len(mis), rel=1e-12)


class TestCliqueCapacity:
    def test_single_edge(self):
        res = clique_capacity(IrreflexiveGraph(2, [(0, 1)]))
        assert res.value == pytest.approx(0.5, abs=1e-15)
        assert np.array_equal(res.witness.probs, [0.5, 0.5])

    def test_edgeless(self):
        res = clique_capacity(IrreflexiveGraph(3))
        assert res.value == 0.0
        assert len(res.clique) == 1

    def test_triangle_against_grid_oracle(self):
        x = IrreflexiveGraph(3, [(0, 1), (0, 2), (1, 2)])
        res = clique_capacity(x)
        assert res.value == pytest.approx(2 / 3, abs=1e-15)
        assert np.abs(res.witness.probs - 1 / 3).max() <= 1e-15
        # oracle: direct lattice search over the simplex
        assert _capacity_grid_oracle(x, 60) <= res.value + 1e-9
        assert _capacity_grid_oracle(x, 60) >= res.value - 1e-3

    def test_witness_attains_capacity_exactly(self):
        rng = np.random.default_rng(127)
        for _ in range(40):
            n = int(rng.integers(2, 6))
            x = random_graph(rng, n, edge_prob=rng.uniform(0.2, 0.9)).complement()
            res = clique_capacity(x)
            omega = clique_number(x)
            # exact rational arithmetic: uniform on a maximum clique scores
            # exactly 1 - 1/omega
            w = Fraction(1, omega)
            quad = sum(
                w * w
                for i, j in itertools.product(res.clique, res.clique)
                if i != j and (min(i, j), max(i, j)) in x.edges
            )
            assert quad == 1 - Fraction(1, omega)
            assert res.value == pytest.approx(float(quad), abs=1e-12)
            assert _capacity_grid_oracle(x, 24) <= res.value + 1e-9

    def test_clique_number_via_complement(self):
        x = IrreflexiveGraph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])  # 4-cycle
        assert clique_number(x) == 2
        assert set(maximum_clique(x)) in ({0, 1}, {1, 2}, {2, 3}, {0, 3})

    def test_cap_is_checked_before_the_complement(self, monkeypatch):
        def complement(self):
            raise AssertionError("complement built before the cap check")

        monkeypatch.setattr(IrreflexiveGraph, "complement", complement)
        x = IrreflexiveGraph(GRAPH_CAP + 1, [(0, 1)])
        for search in (maximum_clique, clique_number, clique_capacity):
            with pytest.raises(PreconditionError, match=f"graph size {GRAPH_CAP + 1} exceeds the cap {GRAPH_CAP}"):
                search(x)


def _capacity_grid_oracle(x, m):
    """Lattice maximum of the ordered-pair adjacency quadratic form."""
    adj = np.zeros((x.n, x.n))
    for i, j in x.edges:
        adj[i, j] = adj[j, i] = 1.0
    best = 0.0
    for comp in itertools.product(range(m + 1), repeat=x.n - 1):
        if sum(comp) > m:
            continue
        p = np.array(list(comp) + [m - sum(comp)], dtype=float) / m
        best = max(best, float(p @ adj @ p))
    return best


class TestFiniteMetric:
    def test_validation(self):
        with pytest.raises(InputError):
            FiniteMetric([[0.0, 1.0], [0.9, 0.0]])  # asymmetric
        with pytest.raises(InputError):
            FiniteMetric([[0.1, 1.0], [1.0, 0.0]])  # nonzero diagonal
        with pytest.raises(InputError):
            FiniteMetric([[0, 1, 3], [1, 0, 1], [3, 1, 0]])  # triangle fails

    def test_from_points(self):
        m = from_points([[0.0, 0.0], [3.0, 4.0]])
        assert m.dist[0, 1] == pytest.approx(5.0)


class TestEpsilonEntropy:
    def test_two_points_far_apart(self):
        m = FiniteMetric([[0.0, 1.0], [1.0, 0.0]])
        res = epsilon_entropy_bounds(m, 2.0)
        assert (res.covering_number, res.dmax_of_threshold) == (1, 1.0)
        res = epsilon_entropy_bounds(m, 0.5)
        assert res.covering_number == 2
        assert res.dmax_of_threshold == 2.0

    def test_four_points_on_a_line(self):
        pts = [[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [3.0, 0.0]]
        m = from_points(pts)
        res = epsilon_entropy_bounds(m, 1.0)
        # threshold graph at eps=1 is the 4-path: independence number 2;
        # covers: balls at 1 and 3 (or 0 and 2) suffice at eps=1, singletons
        # at eps=0.5
        assert res.covering_number == 2
        assert res.dmax_of_threshold == 2.0
        assert res.covering_number_half == 4

    def test_threshold_graph_matches_alpha(self):
        pts = [[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [3.0, 0.0]]
        g = threshold_graph(from_points(pts), 1.0)
        assert g.edges == path_graph(4).edges

    def test_sandwich_on_random_planar_sets(self):
        rng = np.random.default_rng(131)
        for _ in range(60):
            m = random_planar_metric(rng, int(rng.integers(2, 9)))
            for eps in (0.5, 1.0, 2.0):
                res = epsilon_entropy_bounds(m, eps)
                assert res.covering_number <= res.dmax_of_threshold <= res.covering_number_half

    def test_covering_number_examples(self):
        m = FiniteMetric([[0.0, 1.0], [1.0, 0.0]])
        assert covering_number(m, 2.0) == 1
        assert covering_number(m, 0.5) == 2
        too_big = random_planar_metric(np.random.default_rng(0), METRIC_CAP + 1)
        with pytest.raises(PreconditionError):
            covering_number(too_big, 1.0)
        with pytest.raises(PreconditionError):
            epsilon_entropy_bounds(too_big, 1.0)

    def test_nan_epsilon_refused_and_infinite_epsilon_allowed(self):
        # NaN fails every distance comparison, so without the check every
        # ball would be empty and the count would fall through to n
        m = FiniteMetric([[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]])
        for fn in (covering_number, threshold_graph, epsilon_entropy_bounds):
            with pytest.raises(InputError):
                fn(m, math.nan)
        res = epsilon_entropy_bounds(m, math.inf)
        assert (res.covering_number, res.dmax_of_threshold, res.covering_number_half) == (1, 1.0, 1)


@pytest.mark.parametrize(
    "call",
    [
        lambda: ReflexiveGraph(0),
        lambda: FiniteMetric([[0.0, 1.0]]),
        lambda: FiniteMetric([[0.0, math.inf], [math.inf, 0.0]]),
        lambda: FiniteMetric([[0.0, -1.0], [-1.0, 0.0]]),
        lambda: ReflexiveGraph(3.7),
        lambda: ReflexiveGraph(3, [(0.5, 1)]),
        lambda: IrreflexiveGraph(3, [(0, "1")]),
        lambda: covering_number(FiniteMetric([[0.0]]), "1"),
        lambda: threshold_graph(FiniteMetric([[0.0]]), "1"),
        lambda: epsilon_entropy_bounds(FiniteMetric([[0.0]]), "1"),
        lambda: ReflexiveGraph(3, [(0, 1, 2)]),
        lambda: ReflexiveGraph(3, [5]),
        lambda: FiniteMetric([["x"]]),
        lambda: FiniteMetric([[0.0, 1.0], [1.0]]),
    ],
    ids=["no-vertex", "not-square", "infinite-distance", "negative-distance",
         "fractional-vertex-count", "fractional-vertex", "string-vertex",
         "string-covering-eps", "string-threshold-eps", "string-entropy-eps",
         "edge-of-three-vertices", "edge-not-a-pair", "string-distance", "ragged-distances"],
)
def test_invalid_input_is_refused(call):
    with pytest.raises(InputError):
        call()
