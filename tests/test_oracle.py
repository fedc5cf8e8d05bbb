import math
import warnings

import numpy as np
import pytest

from maxdiv import (
    Distribution,
    GridSpec,
    InputError,
    PreconditionError,
    SimilarityMatrix,
    diversity,
    grid_max,
    grid_max_multi,
    maximize_exhaustive,
    refine,
    uniform,
)
from maxdiv import oracle
from maxdiv.oracle import ORACLE_M_CAP, ORACLE_N_CAP

from helpers import (
    NONSYM,
    THREE_SPECIES,
    THREE_SPECIES_MAGNITUDE,
    THREE_SPECIES_MAXIMIZER,
    path_adjacency,
    random_symmetric,
)


class TestGridSpec:
    def test_size(self):
        assert GridSpec(2, 10).size() == 11
        assert GridSpec(3, 4).size() == 15
        with pytest.raises(InputError):
            GridSpec(0, 5)

    def test_caps(self):
        # one past either cap is refused when the grid is declared
        with pytest.raises(PreconditionError):
            GridSpec(ORACLE_N_CAP + 1, 10)
        with pytest.raises(PreconditionError):
            GridSpec(2, ORACLE_M_CAP + 1)
        # at the caps; with resolution n the uniform point is on-grid
        n = ORACLE_N_CAP
        r = grid_max(SimilarityMatrix(np.eye(n)), 1, GridSpec(n, n))
        assert r.value == pytest.approx(n, abs=1e-9)
        r = grid_max(SimilarityMatrix(np.eye(2)), 1, GridSpec(2, ORACLE_M_CAP))
        assert r.value == pytest.approx(2.0, abs=1e-12)


class TestGridMax:
    def test_naive_two_species(self):
        r = grid_max(SimilarityMatrix(np.eye(2)), 1, GridSpec(2, 10))
        assert r.value == pytest.approx(2.0, abs=1e-12)
        assert np.array_equal(r.point.probs, [0.5, 0.5])

    def test_nonsymmetric_order_infinity(self):
        # supremum 1.5 attained at (1/3, 2/3), which lies on the m=60 grid
        r = grid_max(SimilarityMatrix(NONSYM), math.inf, GridSpec(2, 60))
        assert r.value == pytest.approx(1.5, abs=1e-12)
        assert abs(r.point.probs[0] - 1 / 3) <= 0.02

    def test_nonsymmetric_order_grid(self):
        z = SimilarityMatrix(NONSYM)
        for q, expect in ((0.0, 2.0), (2.0, 1.6), (math.inf, 1.5)):
            r = grid_max(z, q, GridSpec(2, 60))
            assert abs(r.value - expect) <= 2e-2

    def test_three_species_grid_near_true_maximizer(self):
        z = SimilarityMatrix(THREE_SPECIES)
        r = grid_max(z, 2, GridSpec(3, 60))
        assert np.abs(r.point.probs - THREE_SPECIES_MAXIMIZER).max() <= 0.02
        assert r.value <= THREE_SPECIES_MAGNITUDE + 1e-12

    def test_multi_matches_single(self):
        rng = np.random.default_rng(137)
        z = random_symmetric(rng, 4)
        spec = GridSpec(4, 12)
        qs = (0.0, 0.5, 1.0, 2.0, math.inf)
        multi = grid_max_multi(z, qs, spec)
        for q, res in zip(qs, multi):
            single = grid_max(z, q, spec)
            assert single.value == res.value
            assert np.array_equal(single.point.probs, res.point.probs)

    def test_grid_values_are_true_diversities(self):
        rng = np.random.default_rng(139)
        for _ in range(10):
            z = random_symmetric(rng, int(rng.integers(2, 5)))
            for q in (0.0, 0.7, 1.0, 3.0, math.inf):
                r = grid_max(z, q, GridSpec(z.n, 9))
                assert r.value == pytest.approx(diversity(z, r.point, q), abs=1e-10)

    def test_extreme_scales_match_diversity_without_warnings(self):
        # at these scales the power sums under- or overflow, so the lattice
        # sweep takes its log-space fallback; it must agree with diversity()
        # and raise no spurious RuntimeWarning on the way
        base = random_symmetric(np.random.default_rng(157), 4).values
        qs = (0.0, 0.5, 2.0, 3.0, 7.5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for scale in (1e-300, 1e200):
                z = SimilarityMatrix(scale * base)
                for q, r in zip(qs, grid_max_multi(z, qs, GridSpec(4, 9))):
                    assert r.value == pytest.approx(diversity(z, r.point, q), rel=1e-12, abs=0.0)

    def test_monotone_under_grid_refinement(self):
        # nested lattices only: the m-grid embeds in the 2m-grid
        rng = np.random.default_rng(149)
        z = random_symmetric(rng, 4)
        for q in (0.5, 2.0, math.inf):
            values = [grid_max(z, q, GridSpec(4, m)).value for m in (5, 10, 20, 40)]
            assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))


def _refine_per_pair_base(z, q, probs):
    """Reference: the refinement loop as it was, each pairwise line search
    evaluating the round's base value itself."""
    p = probs.copy()
    for _ in range(oracle.REFINE_ROUNDS):
        best = (None, 0.0)
        for k in np.flatnonzero(p > 0):
            for j in range(z.n):
                if j == int(k):
                    continue
                t, gain = oracle._best_transfer(z, p, q, j, int(k), oracle._eval(z, p, q))
                if gain > best[1]:
                    best = ((j, int(k), t), gain)
        move, gain = best
        if move is None or gain <= 0.0:
            break
        j, k, t = move
        p[j] += t
        p[k] = 0.0 if t >= p[k] else p[k] - t
        p = oracle._normalized(p)
    return p


def _stationarity_gap(z, p, q):
    """Largest one-sided finite-difference directional derivative (step
    1e-7) of the diversity over feasible pairwise transfer directions (0 at
    a local max)."""
    base = diversity(z, p, q)
    worst = 0.0
    for k in p.support:
        h = min(1e-7, p.probs[k] / 2.0)
        for j in range(z.n):
            if j == int(k):
                continue
            cand = p.probs.copy()
            cand[j] += h
            cand[k] -= h
            worst = max(worst, (diversity(z, Distribution(cand), q) - base) / h)
    return worst


class TestRefine:
    def test_one_evaluation_per_round_at_its_point(self, monkeypatch):
        # the value at a round's point is computed once and handed to every
        # pairwise line search of the round; points are told apart by
        # identity, and holding them keeps their ids unique
        z = random_symmetric(np.random.default_rng(167), 5)
        evaluated, round_points, pairs = [], {}, []
        real_eval, real_transfer = oracle._eval, oracle._best_transfer

        def counting_eval(z_, p, q):
            evaluated.append(p)
            return real_eval(z_, p, q)

        def counting_transfer(z_, p, *rest):
            round_points[id(p)] = p
            pairs.append(1)
            return real_transfer(z_, p, *rest)

        monkeypatch.setattr(oracle, "_eval", counting_eval)
        monkeypatch.setattr(oracle, "_best_transfer", counting_transfer)
        p = refine(z, 2, uniform(5))
        monkeypatch.undo()
        rounds = len(round_points)
        assert rounds >= 2 and len(pairs) >= 10 * rounds
        assert sum(round_points.get(id(e)) is e for e in evaluated) == rounds
        assert np.array_equal(p.probs, Distribution(_refine_per_pair_base(z, 2.0, uniform(5).probs)).probs)

    def test_identity_refines_to_uniform(self):
        z = SimilarityMatrix(np.eye(3))
        start = grid_max(z, 2, GridSpec(3, 7)).point
        p = refine(z, 2, start)
        assert np.abs(p.probs - 1 / 3).max() <= 1e-8

    def test_three_species_refines_to_published_point(self):
        z = SimilarityMatrix(THREE_SPECIES)
        start = grid_max(z, 2, GridSpec(3, 20)).point
        p = refine(z, 2, start)
        assert np.abs(p.probs - np.array([0.478, 0.261, 0.261])).max() <= 1e-3
        assert diversity(z, p, 2) == pytest.approx(THREE_SPECIES_MAGNITUDE, abs=1e-9)

    def test_three_path_order_infinity(self):
        z = path_adjacency(3)
        start = grid_max(z, math.inf, GridSpec(3, 7)).point
        p = refine(z, math.inf, start)
        assert np.abs(p.probs - [0.5, 0.0, 0.5]).max() <= 1e-6

    def test_returns_start_when_nothing_improves(self):
        z = SimilarityMatrix(np.eye(2))
        p = refine(z, 2, uniform(2))
        assert np.array_equal(p.probs, [0.5, 0.5])

    def test_stationarity_at_refined_points(self):
        rng = np.random.default_rng(157)
        for _ in range(10):
            z = random_symmetric(rng, int(rng.integers(2, 6)))
            start = grid_max(z, 2, GridSpec(z.n, 20)).point
            p = refine(z, 2, start)
            assert _stationarity_gap(z, p, 2) <= 1e-6

    def test_oracle_solver_agreement(self):
        # refined lattice maxima meet the subset-sweep value at several orders
        rng = np.random.default_rng(163)
        for _ in range(20):
            n = int(rng.integers(2, 6))
            z = random_symmetric(rng, n)
            dmax = maximize_exhaustive(z).dmax
            for q in (0.5, 1.0, 2.0, math.inf):
                start = grid_max(z, q, GridSpec(n, 30)).point
                val = diversity(z, refine(z, q, start), q)
                assert val <= dmax + 1e-9
                assert val >= dmax - 1e-6


@pytest.mark.parametrize(
    "call",
    [
        lambda: grid_max_multi(SimilarityMatrix(np.eye(3)), [2.0], GridSpec(2, 4)),
        lambda: refine(SimilarityMatrix(np.eye(3)), 2.0, uniform(2)),
        lambda: GridSpec(3, 4.5),
        lambda: GridSpec(2.5, 4),
        lambda: GridSpec("3", 4),
    ],
    ids=["grid-size", "start-size", "fractional-resolution", "fractional-grid-n", "string-grid-n"],
)
def test_invalid_input_is_refused(call):
    with pytest.raises(InputError):
        call()
