import importlib
import logging
import math

import numpy as np
import pytest

from maxdiv import (
    Distribution,
    InputError,
    NumericalError,
    PreconditionError,
    ReflexiveGraph,
    SimilarityMatrix,
    adjacency_matrix,
    diversity,
    find_nonnegative_weighting,
    find_positive_weighting,
    full_support_diagnostics,
    is_invariant,
    is_positive_semidefinite,
    magnitude,
    maximize,
    maximize_exhaustive,
    maximize_fast_path,
    normalize_weighting,
    solve_weighting_space,
    uniform,
)
from maxdiv.kernels import DOMINATED, UNIQUE_NEG, UNIQUE_NONNEG, UNRELIABLE, UNRESOLVED, scan_subsets
from maxdiv.linalg import SOLVE_TOL, TIE_RTOL
from maxdiv.maximize import SUBSET_CAP

from helpers import (
    ALL_ONES_2,
    NONSYM,
    THREE_SPECIES,
    THREE_SPECIES_MAGNITUDE,
    THREE_SPECIES_MAXIMIZER,
    assert_same_result,
    mask_indices,
    path_adjacency,
    random_duplicated_psd,
    random_graph,
    random_psd,
    random_sdd,
    random_symmetric,
    random_ultrametric,
    scan_every_subset,
    unpruned_reference,
)

QGRID = (0.0, 0.5, 1.0, 2.0, 8.0, math.inf)


class TestNormalizeWeighting:
    def test_examples(self):
        p = normalize_weighting(np.array([1.0, 1.0]), [0, 2], 3)
        assert np.array_equal(p.probs, [0.5, 0.0, 0.5])
        p = normalize_weighting(np.array([2.0, 1.0, 1.0]), [0, 1, 2], 3)
        assert np.array_equal(p.probs, [0.5, 0.25, 0.25])
        with pytest.raises(InputError):
            normalize_weighting(np.zeros(2), [0, 1], 2)

    @pytest.mark.parametrize(
        "w, subset, n",
        [(np.ones(3), [0, 1], 3), (np.array([1.0, -1e-6]), [0, 1], 2)],
        ids=["wrong-length", "negative-entry"],
    )
    def test_refuses_invalid_weightings(self, w, subset, n):
        with pytest.raises(InputError):
            normalize_weighting(w, subset, n)

    def test_three_species_published_value(self):
        w = np.linalg.solve(THREE_SPECIES, np.ones(3))
        p = normalize_weighting(w, [0, 1, 2], 3)
        assert np.round(p.probs, 3) == pytest.approx([0.478, 0.261, 0.261])


class TestIsInvariant:
    def test_examples(self):
        zi = SimilarityMatrix(np.eye(3))
        assert is_invariant(zi, uniform(3))
        assert not is_invariant(SimilarityMatrix(np.eye(2)), Distribution([0.75, 0.25]))
        z = SimilarityMatrix(THREE_SPECIES)
        assert is_invariant(z, Distribution(THREE_SPECIES_MAXIMIZER))


class TestExhaustive:
    def test_identity(self):
        for n in (1, 2, 4, 6):
            r = maximize_exhaustive(SimilarityMatrix(np.eye(n)))
            assert r.dmax == pytest.approx(n, abs=1e-12)
            assert len(r.winners) == 1
            assert r.winners[0].indices == tuple(range(n))
            assert np.abs(r.sample_maximizer.probs - 1.0 / n).max() <= 1e-12
            assert r.unique is True

    def test_three_species(self):
        r = maximize_exhaustive(SimilarityMatrix(THREE_SPECIES))
        assert r.dmax == pytest.approx(THREE_SPECIES_MAGNITUDE, abs=1e-12)
        assert [fs.indices for fs in r.winners] == [(0, 1, 2)]
        assert np.abs(r.sample_maximizer.probs - THREE_SPECIES_MAXIMIZER).max() <= 1e-12
        assert r.unique is True
        assert r.full_support_exists and r.all_maximizers_full_support

    def test_three_path(self):
        r = maximize_exhaustive(path_adjacency(3))
        assert r.dmax == pytest.approx(2.0, abs=1e-12)
        assert [fs.indices for fs in r.winners] == [(0, 2)]
        assert np.array_equal(r.sample_maximizer.probs, [0.5, 0.0, 0.5])
        assert r.unique is True
        assert not r.full_support_exists

    def test_zero_weight_duplicates_leave_the_maximizer_unique(self):
        # species 3 copies species 2, and w = (1, 1) on {0, 1} makes both
        # their rows tight, so {0, 1, 2}, {0, 1, 3} and the singular
        # {0, 1, 2, 3} tie with {0, 1}.  Z is not positive semidefinite, so
        # it is swept; by the vertex argument every maximizer is the
        # normalized w_{0,1}, which each winner carries extended by zero
        z = SimilarityMatrix([
            [1.0, 0.0, 0.5, 0.5, 0.6],
            [0.0, 1.0, 0.5, 0.5, 0.6],
            [0.5, 0.5, 1.0, 1.0, 0.2],
            [0.5, 0.5, 1.0, 1.0, 0.2],
            [0.6, 0.6, 0.2, 0.2, 1.0],
        ])
        assert np.linalg.eigvalsh(z.values).min() < -0.01
        r = maximize(z)
        assert r.method == "exhaustive"
        assert [fs.indices for fs in r.winners] == [(0, 1), (0, 1, 2), (0, 1, 3), (0, 1, 2, 3)]
        assert r.dmax == pytest.approx(2.0, abs=1e-12)
        assert all(fs.magnitude == r.dmax for fs in r.winners)
        assert np.array_equal(r.sample_maximizer.probs, [0.5, 0.5, 0.0, 0.0, 0.0])
        assert r.unique is True
        assert_same_result(r, *unpruned_reference(z))

    def test_four_path_winner_families(self):
        r = maximize_exhaustive(path_adjacency(4))
        assert r.dmax == pytest.approx(2.0, abs=1e-12)
        supports = {fs.indices for fs in r.winners}
        assert {(0, 2), (0, 3), (1, 3)} <= supports
        assert r.unique is False
        # the continuum (1/2, 0, t, 1/2 - t) comes from a winner with a
        # one-dimensional kernel on support {0, 2, 3}
        fam = {fs.indices: fs for fs in r.winners}
        assert (0, 2, 3) in fam
        ws = fam[(0, 2, 3)].weighting_space
        assert ws.nullspace.shape[0] == 1
        for t in (0.1, 0.25, 0.4):
            w = np.array([1.0, 2 * t, 1.0 - 2 * t])
            resid = np.abs(path_adjacency(4).sub((0, 2, 3)) @ w - 1.0).max()
            assert resid <= 1e-12
            p = normalize_weighting(w, (0, 2, 3), 4)
            assert np.abs(p.probs - [0.5, 0.0, t, 0.5 - t]).max() <= 1e-12
            for q in QGRID:
                assert diversity(path_adjacency(4), p, q) == pytest.approx(2.0, abs=1e-10)

    def test_nonsymmetric_rejected(self):
        with pytest.raises(PreconditionError, match="symmetric"):
            maximize_exhaustive(SimilarityMatrix(NONSYM))

    def test_cap_rejected(self, monkeypatch):
        # one past the cap is refused before the scan is asked for anything
        def scan(values):
            raise AssertionError("scan_subsets called past the cap")

        monkeypatch.setattr(importlib.import_module("maxdiv.maximize"), "scan_subsets", scan)
        with pytest.raises(PreconditionError, match="cap"):
            maximize_exhaustive(SimilarityMatrix(np.eye(SUBSET_CAP + 1)))

    def test_sample_maximizer_is_invariant_and_attains_dmax(self):
        rng = np.random.default_rng(71)
        for _ in range(60):
            n = int(rng.integers(2, 7))
            z = random_symmetric(rng, n)
            r = maximize_exhaustive(z)
            assert is_invariant(z, r.sample_maximizer)
            for q in (0.0, 1.0, 2.0, math.inf):
                assert diversity(z, r.sample_maximizer, q) == pytest.approx(
                    r.dmax, abs=1e-8
                )

    def test_profile_constant_across_q(self):
        rng = np.random.default_rng(73)
        for _ in range(40):
            n = int(rng.integers(2, 7))
            z = random_symmetric(rng, n)
            r = maximize_exhaustive(z)
            vals = [diversity(z, r.sample_maximizer, q) for q in QGRID]
            assert max(vals) - min(vals) < 1e-7

    def test_winners_all_attain_dmax(self):
        rng = np.random.default_rng(79)
        for _ in range(30):
            n = int(rng.integers(2, 7))
            z = random_duplicated_psd(rng, n)
            r = maximize_exhaustive(z)
            for fs in r.winners:
                assert fs.magnitude == pytest.approx(r.dmax, abs=1e-9)
                w = fs.weighting_space.nonnegative
                assert w is not None and w.min() >= -1e-9
                assert w.sum() == pytest.approx(fs.magnitude, abs=1e-8)
                p = normalize_weighting(w, fs.indices, z.n)
                assert diversity(z, p, 2.0) == pytest.approx(r.dmax, abs=1e-8)

    def test_degenerate_full_set_beaten_by_singleton(self):
        # full-set weighting space needs the LP (negative free-at-zero
        # solution), yet a small-diagonal singleton still wins
        z = SimilarityMatrix([
            [1.0, 0.9, 0.9, 1.2],
            [0.9, 1.0, 0.1, 1.6],
            [0.9, 0.1, 1.0, 1.6],
            [1.2, 1.6, 1.6, 0.4],
        ])
        r = maximize_exhaustive(z)
        assert r.dmax == pytest.approx(2.5, abs=1e-12)  # 1 / 0.4
        assert [fs.indices for fs in r.winners] == [(3,)]

    def test_order_zero_counterexample(self):
        # (3/4, 1/4) attains the order-0 maximum (richness 2) for the naive
        # 2-species model, yet fails to maximize order 1: maximizing some
        # order q only forces maximization of all orders when q > 0
        z = SimilarityMatrix(np.eye(2))
        r = maximize_exhaustive(z)
        skew = Distribution([0.75, 0.25])
        assert diversity(z, skew, 0.0) == pytest.approx(2.0, abs=1e-12)
        assert r.dmax == pytest.approx(2.0, abs=1e-12)
        assert diversity(z, skew, 1.0) < 2.0 - 1e-3


class TestScanBackends:
    def test_scan_matches_slow_solver(self):
        # every UNIQUE_NONNEG mask must agree with the row-reduction solver
        rng = np.random.default_rng(83)
        for trial in range(12):
            n = int(rng.integers(2, 6))
            z = random_symmetric(rng, n) if trial % 2 else random_duplicated_psd(rng, n)
            status, mags = scan_every_subset(z.values)
            assert status.shape == (2**n - 1,)
            for mask in range(1, 2**n):
                idx = tuple(i for i in range(n) if (mask >> i) & 1)
                ws = solve_weighting_space(z, idx)
                if status[mask - 1] == UNIQUE_NONNEG:
                    assert ws.particular is not None
                    assert mags[mask - 1] == pytest.approx(ws.magnitude, abs=1e-9)
                    assert find_nonnegative_weighting(ws) is not None
                elif status[mask - 1] == UNIQUE_NEG:
                    assert ws.particular is not None and ws.nullspace.shape[0] == 0
                    assert ws.particular.min() < -1e-9
                elif status[mask - 1] == UNRESOLVED:
                    # a dead pivot in the scan is a kernel for the solver
                    assert ws.nullspace.shape[0] >= 1

    def test_full_rank_residual_failure_is_unreliable(self):
        # the last pivot, 3e-9, clears the pivot threshold, but the weighting
        # has entries near 3e7 and its residual (2.5e-9) misses SOLVE_TOL
        z = np.array([[1.0, 0.9], [0.9, 0.81 + 3e-9]])
        status, mags = scan_every_subset(z)
        assert status.tolist() == [UNIQUE_NONNEG, UNIQUE_NONNEG, UNRELIABLE]
        assert np.isnan(mags[2])
        # the pair's column sums are 1.9 and 1.71, so its bound, about
        # 2/1.71 = 1.17, is below the second singleton's 1/0.81 = 1.23 and
        # the scan never eliminates it
        status, mags = scan_subsets(z)
        assert status.tolist() == [UNIQUE_NONNEG, UNIQUE_NONNEG, DOMINATED]
        assert np.isnan(mags[2])

    def test_unresolved_is_exactly_singular_on_graphs(self):
        # 0/1 matrices have integer determinants, so |det| < 0.5 is exact
        rng = np.random.default_rng(91)
        graphs = [path_adjacency(n) for n in (3, 5, 8)]
        graphs += [adjacency_matrix(random_graph(rng, int(rng.integers(3, 9)))) for _ in range(12)]
        for z in graphs:
            n = z.n
            status, _ = scan_every_subset(z.values)
            singular = sum(
                abs(np.linalg.det(z.sub(idx))) < 0.5
                for idx in (mask_indices(mask, n) for mask in range(1, 2**n))
            )
            assert int((status == UNRESOLVED).sum()) == singular


def _cycle_adjacency(n):
    return adjacency_matrix(ReflexiveGraph(n, [(i, (i + 1) % n) for i in range(n)]))


def _duplicated(values, assignment):
    """The matrix with species ``assignment[i]`` of ``values`` as species i."""
    return SimilarityMatrix(np.asarray(values)[np.ix_(assignment, assignment)])


class TestPrunedSweep:
    def test_matches_unpruned_reference(self):
        rng = np.random.default_rng(107)
        cases = [path_adjacency(n) for n in range(3, 10)]
        for _ in range(65):
            cases.append(adjacency_matrix(random_graph(rng, int(rng.integers(2, 9)), rng.uniform(0.2, 0.7))))
            cases.append(random_duplicated_psd(rng, int(rng.integers(2, 9))))
            cases.append(random_symmetric(rng, int(rng.integers(2, 9))))
        assert len(cases) >= 200
        for z in cases:
            assert_same_result(maximize_exhaustive(z), *unpruned_reference(z))

    def test_unreliable_winner_reaches_slow_path(self, monkeypatch):
        # relabel the scan's winning UNIQUE_NONNEG masks as UNRELIABLE: only
        # the slow path can then find the maximum and its winners
        module = importlib.import_module("maxdiv.maximize")
        cases = [SimilarityMatrix(THREE_SPECIES), path_adjacency(4), path_adjacency(5), _cycle_adjacency(4)]
        for z in cases:
            expected = maximize_exhaustive(z)
            winning = [sum(1 << i for i in fs.indices) for fs in expected.winners]
            relabelled = []

            def scan(values, winning=winning, relabelled=relabelled):
                status, mags = scan_subsets(values)
                for mask in winning:
                    if status[mask - 1] == UNIQUE_NONNEG:
                        status[mask - 1] = UNRELIABLE
                        mags[mask - 1] = np.nan
                        relabelled.append(mask)
                return status, mags

            monkeypatch.setattr(module, "scan_subsets", scan)
            got = maximize_exhaustive(z)
            monkeypatch.undo()
            assert relabelled
            assert_same_result(
                got, expected.dmax, expected.winners, expected.unique, expected.sample_maximizer
            )

    def test_rank_deficient_unreliable_joins_the_closure(self, monkeypatch):
        # relabel every UNRESOLVED mask as UNRELIABLE: each is solved once,
        # found rank-deficient, and settled by the tight-row closure
        module = importlib.import_module("maxdiv.maximize")
        for z in (path_adjacency(4), path_adjacency(6), _cycle_adjacency(5)):
            expected = maximize_exhaustive(z)

            def scan(values):
                status, mags = scan_subsets(values)
                status[status == UNRESOLVED] = UNRELIABLE
                return status, mags

            monkeypatch.setattr(module, "scan_subsets", scan)
            got = maximize_exhaustive(z)
            monkeypatch.undo()
            assert any(not fs.weighting_space.unique for fs in got.winners)
            assert_same_result(
                got, expected.dmax, expected.winners, expected.unique, expected.sample_maximizer
            )

    @pytest.mark.parametrize(
        "z, solves",
        [
            (path_adjacency(3), 1),
            (path_adjacency(4), 6),
            (_cycle_adjacency(4), 2),
            (path_adjacency(6), 9),
            (_cycle_adjacency(6), 2),
        ],
        ids=["path-3", "path-4", "cycle-4", "path-6", "cycle-6"],
    )
    def test_slow_path_solve_counts(self, monkeypatch, z, solves):
        # one solve per tying mask plus one per singular winner: path-6 has
        # 6 and 3, cycle-6 2 and 0.  Solving every singular superset of a
        # tying mask instead took 13 and 9 solves there; solving every
        # UNRESOLVED mask, 3, 11 and 6 on the first three.
        module = importlib.import_module("maxdiv.maximize")
        calls = []

        def counted(*args):
            calls.append(args)
            return solve_weighting_space(*args)

        monkeypatch.setattr(module, "solve_weighting_space", counted)
        maximize_exhaustive(z)
        assert len(calls) == solves

    @pytest.mark.parametrize("relabel", [UNIQUE_NONNEG, UNRESOLVED], ids=["winners", "singular"])
    @pytest.mark.parametrize(
        "z, solves",
        [(path_adjacency(4), 6), (_cycle_adjacency(4), 2), (path_adjacency(6), 9)],
        ids=["path-4", "cycle-4", "path-6"],
    )
    def test_unreliable_solve_counts(self, monkeypatch, z, solves, relabel):
        # an UNRELIABLE mask is solved before the maximum is taken, and that
        # solve is reused if the mask wins: relabelling the scan's winning
        # UNIQUE_NONNEG masks adds no solve, and relabelling its UNRESOLVED
        # masks adds one per relabelled mask that does not win
        module = importlib.import_module("maxdiv.maximize")
        winning = {sum(1 << i for i in fs.indices) for fs in maximize_exhaustive(z).winners}
        relabelled = []

        def scan(values):
            status, mags = scan_subsets(values)
            for mask in np.flatnonzero(status == relabel) + 1:
                if relabel == UNRESOLVED or mask in winning:
                    status[mask - 1] = UNRELIABLE
                    mags[mask - 1] = np.nan
                    relabelled.append(int(mask))
            return status, mags

        calls = []

        def counted(z, subset):
            calls.append(tuple(subset))
            return solve_weighting_space(z, subset)

        monkeypatch.setattr(module, "scan_subsets", scan)
        monkeypatch.setattr(module, "solve_weighting_space", counted)
        maximize_exhaustive(z)
        assert relabelled
        assert len(set(calls)) == len(calls)
        assert len(calls) == solves + len(set(relabelled) - winning)


    def test_sweep_makes_no_lp_call(self, monkeypatch):
        # singular subsets are settled by the tight-row closure, so the
        # phase-1 LP never runs on the way to the winners
        def refuse(*args):
            raise AssertionError("phase-1 LP called")

        monkeypatch.setattr(importlib.import_module("maxdiv.linalg"), "_phase1_nonneg", refuse)
        rng = np.random.default_rng(109)
        cases = [path_adjacency(n) for n in (3, 4, 6, 8)]
        cases += [_cycle_adjacency(n) for n in (4, 5, 6, 7)]
        cases += [adjacency_matrix(random_graph(rng, int(rng.integers(4, 10)), 0.5)) for _ in range(20)]
        cases += [
            _duplicated(path_adjacency(4).values, [0, 1, 1, 2, 3, 3]),
            _duplicated(_cycle_adjacency(5).values, [0, 0, 1, 2, 3, 4, 4]),
        ]
        cases += [_duplicated(random_symmetric(rng, 5).values, rng.integers(0, 5, size=8)) for _ in range(10)]
        swept = singular_winners = 0
        for z in cases:
            # a positive semidefinite Z sends its full set to the LP in the
            # positive-weighting search of the diagnostics, not in the sweep
            if is_positive_semidefinite(z):
                continue
            r = maximize_exhaustive(z)
            swept += 1
            singular_winners += sum(not fs.weighting_space.unique for fs in r.winners)
        assert swept >= 30 and singular_winners >= 20

    def test_tight_row_within_solve_tol(self):
        # species 1 and 2 copy species 0, scaled by 1 + 3e-10 and 1 + 2e-9:
        # against T = {0, 3}, with w_T = (1, 1), row 1 lands within SOLVE_TOL
        # of 1 and row 2 outside it, so the singular {0, 1, 3} wins and
        # {0, 2, 3} does not
        v = np.array([1.0, 1.0 + 3e-10, 1.0 + 2e-9])
        values = np.zeros((4, 4))
        values[:3, :3] = np.outer(v, v)
        values[3, 3] = 1.0
        z = SimilarityMatrix(values)
        r = maximize_exhaustive(z)
        indices = [fs.indices for fs in r.winners]
        assert indices == [(0, 3), (1, 3), (0, 1, 3)]
        assert not r.winners[2].weighting_space.unique
        assert r.winners[2].weighting_space.nonnegative.tolist() == [1.0, 0.0, 1.0]
        # its own solve gives 1.9999999997; it reports the magnitude of T, in
        # its weighting space too, and w_T extended by zero as its particular
        assert r.winners[2].magnitude == r.winners[0].magnitude == 2.0
        for fs in r.winners:
            assert fs.magnitude == fs.weighting_space.magnitude
            assert np.array_equal(fs.weighting_space.particular, fs.weighting_space.nonnegative)
        # the reference weights {0, 1, 3} by its own particular solution,
        # which differs from w_T by the 3e-10 slack of row 1; {0, 1, 3} is
        # the smallest-index winner, so the sample maximizers differ by as much
        dmax, winners, unique, sample = unpruned_reference(z)
        assert (r.dmax, indices, r.unique) == (dmax, [fs.indices for fs in winners], unique)
        assert r.sample_maximizer.probs.tolist() == [0.5, 0.0, 0.0, 0.5]
        assert np.abs(r.sample_maximizer.probs - sample.probs).max() <= 1e-9

    def test_singular_smallest_winner_takes_the_zero_extended_weighting(self):
        # species 0 and 1 are identical, so the singular {0, 1, 2} sorts
        # before the tying {0, 2} and {1, 2}; its weighting is w_{0,2}
        # extended by zero
        z = SimilarityMatrix([[1.0, 1.0, 0.5], [1.0, 1.0, 0.5], [0.5, 0.5, 1.0]])
        r = maximize_exhaustive(z)
        assert [fs.indices for fs in r.winners] == [(0, 2), (1, 2), (0, 1, 2)]
        first = min(r.winners, key=lambda fs: fs.indices)
        assert first.indices == (0, 1, 2) and not first.weighting_space.unique
        assert first.weighting_space.nonnegative == pytest.approx([2 / 3, 0.0, 2 / 3], abs=1e-15)
        assert r.sample_maximizer.probs == pytest.approx([0.5, 0.0, 0.5], abs=1e-15)
        assert r.unique is False
        assert_same_result(r, *unpruned_reference(z))


def _check_column_sum_bound(z):
    """The pruned scan of ``z`` against the full classification: the same
    status and magnitude on every mask it eliminates, no ``DOMINATED`` mask with a
    nonnegative weighting reaching the tie threshold, and no winner of the
    unpruned reference (singular ones included) ``DOMINATED``.  Returns the
    number of masks eliminated."""
    status, mags = scan_subsets(z.values)
    full_status, full_mags = scan_every_subset(z.values)
    kept = status != DOMINATED
    assert np.array_equal(status[kept], full_status[kept])
    assert np.array_equal(mags[kept], full_mags[kept], equal_nan=True)
    dmax, winners, _, _ = unpruned_reference(z)
    feasible = (status == DOMINATED) & (full_status == UNIQUE_NONNEG)
    assert np.all(full_mags[feasible] < dmax - TIE_RTOL * max(1.0, dmax))
    for fs in winners:
        assert status[sum(1 << i for i in fs.indices) - 1] != DOMINATED, fs.indices
    return int(kept.sum())


class TestColumnSumBound:
    def test_dominated_masks_cannot_tie_on_helper_families(self):
        rng = np.random.default_rng(211)
        makers = [
            lambda n: adjacency_matrix(random_graph(rng, n, rng.uniform(0.2, 0.8))),
            lambda n: random_symmetric(rng, n),
            lambda n: random_duplicated_psd(rng, n),
            lambda n: random_psd(rng, n),
            lambda n: random_sdd(rng, n),
            lambda n: random_ultrametric(rng, n),
        ]
        cases = [path_adjacency(n) for n in range(2, 9)] + [_cycle_adjacency(n) for n in range(3, 9)]
        cases += [make(int(rng.integers(2, 9))) for _ in range(40) for make in makers]
        dominated = sum(2**z.n - 1 - _check_column_sum_bound(z) for z in cases)
        assert dominated > 0

    @pytest.mark.parametrize("n", [10, 11, 12])
    def test_dominated_masks_cannot_tie_on_dense_matrices(self, n):
        rng = np.random.default_rng(223 + n)
        for _ in range(3):
            _check_column_sum_bound(random_symmetric(rng, n))

    @pytest.mark.parametrize("c", [0.1, 0.3, 0.7])
    @pytest.mark.parametrize("k", [1, 2, 3, 5, 7])
    def test_all_ones_multiples_keep_every_tie(self, c, k):
        # every subset of c·J_k has magnitude 1/c, so all 2^k - 1 win: the
        # singletons tie and every larger subset is a singular superset
        z = SimilarityMatrix(np.full((k, k), c))
        assert _check_column_sum_bound(z) == 2**k - 1
        r = maximize_exhaustive(z)
        assert len(r.winners) == 2**k - 1
        assert_same_result(r, *unpruned_reference(z))

    @pytest.mark.parametrize("between", [0.0, 0.2])
    def test_duplicated_blocks_of_ones_keep_every_tie(self, between):
        # species 0-1, 2-4 and 5 are copies: a winner takes a nonempty part
        # of each block, (2^2 - 1)(2^3 - 1)(2^1 - 1) = 21 in all
        base = np.full((3, 3), between) + (1.0 - between) * np.eye(3)
        z = _duplicated(base, [0, 0, 1, 1, 1, 2])
        _check_column_sum_bound(z)
        r = maximize_exhaustive(z)
        assert len(r.winners) == 21
        assert_same_result(r, *unpruned_reference(z))

    @pytest.mark.parametrize("gap, dominated", [(0.5, False), (1.5, True)])
    def test_skip_rule_is_the_tie_threshold(self, gap, dominated):
        # the singletons set best = 1/0.5 = 2; the pair {1, 2} has equal
        # column sums s, so its bound is 2(1 + SOLVE_TOL)/s + 2·SOLVE_TOL.
        # s puts that bound gap·TIE_RTOL·best below best: inside the tie
        # slack the pair is eliminated, past it the pair is DOMINATED
        s = (1.0 + SOLVE_TOL) / (1.0 - (gap + 1.0) * TIE_RTOL)
        values = np.zeros((3, 3))
        values[0, 0] = 0.5
        values[1:, 1:] = [[0.6, s - 0.6], [s - 0.6, 0.6]]
        status, _ = scan_subsets(values)
        assert bool(status[0b110 - 1] == DOMINATED) is dominated
        assert DOMINATED not in status[[0b001 - 1, 0b010 - 1, 0b100 - 1, 0b011 - 1, 0b101 - 1]]

    def test_most_masks_are_dominated_on_a_dense_matrix(self):
        z = random_symmetric(np.random.default_rng(227), 12)
        assert _check_column_sum_bound(z) < 0.3 * (2**12 - 1)

    def test_sweep_logs_scan_status_counts(self, caplog, capsys):
        logger = logging.getLogger("maxdiv")
        handlers = list(logger.handlers)
        z = SimilarityMatrix(np.array([[1.0, 0.9], [0.9, 0.81 + 3e-9]]))
        with caplog.at_level(logging.DEBUG, logger="maxdiv"):
            maximize_exhaustive(z)
            maximize_exhaustive(path_adjacency(5))
        assert [r.getMessage() for r in caplog.records if r.name == "maxdiv"] == [
            "subset scan n=2: 2 unique_nonneg, 0 unique_neg, 0 unresolved, 0 unreliable, 1 dominated",
            "subset scan n=5: 14 unique_nonneg, 0 unique_neg, 10 unresolved, 0 unreliable, 7 dominated",
        ]
        assert logger.handlers == handlers
        assert capsys.readouterr() == ("", "")

    def test_sweep_counts_statuses_only_when_debug_is_on(self, monkeypatch, caplog):
        def refuse(*args, **kwargs):
            raise AssertionError("scan statuses counted with DEBUG off")

        monkeypatch.setattr(np, "bincount", refuse)
        with caplog.at_level(logging.INFO, logger="maxdiv"):
            maximize_exhaustive(path_adjacency(5))


class TestFastPath:
    def test_identity_fast(self):
        r = maximize_fast_path(SimilarityMatrix(np.eye(5)))
        assert r is not None
        assert r.method == "ultrametric"
        assert r.dmax == pytest.approx(5.0, abs=1e-12)
        assert r.unique is True

    def test_three_path_has_no_fast_path(self):
        z = path_adjacency(3)
        # oracle: the path adjacency matrix is indefinite
        assert np.linalg.eigvalsh(z.values).min() < -1e-6
        assert maximize_fast_path(z) is None

    def test_all_ones_psd_route(self):
        r = maximize_fast_path(SimilarityMatrix(ALL_ONES_2))
        assert r is not None
        assert r.method == "positive-semidefinite"
        assert r.dmax == pytest.approx(1.0, abs=1e-12)
        assert r.full_support_exists and not r.all_maximizers_full_support

    def test_fast_equals_exhaustive_on_ultrametrics(self):
        rng = np.random.default_rng(97)
        for _ in range(100):
            z = random_ultrametric(rng, int(rng.integers(2, 9)))
            fast = maximize_fast_path(z)
            assert fast is not None and fast.method == "ultrametric"
            slow = maximize_exhaustive(z)
            assert fast.dmax == pytest.approx(slow.dmax, abs=1e-9)
            assert [fs.indices for fs in fast.winners] == [fs.indices for fs in slow.winners]
            assert np.abs(
                fast.sample_maximizer.probs - slow.sample_maximizer.probs
            ).max() <= 1e-9

    def test_fast_equals_exhaustive_on_diagonally_dominant(self):
        rng = np.random.default_rng(101)
        for _ in range(60):
            z = random_sdd(rng, int(rng.integers(2, 9)))
            fast = maximize_fast_path(z)
            # small instances may also be ultrametric, which is checked first
            assert fast is not None and fast.method in ("diagonal-dominance", "ultrametric")
            slow = maximize_exhaustive(z)
            assert fast.dmax == pytest.approx(slow.dmax, abs=1e-9)
            assert [fs.indices for fs in fast.winners] == [fs.indices for fs in slow.winners]

    def test_auto_maximize_dispatch(self):
        assert maximize(SimilarityMatrix(THREE_SPECIES)).method == "ultrametric"
        assert maximize(path_adjacency(3)).method == "exhaustive"


class TestFullSupportDiagnostics:
    def test_triple_of_examples(self):
        d = full_support_diagnostics(SimilarityMatrix(np.eye(4)))
        assert (d.exists_full_support_maximizer, d.all_maximizers_full_support) == (True, True)
        d = full_support_diagnostics(SimilarityMatrix(ALL_ONES_2))
        assert (d.exists_full_support_maximizer, d.all_maximizers_full_support) == (True, False)
        d = full_support_diagnostics(path_adjacency(3))
        assert (d.exists_full_support_maximizer, d.all_maximizers_full_support) == (False, False)

    def test_certificates(self):
        d = full_support_diagnostics(SimilarityMatrix(THREE_SPECIES))
        assert d.positive_definite and d.positive_semidefinite
        assert d.positive_weighting is not None
        assert d.positive_weighting.min() > 0
        assert d.min_eigenvalue > d.eigenvalue_floor

    def test_exists_agrees_with_winner_scan(self):
        # independent check: some maximizing distribution has full support
        # iff the full index set wins and its weighting polytope touches the
        # open orthant; scan the exhaustive winners directly
        rng = np.random.default_rng(103)
        full_set_hits = 0
        for trial in range(100):
            n = int(rng.integers(2, 7))
            if trial % 3 == 0:
                z = random_symmetric(rng, n)
            elif trial % 3 == 1:
                z = random_duplicated_psd(rng, n)
            else:
                z = random_ultrametric(rng, n)
            r = maximize_exhaustive(z)
            d = full_support_diagnostics(z)
            scan = _winner_scan_has_full_support(z, r)
            assert d.exists_full_support_maximizer == scan
            full_set_hits += scan
        assert full_set_hits >= 30  # both outcomes must actually occur
        assert full_set_hits < 100

    def test_zero_weight_entry_is_not_full_support(self):
        # positive definite, unique weighting (5/6, 5/6, 0): the only
        # maximizer is (1/2, 1/2, 0), so neither flag may be set, and a zero
        # entry lifted to POSITIVITY_EPS must not pass for a positive weighting
        z = SimilarityMatrix([[1.0, 0.2, 0.6], [0.2, 1.0, 0.6], [0.6, 0.6, 1.0]])
        d = full_support_diagnostics(z)
        assert d.positive_definite and d.positive_weighting is None
        fast, swept = maximize(z), maximize_exhaustive(z)
        assert fast.method == "positive-semidefinite"
        for r in (fast, swept):
            assert r.unique is True
            assert (r.full_support_exists, r.all_maximizers_full_support) == (False, False)
            assert r.sample_maximizer.support.tolist() == [0, 1]
            assert r.dmax == pytest.approx(5 / 3, abs=1e-12)


def _winner_scan_has_full_support(z, result):
    from maxdiv import find_positive_weighting

    for fs in result.winners:
        if fs.indices != tuple(range(z.n)):
            continue
        if fs.weighting_space.unique:
            return bool(fs.weighting_space.nonnegative.min() > 0)
        return find_positive_weighting(z, fs.indices) is not None
    return False


class TestScaleFree:
    @pytest.mark.parametrize("seed, c", [(12, 1e6), (75, 100.0)])
    def test_scaled_dense_matrix_keeps_its_single_winner(self, seed, c):
        # unscaled, 1e-9 absolute tie slack is 5e-4 relative at dmax ~ 2e-6:
        # c·Z gained the near-miss winner (0, 1, 3, 5) at seed 12 and (1, 5)
        # at seed 75, and reported unique=False
        rng = np.random.default_rng(seed)
        z = random_symmetric(rng, int(rng.integers(3, 9)))
        r, rc = maximize(z), maximize(SimilarityMatrix(c * z.values))
        assert len(r.winners) == 1 and r.unique is True
        assert [fs.indices for fs in rc.winners] == [fs.indices for fs in r.winners]
        assert rc.unique is True
        assert rc.dmax * c == pytest.approx(r.dmax, rel=1e-12)

    def test_scaled_corpus_keeps_unit_scale_answers(self):
        for seed in range(150):
            rng = np.random.default_rng(seed)
            z = random_symmetric(rng, int(rng.integers(3, 9)))
            r = maximize(z)
            for c in (1e-3, 100.0, 1e4, 1e6):
                rc = maximize(SimilarityMatrix(c * z.values))
                assert [fs.indices for fs in rc.winners] == [fs.indices for fs in r.winners], (seed, c)
                assert (rc.unique, rc.full_support_exists, rc.all_maximizers_full_support) == (
                    r.unique, r.full_support_exists, r.all_maximizers_full_support
                ), (seed, c)
                assert rc.dmax * c == pytest.approx(r.dmax, rel=1e-12)

    def test_unit_scale_matrices_are_used_as_they_are(self, monkeypatch):
        # a largest entry in [1, 2) needs no rescaling, so no copy is made
        made = []
        monkeypatch.setattr(
            importlib.import_module("maxdiv.maximize"), "SimilarityMatrix",
            lambda values: made.append(values) or SimilarityMatrix(values),
        )
        maximize(path_adjacency(4))
        maximize(SimilarityMatrix(1.9 * np.eye(3)))
        assert made == []
        # 2·I is scaled once, by the fast path, which hands I to the diagnostics
        maximize(SimilarityMatrix(2.0 * np.eye(3)))
        assert len(made) == 1 and np.array_equal(made[0], np.eye(3))

    def test_diagonal_dominance_label_depends_on_scale(self):
        z = random_sdd(np.random.default_rng(5), 6)
        assert maximize(z).method == "diagonal-dominance"
        r = maximize(SimilarityMatrix(4.0 * z.values))
        assert r.method == "positive-semidefinite"
        assert r.dmax == maximize(z).dmax / 4.0


class TestFloatRange:
    @pytest.mark.parametrize(
        "fn",
        [maximize, maximize_exhaustive, maximize_fast_path, full_support_diagnostics, find_positive_weighting,
         solve_weighting_space, magnitude],
    )
    def test_maximum_beyond_float64_is_refused(self, fn):
        # Dmax of 1e-310·I is 2e310: refused, not an OverflowError or an inf
        with pytest.raises(NumericalError, match="beyond the float64 range"):
            fn(SimilarityMatrix(1e-310 * np.eye(2)))

    @pytest.mark.parametrize("fn", [solve_weighting_space, magnitude])
    def test_indefinite_weighting_beyond_float64_is_refused(self, fn):
        # the weighting (1, 1)/(3e-310) solves Z w = 1 on the indefinite matrix:
        # refused, not reported as no weighting after an overflow warning
        with pytest.raises(NumericalError, match="beyond the float64 range"):
            fn(SimilarityMatrix(1e-310 * np.array([[1.0, 2.0], [2.0, 1.0]])))

    def test_small_maximum_within_float64_is_kept(self):
        z = SimilarityMatrix(1e-300 * np.eye(2))
        for r in (maximize(z), maximize_exhaustive(z)):
            assert r.dmax == pytest.approx(2e300, rel=1e-15)
            assert all(fs.magnitude == fs.weighting_space.magnitude for fs in r.winners)
