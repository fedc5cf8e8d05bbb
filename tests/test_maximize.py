import importlib
import math

import numpy as np
import pytest

from maxdiv import (
    Distribution,
    InputError,
    PreconditionError,
    ReflexiveGraph,
    SimilarityMatrix,
    adjacency_matrix,
    diversity,
    find_nonnegative_weighting,
    full_support_diagnostics,
    is_invariant,
    maximize,
    maximize_exhaustive,
    maximize_fast_path,
    normalize_weighting,
    solve_weighting_space,
    uniform,
)
from maxdiv.kernels import UNIQUE_NEG, UNIQUE_NONNEG, UNRELIABLE, UNRESOLVED, scan_subsets
from maxdiv.maximize import SUBSET_CAP, TIE_RTOL, FeasibleSubset, _certify_uniqueness

from helpers import (
    ALL_ONES_2,
    NONSYM,
    THREE_SPECIES,
    THREE_SPECIES_MAGNITUDE,
    THREE_SPECIES_MAXIMIZER,
    path_adjacency,
    random_duplicated_psd,
    random_graph,
    random_sdd,
    random_symmetric,
    random_ultrametric,
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
            status, mags = scan_subsets(z.values)
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
        status, mags = scan_subsets(z)
        assert status.tolist() == [UNIQUE_NONNEG, UNIQUE_NONNEG, UNRELIABLE]
        assert np.isnan(mags[2])

    def test_unresolved_is_exactly_singular_on_graphs(self):
        # 0/1 matrices have integer determinants, so |det| < 0.5 is exact
        rng = np.random.default_rng(91)
        graphs = [path_adjacency(n) for n in (3, 5, 8)]
        graphs += [adjacency_matrix(random_graph(rng, int(rng.integers(3, 9)))) for _ in range(12)]
        for z in graphs:
            n = z.n
            status, _ = scan_subsets(z.values)
            singular = sum(
                abs(np.linalg.det(z.sub(idx))) < 0.5
                for idx in (_mask_indices(mask, n) for mask in range(1, 2**n))
            )
            assert int((status == UNRESOLVED).sum()) == singular


def _mask_indices(mask, n):
    return tuple(i for i in range(n) if (mask >> i) & 1)


def _cycle_adjacency(n):
    return adjacency_matrix(ReflexiveGraph(n, [(i, (i + 1) % n) for i in range(n)]))


def _unpruned_reference(z):
    """The subset sweep with every mask the scan leaves unsettled
    (UNRESOLVED or UNRELIABLE) sent through the row reduction and the LP."""
    status, mags = scan_subsets(z.values)
    mags = np.where(status == UNIQUE_NONNEG, mags, np.nan)
    for mask in np.flatnonzero((status == UNRESOLVED) | (status == UNRELIABLE)) + 1:
        ws = solve_weighting_space(z, _mask_indices(int(mask), z.n))
        if find_nonnegative_weighting(ws) is not None:
            mags[mask - 1] = ws.magnitude
    dmax0 = float(np.nanmax(mags))
    with np.errstate(invalid="ignore"):
        tying = np.flatnonzero(mags >= dmax0 - TIE_RTOL * max(1.0, abs(dmax0))) + 1
    winners = []
    for mask in sorted(tying, key=lambda m: (bin(m).count("1"), _mask_indices(int(m), z.n))):
        ws = solve_weighting_space(z, _mask_indices(int(mask), z.n))
        w = find_nonnegative_weighting(ws)
        winners.append(FeasibleSubset(ws.subset, float(ws.magnitude), ws.with_nonnegative(w)))
    first = min(winners, key=lambda fs: fs.indices)
    sample = normalize_weighting(first.weighting_space.nonnegative, first.indices, z.n)
    dmax = max(fs.magnitude for fs in winners)
    return dmax, winners, _certify_uniqueness(winners), sample


def _assert_same_result(r, dmax, winners, unique, sample):
    assert r.dmax == dmax
    assert [fs.indices for fs in r.winners] == [fs.indices for fs in winners]
    assert r.unique == unique
    assert np.array_equal(r.sample_maximizer.probs, sample.probs)


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
            _assert_same_result(maximize_exhaustive(z), *_unpruned_reference(z))

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
            _assert_same_result(
                got, expected.dmax, expected.winners, expected.unique, expected.sample_maximizer
            )

    @pytest.mark.parametrize(
        "z, solves",
        [(path_adjacency(3), 1), (path_adjacency(4), 6), (_cycle_adjacency(4), 2)],
        ids=["path-3", "path-4", "cycle-4"],
    )
    def test_slow_path_solve_counts(self, monkeypatch, z, solves):
        # without pruning these take 3, 11 and 6 solves: one per UNRESOLVED
        # mask plus one per winner
        module = importlib.import_module("maxdiv.maximize")
        calls = []

        def counted(*args):
            calls.append(args)
            return solve_weighting_space(*args)

        monkeypatch.setattr(module, "solve_weighting_space", counted)
        maximize_exhaustive(z)
        assert len(calls) == solves


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
