import importlib
import time

import numpy as np
import pytest

from maxdiv import (
    GridSpec,
    InputError,
    PreconditionError,
    ReflexiveGraph,
    SimilarityMatrix,
    adjacency_matrix,
    extend_by_zero,
    find_nonnegative_weighting,
    find_positive_weighting,
    is_positive_definite,
    is_positive_semidefinite,
    is_strictly_diagonally_dominant,
    is_ultrametric,
    magnitude,
    normalize_weighting,
    solve_weighting_space,
    uniform,
)
from maxdiv.linalg import (
    LP_ITERATION_CAP,
    PIVOT_RTOL,
    POSITIVITY_EPS,
    PSD_FLOOR_RTOL,
    SOLVE_TOL,
    _definiteness,
    _phase1_nonneg,
    _rref,
    _solve_affine,
)

from helpers import (
    ALL_ONES_2,
    NONSYM,
    TAXONOMIC,
    THREE_SPECIES,
    THREE_SPECIES_MAGNITUDE,
    THREE_SPECIES_WEIGHTING,
    near_duplicate_gram,
    path_adjacency,
    random_duplicated_psd,
    random_graph,
    random_planar_metric,
    random_psd,
    random_sdd,
    random_symmetric,
    random_ultrametric,
    zero_weight_duplicates,
)


class TestSimilarityMatrix:
    def test_validation(self):
        with pytest.raises(InputError):
            SimilarityMatrix([[1.0, -0.1], [-0.1, 1.0]])
        with pytest.raises(InputError):
            SimilarityMatrix([[0.0, 0.5], [0.5, 1.0]])
        with pytest.raises(InputError):
            SimilarityMatrix([[1.0, np.inf], [0.0, 1.0]])
        with pytest.raises(InputError):
            SimilarityMatrix(np.ones((2, 3)))

    @pytest.mark.parametrize(
        "values",
        [[["x"]], [["1"]], [[1.0, "0.5"], [0.5, 1.0]], [[1.0, 0.0], [0.0]], [[1 + 1j]]],
        ids=["string", "numeric-string", "mixed-string", "ragged", "complex"],
    )
    def test_entries_that_are_not_real_numbers_are_refused(self, values):
        with pytest.raises(InputError):
            SimilarityMatrix(values)

    def test_symmetry_detection_and_normalization(self):
        z = SimilarityMatrix([[1.0, 0.5 + 1e-14], [0.5, 1.0]])
        assert z.symmetric
        assert z.values[0, 1] == z.values[1, 0]
        z = SimilarityMatrix(NONSYM)
        assert not z.symmetric
        assert np.array_equal(z.values, NONSYM)


class TestWeightingSpace:
    def test_identity(self):
        ws = solve_weighting_space(SimilarityMatrix(np.eye(3)))
        assert np.array_equal(ws.particular, np.ones(3))
        assert ws.nullspace.shape == (0, 3)
        assert ws.magnitude == 3.0
        assert ws.unique

    def test_all_ones_rank_one(self):
        ws = solve_weighting_space(SimilarityMatrix(ALL_ONES_2))
        assert ws.particular is not None
        assert abs(ws.particular.sum() - 1.0) <= SOLVE_TOL
        assert ws.nullspace.shape == (1, 2)
        v = ws.nullspace[0]
        assert np.abs(ALL_ONES_2 @ v).max() <= SOLVE_TOL
        assert ws.magnitude == pytest.approx(1.0, abs=1e-12)

    def test_three_species_against_independent_solve(self):
        z = SimilarityMatrix(THREE_SPECIES)
        ws = solve_weighting_space(z)
        # independent oracle: LAPACK solve, plus the hand-derived fractions
        oracle = np.linalg.solve(THREE_SPECIES, np.ones(3))
        assert np.abs(ws.particular - oracle).max() <= 1e-12
        assert np.abs(ws.particular - THREE_SPECIES_WEIGHTING).max() <= 1e-12
        assert ws.magnitude == pytest.approx(THREE_SPECIES_MAGNITUDE, abs=1e-12)
        assert ws.unique

    def test_subset_solve(self):
        z = SimilarityMatrix(THREE_SPECIES)
        ws = solve_weighting_space(z, [1, 2])
        oracle = np.linalg.solve(THREE_SPECIES[1:, 1:], np.ones(2))
        assert np.abs(ws.particular - oracle).max() <= 1e-12
        with pytest.raises(PreconditionError):
            solve_weighting_space(z, [])
        with pytest.raises(PreconditionError):
            solve_weighting_space(z, [0, 3])

    def test_inconsistent_system_has_no_weighting(self):
        # third row is the sum of the first two, but the right-hand sides
        # would need 1 = 2
        z = SimilarityMatrix([[1, 0, 1], [0, 1, 1], [1, 1, 2]])
        ws = solve_weighting_space(z)
        assert ws.particular is None
        assert ws.magnitude is None
        assert magnitude(z) is None

    def test_residual_invariants_random(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            n = int(rng.integers(1, 9))
            z = random_symmetric(rng, n)
            ws = solve_weighting_space(z)
            a = z.values
            if ws.particular is not None:
                assert np.abs(a @ ws.particular - 1.0).max() <= SOLVE_TOL
            for v in ws.nullspace:
                assert np.abs(a @ v).max() <= SOLVE_TOL

    def test_magnitude_well_defined_across_weightings(self):
        rng = np.random.default_rng(11)
        hits = 0
        for _ in range(200):
            n = int(rng.integers(2, 7))
            z = random_duplicated_psd(rng, n)
            ws = solve_weighting_space(z)
            if ws.particular is None or ws.nullspace.shape[0] == 0:
                continue
            hits += 1
            # second weighting: particular plus a random kernel combination
            coeff = rng.uniform(-2, 2, size=ws.nullspace.shape[0])
            other = ws.particular + coeff @ ws.nullspace
            assert abs(other.sum() - ws.magnitude) <= 10 * SOLVE_TOL
            # third weighting from an entirely different algorithm
            lstsq = np.linalg.lstsq(z.values, np.ones(z.n), rcond=None)[0]
            assert abs(lstsq.sum() - ws.magnitude) <= 10 * SOLVE_TOL
        assert hits >= 10  # the property must actually have been exercised


class TestNonnegativeWeighting:
    def test_unique_nonnegative_returned_directly(self):
        ws = solve_weighting_space(SimilarityMatrix(np.eye(3)))
        w = find_nonnegative_weighting(ws)
        assert np.array_equal(w, np.ones(3))

    def test_all_ones_affine_family(self):
        ws = solve_weighting_space(SimilarityMatrix(ALL_ONES_2))
        w = find_nonnegative_weighting(ws)
        assert w is not None
        assert w.min() >= -SOLVE_TOL
        assert np.abs(ALL_ONES_2 @ w - 1.0).max() <= 1e-9

    def test_unique_negative_weighting_absent(self):
        # oracle: direct solve exhibits a negative entry, so the (unique)
        # affine space misses the nonnegative orthant
        z = np.array([[1.0, 0.9, 0.9], [0.9, 1.0, 0.1], [0.9, 0.1, 1.0]])
        oracle = np.linalg.solve(z, np.ones(3))
        assert oracle.min() < -1e-3
        ws = solve_weighting_space(SimilarityMatrix(z))
        assert find_nonnegative_weighting(ws) is None

    def test_random_negative_unique_weightings_absent(self):
        rng = np.random.default_rng(23)
        found = 0
        for _ in range(300):
            z = random_symmetric(rng, int(rng.integers(3, 7)))
            try:
                oracle = np.linalg.solve(z.values, np.ones(z.n))
            except np.linalg.LinAlgError:
                continue
            if oracle.min() < -1e-6:
                found += 1
                ws = solve_weighting_space(z)
                assert find_nonnegative_weighting(ws) is None
        assert found >= 20

    def test_representative_satisfies_weighting_equation(self):
        # representatives stay in the affine space and sum to the magnitude
        rng = np.random.default_rng(37)
        for _ in range(200):
            n = int(rng.integers(2, 8))
            z = random_duplicated_psd(rng, n)
            ws = solve_weighting_space(z)
            w = find_nonnegative_weighting(ws)
            if w is None:
                continue
            assert np.abs(z.values @ w - 1.0).max() <= 10 * SOLVE_TOL
            assert abs(w.sum() - ws.magnitude) <= 10 * SOLVE_TOL

    def test_negative_particular_fixed_by_lp(self):
        # singular matrix built around kernel (-3, 1, 1, 1): the free-at-zero
        # solution (1.346.., -0.192.., -0.192.., 0) has negative entries, but
        # the family w(t) = that + t*(-3, 1, 1, 1) is nonnegative for
        # t in [0.1923.., 0.4487..], so the LP must find a point
        z = SimilarityMatrix([
            [1.0, 0.9, 0.9, 1.2],
            [0.9, 1.0, 0.1, 1.6],
            [0.9, 0.1, 1.0, 1.6],
            [1.2, 1.6, 1.6, 0.4],
        ])
        ws = solve_weighting_space(z)
        assert ws.particular is not None
        assert ws.particular.min() < -0.1
        assert ws.nullspace.shape[0] == 1
        w = find_nonnegative_weighting(ws)
        assert w is not None
        assert w.min() >= -SOLVE_TOL
        assert np.abs(z.values @ w - 1.0).max() <= 10 * SOLVE_TOL
        assert abs(w.sum() - ws.magnitude) <= 10 * SOLVE_TOL

    def test_degenerate_space_with_no_nonnegative_point(self):
        # block sum of the rank-one all-ones block (free parameter) and a
        # block whose unique weighting has negative entries: every weighting
        # is (t, 1-t, 1.346.., -0.192.., -0.192..)
        z = np.zeros((5, 5))
        z[:2, :2] = 1.0
        z[2:, 2:] = [[1.0, 0.9, 0.9], [0.9, 1.0, 0.1], [0.9, 0.1, 1.0]]
        np.fill_diagonal(z, 1.0)
        ws = solve_weighting_space(SimilarityMatrix(z))
        assert ws.particular is not None
        assert ws.nullspace.shape[0] == 1
        assert find_nonnegative_weighting(ws) is None

    def test_phase1_against_interval_oracle(self):
        # one kernel direction: feasibility is exact interval intersection,
        # starting from the LP's cone t >= 0
        rng = np.random.default_rng(211)
        feasible_cases = infeasible_cases = 0
        for _ in range(300):
            kb = int(rng.integers(1, 7))
            x0 = rng.uniform(-1.0, 1.0, size=kb)
            v = rng.uniform(-1.0, 1.0, size=kb)
            v[np.abs(v) < 1e-3] = 0.0
            lo, hi = 0.0, np.inf
            empty = False
            for i in range(kb):
                if v[i] > 0:
                    lo = max(lo, -x0[i] / v[i])
                elif v[i] < 0:
                    hi = min(hi, -x0[i] / v[i])
                elif x0[i] < 0:
                    empty = True
            feasible = not empty and lo <= hi
            w = _phase1_nonneg(x0, v[None, :])
            if feasible:
                feasible_cases += 1
                assert w is not None
                assert w.min() >= -1e-9
                # w must lie on the half-line x0 + t v, t >= 0
                t = (w - x0) @ v / (v @ v)
                assert t >= -1e-9
                assert np.abs(w - (x0 + t * v)).max() <= 1e-9
            else:
                infeasible_cases += 1
                assert w is None
        assert feasible_cases >= 50 and infeasible_cases >= 50

    def test_phase1_against_grid_oracle(self):
        # several kernel directions: a lattice scan of the cone t >= 0 must
        # never beat the LP
        rng = np.random.default_rng(223)
        lp_found = grid_found = 0
        ts = np.linspace(0.0, 3.0, 41)
        for trial in range(200):
            kb = int(rng.integers(2, 6))
            kn = int(rng.integers(2, 4))
            shift = 1.5 if trial % 2 else 0.5
            x0 = rng.uniform(-shift, 1.0, size=kb)
            basis = rng.uniform(-1.0, 1.0, size=(kn, kb))
            w = _phase1_nonneg(x0, basis)
            if w is not None:
                lp_found += 1
                assert w.min() >= -1e-9
            else:
                # exhaustive lattice over the kernel coordinates, all points
                # at once: if any is nonnegative the LP answer was wrong
                combos = np.stack(np.meshgrid(*[ts] * kn, indexing="ij"), axis=-1).reshape(-1, kn)
                cand = x0 + combos @ basis
                assert (cand.min(axis=1) < -1e-12).all()
                grid_found += 1
        assert lp_found >= 30 and grid_found >= 20

    def test_phase1_directly(self):
        # w = (-1 + t, 2 - t): feasible for t in [1, 2]
        w = _phase1_nonneg(np.array([-1.0, 2.0]), np.array([[1.0, -1.0]]))
        assert w is not None and w.min() >= -1e-9
        # w = (-3 + t, 1 - t): needs t >= 3 and t <= 1, infeasible
        assert _phase1_nonneg(np.array([-3.0, 1.0]), np.array([[1.0, -1.0]])) is None
        # w = (-1 - t, 2 + t): feasible for t <= -1, outside the cone t >= 0
        assert _phase1_nonneg(np.array([-1.0, 2.0]), np.array([[-1.0, 1.0]])) is None
        # two kernel directions
        w = _phase1_nonneg(
            np.array([-1.0, -1.0, 5.0]),
            np.array([[1.0, 0.0, -1.0], [0.0, 1.0, -1.0]]),
        )
        assert w is not None and w.min() >= -1e-9


class TestPositiveWeighting:
    def test_identity(self):
        w = find_positive_weighting(SimilarityMatrix(np.eye(4)))
        assert w is not None and w.min() > 0

    def test_all_ones_has_positive_weighting(self):
        w = find_positive_weighting(SimilarityMatrix(ALL_ONES_2))
        assert w is not None
        assert w.min() > 0
        assert abs(w.sum() - 1.0) <= 1e-6

    @pytest.mark.parametrize("c", [1e-10, 1e10])
    def test_scaled_identity_keeps_its_positive_weighting(self, c):
        # the search runs on Z_B / 2^e, so the absolute POSITIVITY_EPS does
        # not hide the weighting (1/c)·1 of c·I, as it did at c = 1e10
        w = find_positive_weighting(SimilarityMatrix(c * np.eye(3)))
        assert w == pytest.approx(np.full(3, 1.0 / c), rel=1e-12)
        sub = find_positive_weighting(SimilarityMatrix(np.diag([1.0, c, c])), [1, 2])
        assert sub == pytest.approx(np.full(2, 1.0 / c), rel=1e-12)

    def test_absent_when_unique_weighting_negative(self):
        z = SimilarityMatrix([[1.0, 0.9, 0.9], [0.9, 1.0, 0.1], [0.9, 0.1, 1.0]])
        assert find_positive_weighting(z) is None

    def test_duplicated_species_weighting_found_by_lp(self, monkeypatch):
        # spreading the base's positive weighting over each species' copies
        # gives a positive weighting, so both searches must return a point;
        # the eps-shifted search sends every such space through the LP
        linalg = importlib.import_module("maxdiv.linalg")
        lp = linalg._phase1_nonneg
        lp_calls = []

        def counted(x0, basis):
            lp_calls.append(x0.size)
            return lp(x0, basis)

        monkeypatch.setattr(linalg, "_phase1_nonneg", counted)
        rng = np.random.default_rng(331)
        used = 0
        for _ in range(300):
            z = random_duplicated_psd(rng, int(rng.integers(3, 11)))
            _, first, species = np.unique(z.values, axis=0, return_index=True, return_inverse=True)
            base_weighting = np.linalg.solve(z.values[np.ix_(first, first)], np.ones(first.size))
            if base_weighting.min() <= 0:
                continue
            used += 1
            spread = base_weighting[species] / np.bincount(species)[species]
            assert np.abs(z.values @ spread - 1.0).max() <= 10 * SOLVE_TOL
            ws = solve_weighting_space(z)
            nonneg, pos = find_nonnegative_weighting(ws), find_positive_weighting(z)
            assert nonneg is not None and nonneg.min() >= -SOLVE_TOL
            assert pos is not None and pos.min() >= POSITIVITY_EPS
            for w in (nonneg, pos):
                assert np.abs(z.values @ w - 1.0).max() <= 10 * SOLVE_TOL
                assert abs(w.sum() - ws.magnitude) <= 10 * SOLVE_TOL
        assert used >= 200 and len(lp_calls) >= used


class TestPredicates:
    def test_definiteness_examples(self):
        assert is_positive_semidefinite(SimilarityMatrix(np.eye(5)))
        assert is_positive_definite(SimilarityMatrix(np.eye(5)))
        ones = SimilarityMatrix(ALL_ONES_2)
        assert is_positive_semidefinite(ones)  # eigenvalues 2, 0
        assert not is_positive_definite(ones)
        with pytest.raises(PreconditionError):
            is_positive_semidefinite(SimilarityMatrix(NONSYM))

    def test_definite_implies_semidefinite_random(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            z = random_symmetric(rng, int(rng.integers(2, 8)))
            if is_positive_definite(z):
                assert is_positive_semidefinite(z)

    def test_positive_definite_gives_unique_weighting(self):
        rng = np.random.default_rng(5)
        for _ in range(60):
            z = random_sdd(rng, int(rng.integers(2, 9)))
            assert is_positive_definite(z)
            ws = solve_weighting_space(z)
            assert ws.unique

    def test_definiteness_matches_the_eigenvalue_rule(self):
        # Cholesky verdicts against the smallest eigenvalue and the floor
        # PSD_FLOOR_RTOL·max|Z|: positive semidefinite at or above -floor,
        # positive definite above +floor
        rng = np.random.default_rng(251)
        makers = {
            "symmetric": random_symmetric,
            "ultrametric": random_ultrametric,
            "sdd": random_sdd,
            "psd": random_psd,
            "duplicated-psd": random_duplicated_psd,
            "near-duplicate-gram": near_duplicate_gram,
            "zero-weight-duplicates": lambda rng, n: zero_weight_duplicates(rng),
            "graph": lambda rng, n: adjacency_matrix(random_graph(rng, n, rng.uniform(0.2, 0.7))),
            "path": lambda rng, n: path_adjacency(n),
            "planar-metric": lambda rng, n: SimilarityMatrix(np.exp(-random_planar_metric(rng, n).dist)),
        }
        verdicts = {}
        for family, make in makers.items():
            for _ in range(60):
                z = make(rng, int(rng.integers(2, 14)))
                low = np.linalg.eigvalsh(z.values).min()
                floor = PSD_FLOOR_RTOL * np.abs(z.values).max()
                expected = (bool(low >= -floor), bool(low > floor))
                assert _definiteness(z) == expected, family
                verdicts.setdefault(expected, set()).add(family)
        # definite, singular semidefinite and indefinite draws all take part
        assert set(verdicts) == {(True, True), (True, False), (False, False)}
        assert {"psd", "duplicated-psd", "near-duplicate-gram"} <= verdicts[True, False]

    @pytest.mark.parametrize(
        "factor, expected",
        [(1 + 1e-3, (True, True)), (1 - 1e-3, (True, False)), (-1 + 1e-3, (True, False)), (-1 - 1e-3, (False, False))],
        ids=["above-plus-floor", "below-plus-floor", "above-minus-floor", "below-minus-floor"],
    )
    def test_definiteness_at_the_floor(self, factor, expected):
        # Z = Q·diag(λ)·Qᵀ with λ_min = factor·floor: within 1e-3·floor of
        # ±floor, yet far outside Cholesky's backward error (about n·u·max|Z|).
        # The top eigenvector is the all-ones one, with an eigenvalue large
        # enough to keep every entry of Z positive.
        n = 6
        rng = np.random.default_rng(257)
        q, _ = np.linalg.qr(np.column_stack([np.ones(n), rng.standard_normal((n, n - 1))]))
        lam = np.concatenate([[3.0 * n], rng.uniform(0.5, 1.0, size=n - 2), [0.0]])

        def build(low):
            lam[-1] = low
            return SimilarityMatrix((q * lam) @ q.T)

        floor = PSD_FLOOR_RTOL * np.abs(build(0.0).values).max()
        z = build(factor * floor)
        floor = PSD_FLOOR_RTOL * np.abs(z.values).max()
        low = np.linalg.eigvalsh(z.values).min()
        assert abs(low - factor * floor) <= 1e-5 * floor  # the construction holds
        assert _definiteness(z) == expected
        assert (is_positive_semidefinite(z), is_positive_definite(z)) == expected

    def test_ultrametric_examples(self):
        assert is_ultrametric(SimilarityMatrix(TAXONOMIC))
        assert is_ultrametric(SimilarityMatrix(np.eye(4)))
        assert is_ultrametric(SimilarityMatrix(np.eye(1)))
        # direct triple check oracle for the three-species matrix
        z = THREE_SPECIES
        n = 3
        ok = all(
            z[i, k] >= min(z[i, j], z[j, k])
            for i in range(n)
            for j in range(n)
            for k in range(n)
        ) and all(z[i, i] > max(z[j, k] for j in range(n) for k in range(n) if j != k) for i in range(n))
        assert ok
        assert is_ultrametric(SimilarityMatrix(THREE_SPECIES))
        # triple violation: Z_01 = 0 < min(Z_02, Z_21) = 0.5
        assert not is_ultrametric(
            SimilarityMatrix([[1, 0, 0.5], [0, 1, 0.9], [0.5, 0.9, 1]])
        )
        # diagonal not above every off-diagonal entry
        assert not is_ultrametric(SimilarityMatrix(ALL_ONES_2))
        assert not is_ultrametric(path_adjacency(3))

    def test_random_ultrametrics_are_ultrametric(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            z = random_ultrametric(rng, int(rng.integers(2, 11)))
            assert is_ultrametric(z)

    def test_random_ultrametric_at_large_n(self):
        # the levels are placed directly, so n = 40 takes no retries
        rng = np.random.default_rng(19)
        t0 = time.perf_counter()
        z = random_ultrametric(rng, 40, min_gap=0.02)
        assert time.perf_counter() - t0 < 2.0
        assert is_ultrametric(z)
        levels = np.unique(z.values[~np.eye(40, dtype=bool)])
        assert levels.size == 39
        assert 0.05 <= levels.min() and levels.max() < 0.95
        assert np.diff(levels).min() >= 0.02 - 1e-12
        with pytest.raises(ValueError):
            random_ultrametric(rng, 47, min_gap=0.02)  # 45 gaps of 0.02 fill all of 0.9

    def test_diagonal_dominance_examples(self):
        assert is_strictly_diagonally_dominant(SimilarityMatrix(np.eye(6)))
        assert is_strictly_diagonally_dominant(SimilarityMatrix([[1, 0.6], [0.6, 1]]))
        z3 = SimilarityMatrix([[1, 0.6, 0.6], [0.6, 1, 0.6], [0.6, 0.6, 1]])
        assert not is_strictly_diagonally_dominant(z3)  # row sum 1.2 > 1

    def test_diagonal_dominance_implies_definite_with_positive_weighting(self):
        # 200 random strictly diagonally dominant unit-diagonal matrices
        rng = np.random.default_rng(29)
        for _ in range(200):
            z = random_sdd(rng, int(rng.integers(2, 11)))
            assert is_strictly_diagonally_dominant(z)
            assert is_positive_definite(z)
            ws = solve_weighting_space(z)
            assert ws.unique
            assert ws.particular.min() > 0

    def test_magnitude_equals_inverse_entry_sum(self):
        # for invertible Z the magnitude is the entry sum of Z^{-1}
        rng = np.random.default_rng(227)
        for _ in range(80):
            z = random_sdd(rng, int(rng.integers(2, 10)))
            assert magnitude(z) == pytest.approx(float(np.linalg.inv(z.values).sum()), abs=1e-9)

    def test_variational_characterization_for_psd(self):
        # |Z| = sup (sum x)^2 / x^T Z x over x, attained at the weighting
        rng = np.random.default_rng(229)
        for _ in range(60):
            n = int(rng.integers(2, 8))
            z = random_sdd(rng, n)
            mag = magnitude(z)
            w = solve_weighting_space(z).particular
            attained = w.sum() ** 2 / (w @ z.values @ w)
            assert attained == pytest.approx(mag, rel=1e-10)
            for _ in range(20):
                x = rng.normal(size=n)
                quad = x @ z.values @ x
                if quad > 1e-12:
                    assert x.sum() ** 2 / quad <= mag + 1e-9

    def test_submatrix_magnitude_bound_for_psd(self):
        # |Z_B| <= |Z| whenever both weightings exist and Z is PSD
        rng = np.random.default_rng(31)
        checked = 0
        for trial in range(150):
            n = int(rng.integers(2, 7))
            z = random_psd(rng, n) if trial % 2 else random_duplicated_psd(rng, n)
            if not is_positive_semidefinite(z):
                continue
            full = magnitude(z)
            if full is None:
                continue
            for _ in range(4):
                k = int(rng.integers(1, n))
                sub = tuple(sorted(rng.choice(n, size=k, replace=False).tolist()))
                m = magnitude(z, sub)
                if m is not None:
                    checked += 1
                    assert m <= full + 1e-9
        assert checked >= 40


def _rref_by_rows(aug, ncols, pivot_tol):
    """Reference: the row-at-a-time reduction that ``_rref`` replaced."""
    rows = aug.shape[0]
    pivots = []
    r = 0
    for c in range(ncols):
        if r == rows:
            break
        piv = r + int(np.abs(aug[r:, c]).argmax())
        if abs(aug[piv, c]) <= pivot_tol:
            continue
        if piv != r:
            aug[[r, piv]] = aug[[piv, r]]
        aug[r] = aug[r] / aug[r, c]
        for rr in range(rows):
            if rr != r and aug[rr, c] != 0.0:
                aug[rr] = aug[rr] - aug[rr, c] * aug[r]
        pivots.append(c)
        r += 1
    return pivots


def _phase1_by_rows(x0, basis):
    """Reference: the phase-1 LP with its scalar entering loop and
    row-at-a-time pivot, as ``_phase1_nonneg`` had them."""
    kb = x0.shape[0]
    kn = basis.shape[0]
    nv = 2 * kn + kb
    rows = np.zeros((kb, nv))
    rows[:, :kn] = -basis.T
    rows[:, kn : 2 * kn] = basis.T
    rows[:, 2 * kn :] = np.eye(kb)
    rhs = x0.astype(np.float64).copy()
    neg = rhs < 0
    rows[neg] *= -1.0
    rhs[neg] *= -1.0
    art = np.flatnonzero(neg)
    tab = np.zeros((kb, nv + art.size + 1))
    tab[:, :nv] = rows
    tab[:, -1] = rhs
    basis_idx = np.empty(kb, dtype=np.intp)
    for j, r in enumerate(art):
        tab[r, nv + j] = 1.0
        basis_idx[r] = nv + j
    for r in np.flatnonzero(~neg):
        basis_idx[r] = 2 * kn + r
    cost = np.zeros(nv + art.size + 1)
    cost[nv:-1] = 1.0
    obj = cost.copy()
    for r in np.flatnonzero(neg):
        obj -= tab[r]
    for _ in range(LP_ITERATION_CAP):
        entering = -1
        for j in range(nv):
            if obj[j] < -1e-12:
                entering = j
                break
        if entering < 0:
            break
        col = tab[:, entering]
        ratios = np.full(kb, np.inf)
        pos = col > 1e-12
        ratios[pos] = tab[pos, -1] / col[pos]
        leave = -1
        best = np.inf
        for r in range(kb):
            if ratios[r] < best - 1e-15 or (
                ratios[r] < best + 1e-15 and (leave < 0 or basis_idx[r] < basis_idx[leave])
            ):
                best = ratios[r]
                leave = r
        if leave < 0 or not np.isfinite(best):
            break
        tab[leave] /= tab[leave, entering]
        for r in range(kb):
            if r != leave and tab[r, entering] != 0.0:
                tab[r] -= tab[r, entering] * tab[leave]
        obj -= obj[entering] * tab[leave]
        basis_idx[leave] = entering
    else:
        raise AssertionError("reference LP hit the iteration cap")
    if -obj[-1] > 1e-9:
        return None
    t = np.zeros(kn)
    for r in range(kb):
        j = basis_idx[r]
        if j < kn:
            t[j] += tab[r, -1]
        elif j < 2 * kn:
            t[j - kn] -= tab[r, -1]
    return x0 + basis.T @ t


def _parity_corpus():
    """Matrices of every helper family at n=2-10, 0/1 graph matrices with
    exact zeros and rank deficiency, and an n=128 ultrametric."""
    rng = np.random.default_rng(307)
    out = [TAXONOMIC, THREE_SPECIES, ALL_ONES_2, np.ones((6, 6))]
    for n in range(2, 11):
        out += [path_adjacency(n).values, np.kron(np.eye(2), np.ones((n, n))) + 0.0]
        for _ in range(3):
            out += [
                random_symmetric(rng, n).values,
                random_ultrametric(rng, n).values,
                random_sdd(rng, n).values,
                random_psd(rng, n).values,
                random_duplicated_psd(rng, n).values,
                adjacency_matrix(random_graph(rng, n, edge_prob=0.5)).values,
            ]
    out.append(random_ultrametric(rng, 128, min_gap=0.005).values)
    return out


class TestEliminationParity:
    def test_rref_matches_row_at_a_time_reduction(self):
        rng = np.random.default_rng(311)
        deficient = 0
        for a in _parity_corpus():
            k = a.shape[0]
            tol = PIVOT_RTOL * float(np.abs(a).max())
            for b in (np.ones(k), rng.uniform(-1.0, 1.0, size=k)):
                aug = np.concatenate([a, b[:, None]], axis=1)
                ref = aug.copy()
                pivots = _rref(aug, k, tol)
                assert pivots == _rref_by_rows(ref, k, tol)
                assert np.array_equal(aug, ref)
            deficient += len(pivots) < k
            # kernel basis, as the per-free-column loop built it
            ref = np.concatenate([a, np.ones((k, 1))], axis=1)
            pivots = _rref_by_rows(ref, k, tol)
            free = [c for c in range(k) if c not in pivots]
            kernel = np.zeros((len(free), k))
            for row, f in enumerate(free):
                kernel[row, f] = 1.0
                kernel[row, pivots] = -ref[: len(pivots), f]
            assert np.array_equal(_solve_affine(a, np.ones(k))[1], kernel)
        assert deficient >= 40

    def test_kernel_basis_is_identity_on_free_columns(self):
        # the phase-1 LP searches only t >= 0; that loses no point because
        # the kernel basis is the identity, and the particular exactly 0, on
        # the columns the reduction leaves free
        rng = np.random.default_rng(317)
        deficient = 0
        for a in _parity_corpus():
            z = SimilarityMatrix(a)
            subsets = [np.arange(z.n)] + [np.flatnonzero(rng.uniform(size=z.n) < 0.7) for _ in range(3)]
            for sub in subsets:
                if sub.size == 0:
                    continue
                ws = solve_weighting_space(z, sub)
                b = z.sub(sub)
                aug = np.concatenate([b, np.ones((sub.size, 1))], axis=1)
                pivots = _rref(aug, sub.size, PIVOT_RTOL * float(np.abs(b).max()))
                free = np.setdiff1d(np.arange(sub.size), pivots)
                assert ws.nullspace.shape[0] == free.size
                assert np.array_equal(ws.nullspace[:, free], np.eye(free.size))
                if ws.particular is not None:
                    assert np.array_equal(ws.particular[free], np.zeros(free.size))
                deficient += free.size > 0
        assert deficient >= 200

    def test_phase1_matches_row_at_a_time_pivots(self):
        rng = np.random.default_rng(313)
        cases = []
        for a in _parity_corpus():
            z = SimilarityMatrix(a)
            for _ in range(3):
                sub = np.flatnonzero(rng.uniform(size=z.n) < 0.7)
                ws = solve_weighting_space(z, sub if sub.size else None)
                if ws.particular is not None and ws.nullspace.shape[0] > 0:
                    cases += [(ws.particular, ws.nullspace), (ws.particular - 0.05, ws.nullspace)]
        # random spaces in _solve_affine's shape: the kernel basis is the
        # identity on a random free set, where x0 is 0 (or -0.05 once the
        # whole particular is shifted), and random on the pivot columns
        for trial in range(200):
            kb = int(rng.integers(2, 7))
            kn = int(rng.integers(1, kb))
            free = np.sort(rng.choice(kb, size=kn, replace=False))
            basis = rng.uniform(-1.0, 1.0, size=(kn, kb))
            basis[:, free] = np.eye(kn)
            x0 = rng.uniform(-1.0, 1.0, size=kb)
            x0[free] = 0.0
            cases.append((x0 - 0.05 if trial % 2 else x0, basis))
        found = 0
        for x0, basis in cases:
            w, ref = _phase1_nonneg(x0, basis), _phase1_by_rows(x0, basis)
            assert (w is None) == (ref is None)
            if w is not None:
                found += 1
                assert np.array_equal(w, ref)
        assert found >= 100 and len(cases) - found >= 50


def test_integral_floats_and_numpy_integers_are_accepted():
    # the integer check refuses only what it would otherwise truncate
    z = SimilarityMatrix(THREE_SPECIES)
    ws, ref = solve_weighting_space(z, [np.int64(2), 0.0]), solve_weighting_space(z, [0, 2])
    assert ws.subset == (0, 2) and type(ws.subset[0]) is int
    assert np.array_equal(ws.particular, ref.particular)
    g = ReflexiveGraph(np.int8(3), [(0.0, np.int64(1))])
    assert g == ReflexiveGraph(3, [(0, 1)]) and type(g.n) is int
    spec = GridSpec(3.0, np.int32(4))
    assert (spec.n, spec.resolution, spec.size()) == (3, 4, 15)
    p = extend_by_zero(uniform(1), [1], 2.0)
    assert np.array_equal(p.probs, [0.0, 1.0])
    assert np.array_equal(normalize_weighting([1.0, 3.0], [2, 0], np.int64(3)).probs, [0.25, 0.0, 0.75])
