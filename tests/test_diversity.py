import math

import numpy as np
import pytest

from maxdiv import (
    DEFAULT_ORDERS,
    Distribution,
    InputError,
    PreconditionError,
    SimilarityMatrix,
    diversity,
    diversity_profile,
    extend_by_zero,
    normalize_weighting,
    power_mean,
    restrict,
    solve_weighting_space,
    uniform,
)

from helpers import (
    NONSYM,
    THREE_SPECIES,
    random_distribution,
    random_symmetric,
    random_ultrametric,
)

QGRID = (0.0, 0.5, 1.0, 2.0, 8.0, math.inf)


class TestDistribution:
    def test_validation(self):
        with pytest.raises(InputError):
            Distribution([0.5, 0.6])
        with pytest.raises(InputError):
            Distribution([1.2, -0.2])
        p = Distribution([0.5, 0.0, 0.5])
        assert list(p.support) == [0, 2]
        assert not p.full_support()
        assert uniform(3).full_support()

    def test_support_is_exact_positivity(self):
        p = Distribution([1.0 - 1e-17, 1e-17, 0.0])
        assert list(p.support) == [0, 1]


class TestPowerMean:
    def test_constant_vector_any_order(self):
        p = uniform(2)
        for t in (-math.inf, -3.0, 0.0, 1.0, 7.5, math.inf):
            assert power_mean(p, np.array([4.0, 4.0]), t) == pytest.approx(4.0)

    def test_arithmetic_and_geometric(self):
        p = Distribution([0.5, 0.5])
        x = np.array([1.0, 4.0])
        assert power_mean(p, x, 1.0) == pytest.approx(2.5)
        assert power_mean(p, x, 0.0) == pytest.approx(2.0)
        assert power_mean(p, x, math.inf) == 4.0
        assert power_mean(p, x, -math.inf) == 1.0

    def test_only_support_matters(self):
        p = Distribution([0.5, 0.0, 0.5])
        x = np.array([2.0, -1.0, 8.0])  # negative entry off support is fine
        assert power_mean(p, x, 0.0) == pytest.approx(4.0)

    def test_domain_violation(self):
        p = uniform(2)
        with pytest.raises(InputError):
            power_mean(p, np.array([0.0, 1.0]), 2.0)

    def test_extreme_orders_stay_finite(self):
        p = Distribution([0.25, 0.75])
        x = np.array([0.3, 2.5])
        big = power_mean(p, x, 5000.0)
        assert math.isfinite(big)
        assert big == pytest.approx(2.5, rel=1e-3)
        small = power_mean(p, x, -5000.0)
        assert small == pytest.approx(0.3, rel=1e-3)


class TestDiversity:
    def test_naive_model_effective_numbers(self):
        for n in (1, 2, 5, 9):
            z = SimilarityMatrix(np.eye(n))
            p = uniform(n)
            for q in QGRID:
                assert diversity(z, p, q) == pytest.approx(n, abs=1e-12)

    @pytest.mark.parametrize("q", [1 - 1e-5, 1 + 1e-5, 1 - 1e-7, 1 + 1e-7])
    def test_orders_near_one_keep_full_precision(self, q):
        # (sum p x^t)^(1/t) would raise the power sum's rounding to 1/|q - 1|
        naive = diversity(SimilarityMatrix(np.eye(3)), uniform(3), q)
        assert math.isclose(naive, 3.0, rel_tol=1e-15, abs_tol=0.0)
        tiny = diversity(SimilarityMatrix([[1e-300]]), uniform(1), q)
        assert math.isclose(tiny, 1e300, rel_tol=2e-13, abs_tol=0.0)

    def test_single_species(self):
        z = SimilarityMatrix(np.eye(2))
        p = Distribution([1.0, 0.0])
        for q in QGRID:
            assert diversity(z, p, q) == pytest.approx(1.0, abs=1e-14)

    def test_naive_special_orders(self):
        z = SimilarityMatrix(np.eye(2))
        p = Distribution([0.75, 0.25])
        assert diversity(z, p, 0) == pytest.approx(2.0, abs=1e-14)  # richness
        shannon = -(0.75 * math.log(0.75) + 0.25 * math.log(0.25))
        assert diversity(z, p, 1) == pytest.approx(math.exp(shannon), abs=1e-12)
        assert diversity(z, p, 2) == pytest.approx(1 / (0.75**2 + 0.25**2), abs=1e-12)
        assert diversity(z, p, math.inf) == pytest.approx(4 / 3, abs=1e-14)

    def test_nonsymmetric_order_two_formula(self):
        # D_2(p) = 2 / (3 (p1 - 1/2)^2 + 5/4) for the triangular matrix
        z = SimilarityMatrix(NONSYM)
        for p1 in (0.5, 0.3, 0.25, 0.8, 0.9):
            p = Distribution([p1, 1 - p1])
            expect = 2.0 / (3.0 * (p1 - 0.5) ** 2 + 1.25)
            assert diversity(z, p, 2) == pytest.approx(expect, abs=1e-12)

    def test_three_species_order_two_is_reciprocal_quadratic_form(self):
        z = SimilarityMatrix(THREE_SPECIES)
        p = uniform(3)
        quad = p.probs @ THREE_SPECIES @ p.probs  # independent evaluation
        assert quad == pytest.approx(32 / 45, abs=1e-15)  # entry sum 6.4 over 9
        assert diversity(z, p, 2) == pytest.approx(1.0 / quad, abs=1e-13)

    def test_order_two_reciprocal_identity_random(self):
        rng = np.random.default_rng(41)
        for _ in range(200):
            n = int(rng.integers(1, 8))
            z = random_symmetric(rng, n)
            p = random_distribution(rng, n)
            assert diversity(z, p, 2) * (p.probs @ z.values @ p.probs) == pytest.approx(
                1.0, abs=1e-12
            )

    def test_bounds_under_scaled_hypotheses(self):
        # with entries in [0,1] and unit diagonal, 1 <= D <= n
        rng = np.random.default_rng(43)
        for _ in range(500):
            n = int(rng.integers(1, 8))
            z = random_symmetric(rng, n)
            p = random_distribution(rng, n)
            for q in QGRID:
                d = diversity(z, p, q)
                assert 1.0 - 1e-12 <= d <= n + 1e-12

    def test_bad_inputs(self):
        z = SimilarityMatrix(np.eye(2))
        with pytest.raises(InputError):
            diversity(z, uniform(3), 1)
        with pytest.raises(InputError):
            diversity(z, uniform(2), -0.5)
        with pytest.raises(InputError):
            diversity(z, uniform(2), math.nan)


class TestProfile:
    def test_uniform_naive_profile_constant(self):
        z = SimilarityMatrix(np.eye(2))
        prof = diversity_profile(z, uniform(2), (0.0, 1.0, 2.0, math.inf))
        assert all(v == pytest.approx(2.0, abs=1e-14) for v in prof.values)

    def test_skewed_naive_profile_endpoints(self):
        z = SimilarityMatrix(np.eye(2))
        prof = diversity_profile(z, Distribution([0.75, 0.25]), (0.0, math.inf))
        assert prof.values[0] == pytest.approx(2.0, abs=1e-14)
        assert prof.values[1] == pytest.approx(4 / 3, abs=1e-14)

    def test_three_species_published_maximizer_profile(self):
        z = SimilarityMatrix(THREE_SPECIES)
        p = Distribution([0.478, 0.261, 0.261])  # rounded to three decimals
        prof = diversity_profile(z, p, DEFAULT_ORDERS)
        assert prof.spread() <= 1e-3

    def test_default_grid_shape(self):
        assert DEFAULT_ORDERS[0] == 0.0
        assert math.isinf(DEFAULT_ORDERS[-1])
        z = SimilarityMatrix(np.eye(3))
        prof = diversity_profile(z, uniform(3))
        assert len(prof.values) == len(DEFAULT_ORDERS)

    def test_orders_must_ascend(self):
        z = SimilarityMatrix(np.eye(2))
        with pytest.raises(InputError):
            diversity_profile(z, uniform(2), (1.0, 0.5))

    def test_increasing_values_rejected(self):
        from maxdiv import DiversityProfile, NumericalError

        with pytest.raises(NumericalError):
            DiversityProfile((0.0, 1.0), (1.5, 1.5 + 1e-6))
        # slack room for roundoff
        DiversityProfile((0.0, 1.0), (1.5, 1.5 + 1e-12))

    def test_monotone_dichotomy_random(self):
        # profiles decrease; strictly when Zp is not constant on the support,
        # and identically 1/K when (Zp)_i = K there
        rng = np.random.default_rng(47)
        grid = (0.0, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, math.inf)
        for _ in range(500):
            n = int(rng.integers(1, 7))
            z = random_symmetric(rng, n)
            p = random_distribution(rng, n)
            prof = diversity_profile(z, p, grid)
            vals = prof.values
            assert all(b <= a + 1e-9 for a, b in zip(vals, vals[1:]))
            xp = (z.values @ p.probs)[p.support]
            if xp.max() - xp.min() > 1e-9 * xp.max():
                assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_profile_equals_per_order_diversity_bitwise(self):
        # the profile takes p and Zp on the support once for every order
        rng = np.random.default_rng(59)
        with_zeros = 0
        for _ in range(200):
            n = int(rng.integers(1, 9))
            z = random_symmetric(rng, n, unit_diag=bool(rng.integers(2)))
            p = random_distribution(rng, n, zero_prob=0.4)
            with_zeros += not p.full_support()
            prof = diversity_profile(z, p)
            assert prof.values == tuple(diversity(z, p, q) for q in DEFAULT_ORDERS)
        assert with_zeros >= 50

    def test_constant_profile_at_invariant_distribution(self):
        rng = np.random.default_rng(53)
        count = 0
        for _ in range(120):
            n = int(rng.integers(2, 7))
            z = random_ultrametric(rng, n)
            ws = solve_weighting_space(z)
            if ws.particular is None or ws.particular.min() <= 0:
                continue
            count += 1
            p = Distribution(ws.particular / ws.particular.sum())
            prof = diversity_profile(z, p, QGRID)
            assert prof.spread() <= 1e-10
            assert prof.values[0] == pytest.approx(ws.magnitude, rel=1e-10)
        assert count >= 100

    def test_limits_approach_closed_forms(self):
        # q -> 1 and q -> inf continuity: differences shrink along the
        # approach, and at an invariant point they vanish to 1e-6
        rng = np.random.default_rng(59)
        for _ in range(50):
            n = int(rng.integers(2, 6))
            z = random_symmetric(rng, n, lo=0.1, hi=0.9)
            p = random_distribution(rng, n, zero_prob=0.0)
            d1 = diversity(z, p, 1.0)
            gaps = [abs(diversity(z, p, q) - d1) for q in (0.9, 0.99, 0.999)]
            assert gaps[2] <= gaps[1] * 1.01 + 1e-15
            assert gaps[1] <= gaps[0] * 1.01 + 1e-15
            dinf = diversity(z, p, math.inf)
            far = abs(diversity(z, p, 1e4) - dinf)
            nearer = abs(diversity(z, p, 1e5) - dinf)
            assert nearer <= far * 1.01 + 1e-15
        # well-conditioned case: an invariant distribution, where the profile
        # is flat and the limits agree to 1e-6
        for _ in range(30):
            n = int(rng.integers(2, 7))
            z = random_ultrametric(rng, n)
            ws = solve_weighting_space(z)
            if ws.particular is None or ws.particular.min() <= 0:
                continue
            p = Distribution(ws.particular / ws.particular.sum())
            assert abs(diversity(z, p, 0.999) - diversity(z, p, 1.0)) <= 1e-6
            assert abs(diversity(z, p, 1e4) - diversity(z, p, math.inf)) <= 1e-6


class TestRestriction:
    def test_restrict_examples(self):
        p = Distribution([0.5, 0.0, 0.5])
        r = restrict(p, [0, 2])
        assert np.array_equal(r.probs, [0.5, 0.5])
        with pytest.raises(PreconditionError):
            restrict(p, [0, 1])
        with pytest.raises(PreconditionError):
            restrict(p, [0, 2, 2])
        with pytest.raises(PreconditionError):
            extend_by_zero(Distribution([0.5, 0.5]), [1, 1], 3)

    @pytest.mark.parametrize(
        "subset, message",
        [([], "nonempty"), ([1, 1], "repeated"), ([0, 3], "out of range")],
        ids=["empty", "repeated", "out-of-range"],
    )
    @pytest.mark.parametrize(
        "caller", ["solve_weighting_space", "restrict", "extend_by_zero", "normalize_weighting"]
    )
    def test_one_subset_validator(self, caller, subset, message):
        # every entry point taking a subset of range(3) applies the same rules
        calls = {
            "solve_weighting_space": lambda: solve_weighting_space(SimilarityMatrix(THREE_SPECIES), subset),
            "restrict": lambda: restrict(uniform(3), subset),
            "extend_by_zero": lambda: extend_by_zero(Distribution([0.5, 0.5]), subset, 3),
            "normalize_weighting": lambda: normalize_weighting([0.5, 0.5], subset, 3),
        }
        with pytest.raises(PreconditionError, match=message):
            calls[caller]()

    def test_round_trip(self):
        rng = np.random.default_rng(61)
        for _ in range(50):
            n = int(rng.integers(2, 9))
            p = random_distribution(rng, n)
            sup = list(p.support)
            extra = [i for i in range(n) if i not in sup and rng.uniform() < 0.3]
            subset = sorted(sup + extra)
            back = extend_by_zero(restrict(p, subset), subset, n)
            assert np.array_equal(back.probs, p.probs)

    def test_absent_species_identity_exact(self):
        # dropping zero-abundance species changes nothing, bit for bit
        rng = np.random.default_rng(67)
        for trial in range(200):
            n = int(rng.integers(2, 9))
            z = random_symmetric(rng, n) if trial % 2 else _random_nonsym(rng, n)
            p = random_distribution(rng, n, zero_prob=0.5)
            sup = list(p.support)
            extra = [i for i in range(n) if i not in sup and rng.uniform() < 0.3]
            subset = sorted(sup + extra)
            zb = SimilarityMatrix(z.sub(subset))
            pb = restrict(p, subset)
            for q in QGRID:
                assert diversity(zb, pb, q) == diversity(z, p, q)


def _random_nonsym(rng, n):
    a = rng.uniform(0.0, 1.0, size=(n, n))
    np.fill_diagonal(a, 1.0)
    return SimilarityMatrix(a)


@pytest.mark.parametrize(
    "call, error",
    [
        (lambda: Distribution([[0.5, 0.5]]), InputError),
        (lambda: Distribution([math.nan, 1.0]), InputError),
        (lambda: power_mean(uniform(2), [1.0, 2.0, 3.0], 1.0), InputError),
        (lambda: power_mean(uniform(2), [1.0, 2.0], math.nan), InputError),
        # Z_00·p_0 = 1e-300·1e-300 underflows to 0 on the support
        (lambda: diversity(SimilarityMatrix(np.diag([1e-300, 1.0])), Distribution([1e-300, 1.0]), 2.0), InputError),
        (lambda: diversity_profile(SimilarityMatrix(np.eye(2)), uniform(2), ()), InputError),
        (lambda: extend_by_zero(uniform(2), [0, 1, 2], 4), PreconditionError),
        # subset indices are refused, not truncated, unless integral
        (lambda: solve_weighting_space(SimilarityMatrix(np.eye(2)), [0.5, 1]), InputError),
        (lambda: restrict(uniform(2), [0, 1.5]), InputError),
        (lambda: extend_by_zero(uniform(2), [0, "1"], 3), InputError),
        (lambda: normalize_weighting([1.0, 1.0], [0, 2.5], 3), InputError),
        (lambda: normalize_weighting("x", [0], 2), InputError),
        # and so are sizes
        (lambda: extend_by_zero(uniform(1), [0], 2.5), InputError),
        (lambda: normalize_weighting([1.0], [0], 2.5), InputError),
    ],
    ids=["not-a-vector", "nan-entry", "power-mean-length", "power-mean-nan-order",
         "ordinariness-underflow", "empty-order-grid", "extension-size",
         "fractional-solve-index", "fractional-restrict-index", "string-extension-index",
         "fractional-weighting-index", "string-weighting-entry", "fractional-extension-size", "fractional-weighting-size"],
)
def test_invalid_input_is_refused(call, error):
    with pytest.raises(error):
        call()
