"""Property tests: the lattice sweep and the library evaluate diversity with
one power mean, so every lattice value is the diversity at its point; the
subset sweep, which settles singular subsets by the tight-row closure,
answers exactly as the sweep that solves every one of them, and weights
every winner by a nonnegative solution of Z_B w = 1 that sums to Dmax; and
the maximizer meets the paper's theorems: its sample maximizer has a flat
profile at Dmax, no lattice point beats Dmax, and a graph's Dmax is its
independence number."""

import importlib
import math
import warnings
from unittest import mock

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from maxdiv import (
    GridSpec,
    SimilarityMatrix,
    adjacency_matrix,
    diversity,
    diversity_profile,
    find_positive_weighting,
    full_support_diagnostics,
    grid_max_multi,
    independence_number,
    maximize,
    maximize_exhaustive,
    normalize_weighting,
    power_mean,
    solve_weighting_space,
)

from helpers import (
    assert_same_result,
    near_duplicate_gram,
    random_distribution,
    random_duplicated_psd,
    random_graph,
    random_psd,
    random_sdd,
    random_symmetric,
    random_ultrametric,
    scan_every_subset,
    unpruned_reference,
    zero_weight_duplicates,
)

SPECIAL_ORDERS = (0.0, 1.0, 2.0, math.inf)


@st.composite
def similarity_bases(draw):
    """A unit-scale similarity matrix from one of three families.

    0/1 graph matrices and the identity have exact zeros, so Zp is zero off
    the support of many lattice points."""
    n = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(("symmetric", "graph", "identity")))
    if kind == "symmetric":
        return random_symmetric(rng, n).values
    if kind == "graph":
        return adjacency_matrix(random_graph(rng, n, rng.uniform(0.2, 0.8))).values
    return np.eye(n)


# At the two extreme scales the power sums over- or underflow for most
# orders, so the power mean takes its log-space fallback.
SCALES = (1e-300, 1.0, 1e200)


@settings(max_examples=80, deadline=None)
@given(
    base=similarity_bases(),
    scale=st.sampled_from(SCALES),
    m=st.integers(1, 9),
    drawn=st.lists(st.floats(0.0, 10.0), max_size=3),
)
@example(base=np.eye(1), scale=1e-300, m=1, drawn=[2.0625])  # subnormal power sum
def test_lattice_values_are_diversities_at_their_points(base, scale, m, drawn):
    z = SimilarityMatrix(scale * base)
    qs = SPECIAL_ORDERS + tuple(drawn)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        results = grid_max_multi(z, qs, GridSpec(z.n, m))
        for q, r in zip(qs, results):
            d = diversity(z, r.point, q)
            assert type(d) is float
            assert math.isclose(r.value, d, rel_tol=1e-12, abs_tol=0.0), (q, r.value, d)
            mean = power_mean(r.point, z.values @ r.point.probs, q - 1.0)
            assert type(mean) is float
        point = results[0].point
        ascending = sorted(set(qs))
        profile = diversity_profile(z, point, ascending)
        assert all(type(v) is float for v in profile.values)
        assert profile.values == tuple(diversity(z, point, q) for q in ascending)


@settings(max_examples=80, deadline=None)
@given(
    base=similarity_bases(),
    scale=st.sampled_from(SCALES),
    q=st.one_of(st.sampled_from(SPECIAL_ORDERS), st.floats(0.0, 10.0)),
    seed=st.integers(0, 2**32 - 1),
)
@example(base=np.eye(1), scale=1e-300, q=2.0625, seed=0)  # power sum 1e-319, subnormal
def test_diversity_scales_inversely_with_the_matrix(base, scale, q, seed):
    # D_q(p, cZ) = D_q(p, Z) / c.  A power sum that lands among the
    # subnormal doubles would break this by up to half the value.  For
    # 1e-3 <= |q - 1| < 1 the final power 1/(q - 1) multiplies the power
    # sum's relative rounding by 1/|q - 1|, so the bound widens there by
    # that factor; closer to q = 1 the power mean sums p (x^t - 1) with
    # expm1 and keeps full precision.
    p = random_distribution(np.random.default_rng(seed), base.shape[0])
    rel_tol = 1e-12 / min(1.0, abs(q - 1.0)) if abs(q - 1.0) >= 1e-3 else 1e-12
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        scaled = diversity(SimilarityMatrix(scale * base), p, q) * scale
        assert math.isclose(scaled, diversity(SimilarityMatrix(base), p, q), rel_tol=rel_tol, abs_tol=0.0)


MATRIX_FAMILIES = {
    "graph": lambda rng, n: adjacency_matrix(random_graph(rng, n, rng.uniform(0.2, 0.8))),
    "symmetric": random_symmetric,
    "duplicated": random_duplicated_psd,
    "psd": random_psd,
    "ultrametric": random_ultrametric,
    "sdd": random_sdd,
}
# 0/1 graph matrices and duplicated-species PSD matrices have many singular
# subsets, dense symmetric ones few; the other families are positive
# semidefinite, so maximize mostly takes the fast path on them.
SWEEP_FAMILIES = ("graph", "symmetric", "duplicated")


@st.composite
def family_matrices(draw, families=tuple(MATRIX_FAMILIES), max_n=8):
    """A symmetric matrix with 2 <= n <= ``max_n`` from one of ``families``
    of ``tests/helpers.py``."""
    n = draw(st.integers(2, max_n))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return MATRIX_FAMILIES[draw(st.sampled_from(families))](rng, n)


@settings(max_examples=60, deadline=None)
@given(z=family_matrices(SWEEP_FAMILIES))
def test_pruned_and_unpruned_winners_are_identical(z):
    assert_same_result(maximize_exhaustive(z), *unpruned_reference(z))


@st.composite
def few_level_matrices(draw):
    """c·L for a symmetric L with entries in {0, 1/2, 1} (diagonal in {1/2,
    1}) and c in {0.1, 0.3, 0.7, 1}: equal column sums and exact ties are
    common, so many subsets' column-sum bounds meet the maximum."""
    n = draw(st.integers(2, 8))
    levels = st.sampled_from((0.0, 0.5, 1.0))
    upper = draw(st.lists(levels, min_size=n * (n - 1) // 2, max_size=n * (n - 1) // 2))
    diag = draw(st.lists(st.sampled_from((0.5, 1.0)), min_size=n, max_size=n))
    values = np.diag(diag)
    values[np.triu_indices(n, 1)] = upper
    values = np.maximum(values, values.T)
    return SimilarityMatrix(draw(st.sampled_from((0.1, 0.3, 0.7, 1.0))) * values)


def _same_sweep(r, s):
    assert (r.dmax, r.unique, r.method) == (s.dmax, s.unique, s.method)
    assert np.array_equal(r.sample_maximizer.probs, s.sample_maximizer.probs)
    assert len(r.winners) == len(s.winners)
    for a, b in zip(r.winners, s.winners):
        assert (a.indices, a.magnitude) == (b.indices, b.magnitude)
        assert np.array_equal(a.weighting_space.nonnegative, b.weighting_space.nonnegative)


@settings(max_examples=150, deadline=None)
@given(z=few_level_matrices())
@example(z=SimilarityMatrix(np.full((4, 4), 0.3)))
def test_column_sum_pruning_keeps_ties_on_few_levels(z):
    # the sweep answers exactly as it does on the full classification; the
    # reference agrees up to its sample maximizer, which it takes from a
    # singular smallest winner's own solve instead of the zero-extended w_T
    pruned = maximize_exhaustive(z)
    with mock.patch.object(importlib.import_module("maxdiv.maximize"), "scan_subsets", scan_every_subset):
        _same_sweep(pruned, maximize_exhaustive(z))
    dmax, winners, unique, sample = unpruned_reference(z)
    assert (pruned.dmax, [fs.indices for fs in pruned.winners], pruned.unique) == (
        dmax, [fs.indices for fs in winners], unique
    )
    assert np.abs(pruned.sample_maximizer.probs - sample.probs).max() <= 1e-9


@st.composite
def zero_weight_duplicate_matrices(draw):
    return zero_weight_duplicates(np.random.default_rng(draw(st.integers(0, 2**32 - 1))))


@settings(max_examples=100, deadline=None)
@given(z=st.one_of(family_matrices(), zero_weight_duplicate_matrices()))
def test_swept_uniqueness_follows_the_winners_weightings(z):
    # every maximizer is a convex combination of the winners' normalized
    # weightings, so they decide uniqueness and the sweep never leaves it open
    r = maximize_exhaustive(z)
    reps = [normalize_weighting(fs.weighting_space.nonnegative, fs.indices, z.n) for fs in r.winners]
    assert r.unique is not None
    if r.unique:
        for p in reps:
            assert np.abs(p.probs - r.sample_maximizer.probs).max() <= 1e-9
    else:
        assert np.ptp([p.probs for p in reps], axis=0).max() > 1e-9
        for p in reps:
            for q in SPECIAL_ORDERS:
                assert math.isclose(diversity(z, p, q), r.dmax, rel_tol=1e-9), (p.probs, q)


@st.composite
def near_duplicate_matrices(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return near_duplicate_gram(rng, draw(st.integers(2, 8)))


@settings(max_examples=100, deadline=None)
@given(z=st.one_of(family_matrices(), near_duplicate_matrices()))
@example(z=random_duplicated_psd(np.random.default_rng(4), 8))
def test_every_winner_has_one_magnitude(z):
    # a winner's magnitude is its weighting space's, bit for bit, and a swept
    # winner's particular is its representative (for a singular winner, w_T
    # extended by zero, not its own solve's particular)
    for r in (maximize(z), maximize_exhaustive(z)):
        for fs in r.winners:
            assert fs.magnitude == fs.weighting_space.magnitude, fs.indices
            if r.method == "exhaustive":
                assert np.array_equal(fs.weighting_space.particular, fs.weighting_space.nonnegative), fs.indices


# perfbench's check_winners tolerance
WINNER_TOL = 1e-8


@settings(max_examples=60, deadline=None)
@given(z=family_matrices(SWEEP_FAMILIES))
def test_every_winner_weighting_solves_its_subset_and_sums_to_dmax(z):
    r = maximize_exhaustive(z)
    for fs in r.winners:
        idx = np.array(fs.indices)
        w = fs.weighting_space.nonnegative
        assert np.abs(z.values[np.ix_(idx, idx)] @ w - 1.0).max() <= WINNER_TOL
        assert w.min() >= -WINNER_TOL
        assert abs(w.sum() - r.dmax) <= WINNER_TOL * r.dmax
        assert abs(w.sum() - fs.magnitude) <= WINNER_TOL * r.dmax


def _scaled_space_matches(ws, ref, f):
    """``ws`` is ``ref`` with every weighting and the magnitude times ``f``."""
    assert ws.subset == ref.subset and np.array_equal(ws.nullspace, ref.nullspace)
    for a, b in ((ws.particular, ref.particular), (ws.nonnegative, ref.nonnegative)):
        assert (a is None) == (b is None)
        assert a is None or np.array_equal(a, b * f)
    assert ws.magnitude == (None if ref.magnitude is None else ref.magnitude * f)


@settings(max_examples=80, deadline=None)
@given(z=family_matrices(), k=st.integers(-40, 40))
def test_maximize_is_scale_free_under_powers_of_two(z, k):
    # 2^k·Z and Z are solved as one matrix scaled to a largest entry in
    # [1, 2), so the answers differ by the exact factor 2^-k
    f = 2.0**-k
    r, rk = maximize(z), maximize(SimilarityMatrix(2.0**k * z.values))
    assert rk.dmax == r.dmax * f
    assert (rk.unique, rk.full_support_exists, rk.all_maximizers_full_support) == (
        r.unique, r.full_support_exists, r.all_maximizers_full_support
    )
    assert np.array_equal(rk.sample_maximizer.probs, r.sample_maximizer.probs)
    assert [fs.indices for fs in rk.winners] == [fs.indices for fs in r.winners]
    for a, b in zip(rk.winners, r.winners):
        assert a.magnitude == b.magnitude * f
        _scaled_space_matches(a.weighting_space, b.weighting_space, f)
    if r.method != "diagonal-dominance":  # the one label that asks for a unit diagonal
        assert rk.method == r.method
    d, dk = full_support_diagnostics(z), full_support_diagnostics(SimilarityMatrix(2.0**k * z.values))
    assert (dk.exists_full_support_maximizer, dk.all_maximizers_full_support) == (
        d.exists_full_support_maximizer, d.all_maximizers_full_support
    )
    assert (dk.positive_semidefinite, dk.positive_definite) == (d.positive_semidefinite, d.positive_definite)
    assert (dk.min_eigenvalue, dk.eigenvalue_floor) == (d.min_eigenvalue / f, d.eigenvalue_floor / f)
    assert (dk.positive_weighting is None) == (d.positive_weighting is None)
    assert d.positive_weighting is None or np.array_equal(dk.positive_weighting, d.positive_weighting * f)
    assert (dk.weighting_space is None) == (d.weighting_space is None)
    if d.weighting_space is not None:
        _scaled_space_matches(dk.weighting_space, d.weighting_space, f)


# the orders the paper's main theorem is checked at
THEOREM_ORDERS = (0.0, 0.5, 1.0, 2.0, math.inf)


@settings(max_examples=60, deadline=None)
@given(z=family_matrices())
def test_sample_maximizer_has_a_flat_profile_at_dmax(z):
    # the main theorem: one distribution maximizes every order at once
    r = maximize(z)
    for q in THEOREM_ORDERS:
        assert abs(diversity(z, r.sample_maximizer, q) - r.dmax) <= 1e-8 * r.dmax, q


@settings(max_examples=40, deadline=None)
@given(z=family_matrices(max_n=4), m=st.integers(1, 12))
def test_no_lattice_point_beats_dmax(z, m):
    dmax = maximize(z).dmax
    for gm in grid_max_multi(z, THEOREM_ORDERS, GridSpec(z.n, m)):
        assert gm.value <= dmax * (1.0 + 1e-12)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 9), seed=st.integers(0, 2**32 - 1))
def test_graph_dmax_is_the_independence_number(n, seed):
    rng = np.random.default_rng(seed)
    g = random_graph(rng, n, rng.uniform(0.1, 0.9))
    dmax = maximize(adjacency_matrix(g)).dmax
    assert abs(dmax - independence_number(g)) <= 1e-9


POWERS = (-40, -7, 13, 40)


@settings(max_examples=100, deadline=None)
@given(z=family_matrices(), k=st.sampled_from(POWERS))
def test_weighting_space_scales_exactly_under_powers_of_two(z, k):
    # every pivot, residual and kernel entry of the row reduction of 2^k·Z
    # is the one of Z or that times 2^±k, so no tolerance sees the scale
    ws = solve_weighting_space(z)
    _scaled_space_matches(solve_weighting_space(SimilarityMatrix(2.0**k * z.values)), ws, 2.0**-k)


@settings(max_examples=60, deadline=None)
@given(z=family_matrices(), k=st.integers(-40, 40), data=st.data())
def test_positive_weighting_is_scale_free_under_powers_of_two(z, k, data):
    subset = data.draw(st.sets(st.integers(0, z.n - 1), min_size=1))
    zk = SimilarityMatrix(2.0**k * z.values)
    for b in (None, subset):
        w, wk = find_positive_weighting(z, b), find_positive_weighting(zk, b)
        assert (wk is None) == (w is None)
        assert w is None or np.array_equal(wk, w * 2.0**-k)
