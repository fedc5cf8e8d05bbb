"""Property tests: the lattice sweep and the library evaluate diversity with
one power mean, so every lattice value is the diversity at its point; and
the subset sweep, which settles singular subsets by the tight-row closure,
answers exactly as the sweep that solves every one of them."""

import math
import warnings

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from maxdiv import (
    GridSpec,
    SimilarityMatrix,
    adjacency_matrix,
    diversity,
    diversity_profile,
    grid_max_multi,
    maximize_exhaustive,
    power_mean,
)

from helpers import (
    assert_same_result,
    random_distribution,
    random_duplicated_psd,
    random_graph,
    random_symmetric,
    unpruned_reference,
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
    # subnormal doubles would break this by up to half the value.  Near
    # q = 1 the final power 1/(q - 1) multiplies the power sum's relative
    # rounding by 1/|q - 1|, so the bound widens there by that factor.
    p = random_distribution(np.random.default_rng(seed), base.shape[0])
    rel_tol = 1e-12 / min(1.0, abs(q - 1.0)) if q != 1.0 else 1e-12
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        scaled = diversity(SimilarityMatrix(scale * base), p, q) * scale
        assert math.isclose(scaled, diversity(SimilarityMatrix(base), p, q), rel_tol=rel_tol, abs_tol=0.0)


@st.composite
def sweep_matrices(draw):
    """A symmetric matrix with n <= 8 from one of three families: 0/1 graph
    matrices and duplicated-species PSD matrices have many singular
    subsets, dense symmetric ones few."""
    n = draw(st.integers(2, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(("graph", "symmetric", "duplicated")))
    if kind == "graph":
        return adjacency_matrix(random_graph(rng, n, rng.uniform(0.2, 0.8)))
    if kind == "symmetric":
        return random_symmetric(rng, n)
    return random_duplicated_psd(rng, n)


@settings(max_examples=60, deadline=None)
@given(z=sweep_matrices())
def test_pruned_and_unpruned_winners_are_identical(z):
    assert_same_result(maximize_exhaustive(z), *unpruned_reference(z))
