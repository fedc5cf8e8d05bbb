"""One analysis of the full matrix per call: the definiteness verdicts and
the full-set solve are each computed once and shared by the fast path, the
species-preservation flags and ``maxdiv diagnose``.  The verdicts come from
Cholesky factorizations; only the diagnostics report computes an
eigenvalue.  A positive definite full set is solved by one LAPACK call, so
only a singular positive semidefinite one reaches the row reduction."""

import importlib
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from maxdiv import (
    Distribution,
    PreconditionError,
    SimilarityMatrix,
    adjacency_matrix,
    diversity,
    find_positive_weighting,
    full_support_diagnostics,
    is_ultrametric,
    maximize,
    maximize_exhaustive,
    solve_weighting_space,
)
from maxdiv.cli import main
from maxdiv.linalg import (
    PIVOT_RTOL,
    POSITIVITY_EPS,
    SOLVE_TOL,
    _phase1_nonneg,
    _rref,
    _definiteness,
    _solve_affine,
)
from maxdiv.maximize import SUBSET_CAP

from helpers import (
    ALL_ONES_2,
    THREE_SPECIES,
    path_adjacency,
    random_duplicated_psd,
    random_graph,
    random_psd,
    random_sdd,
    random_symmetric,
    random_ultrametric,
)


def _tree_ultrametric(n, base=0.85):
    """Ultrametric on a complete binary tree: species i and j are
    ``base ** bit_length(i ^ j)`` similar, at any n."""
    i = np.arange(n)
    depth = np.frompyfunc(int.bit_length, 1, 1)(i[:, None] ^ i[None, :]).astype(float)
    z = base**depth
    np.fill_diagonal(z, 1.0)
    return SimilarityMatrix(z)


def _count(monkeypatch, counts, owner, name):
    """Replace ``owner.name`` by a wrapper that counts calls in ``counts[name]``."""
    fn = getattr(owner, name)

    def counted(*args, **kwargs):
        counts[name] += 1
        return fn(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)


@pytest.fixture
def calls(monkeypatch):
    """Counts of ``np.linalg.eigvalsh``, ``np.linalg.cholesky``, row-reduction
    and ultrametric-test calls."""
    counts = {"eigvalsh": 0, "cholesky": 0, "_rref": 0, "is_ultrametric": 0}
    _count(monkeypatch, counts, np.linalg, "eigvalsh")
    _count(monkeypatch, counts, np.linalg, "cholesky")
    _count(monkeypatch, counts, importlib.import_module("maxdiv.linalg"), "_rref")
    _count(monkeypatch, counts, importlib.import_module("maxdiv.maximize"), "is_ultrametric")
    return counts


_RNG = np.random.default_rng(211)


@pytest.mark.parametrize(
    "z, method, cholesky, rref",
    [
        (_tree_ultrametric(128), "ultrametric", 1, 0),
        (random_sdd(_RNG, 128), "diagonal-dominance", 1, 0),
        (random_duplicated_psd(_RNG, 6), "positive-semidefinite", 2, 1),
        (random_symmetric(_RNG, 10), "exhaustive", 2, None),
        (path_adjacency(3), "exhaustive", 2, None),
    ],
    ids=["ultrametric-128", "diagonal-dominance-128", "duplicated-psd-6", "dense-10", "path-3"],
)
def test_maximize_analyses_the_full_matrix_once(calls, z, method, cholesky, rref):
    assert maximize(z).method == method
    # the verdicts need one factorization when Z is positive definite, two
    # otherwise; no eigenvalue is computed, not even at n=128
    assert (calls["eigvalsh"], calls["cholesky"]) == (0, cholesky)
    if rref is not None:
        assert calls["_rref"] == rref
    # the definiteness verdicts gate the fast path; the class tests only name its route,
    # so a matrix that is swept never runs them
    assert calls["is_ultrametric"] == (method != "exhaustive")


def test_diagnostics_report_one_eigenvalue(calls):
    d = full_support_diagnostics(_tree_ultrametric(128))
    assert d.positive_definite and d.min_eigenvalue > d.eigenvalue_floor
    assert (calls["eigvalsh"], calls["cholesky"], calls["_rref"]) == (1, 1, 0)


def test_diagnose_reduces_the_full_matrix_once(calls, tmp_path):
    # THREE_SPECIES is positive definite: one LAPACK solve, no row reduction
    m = tmp_path / "z.csv"
    m.write_text("\n".join(",".join(repr(float(v)) for v in row) for row in THREE_SPECIES) + "\n")
    result = CliRunner().invoke(main, ["diagnose", "--matrix", str(m)])
    assert result.exit_code == 0
    assert "positive semidefinite: yes" in result.output
    assert "magnitude: 1.4557" in result.output
    assert (calls["eigvalsh"], calls["_rref"]) == (1, 0)


def test_diagnose_reduces_a_singular_full_matrix_once(calls, tmp_path):
    # positive semidefinite but singular: the row reduction gives the kernel
    m = tmp_path / "z.csv"
    m.write_text("\n".join(",".join(repr(float(v)) for v in row) for row in ALL_ONES_2) + "\n")
    result = CliRunner().invoke(main, ["diagnose", "--matrix", str(m)])
    assert result.exit_code == 0
    assert "positive semidefinite: yes" in result.output
    assert "positive definite: no" in result.output
    assert "magnitude: 1\n" in result.output
    assert (calls["eigvalsh"], calls["_rref"]) == (1, 1)


def test_diagnose_without_a_weighting(calls, tmp_path):
    # not positive semidefinite (eigenvalue -1), and Z w = 1 is inconsistent
    # because row 3 is the sum of rows 1 and 2
    m = tmp_path / "z.csv"
    m.write_text("1,2,3\n2,1,3\n3,3,6\n")
    result = CliRunner().invoke(main, ["diagnose", "--matrix", str(m)])
    assert result.exit_code == 0
    assert "positive semidefinite: no" in result.output
    assert "magnitude: undefined (no weighting)" in result.output
    assert "positive weighting: none" in result.output
    assert (calls["eigvalsh"], calls["_rref"]) == (1, 1)


def test_diagnose_refuses_asymmetry_before_any_reduction(calls, tmp_path):
    z = np.random.default_rng(227).uniform(0.0, 0.5, size=(200, 200))
    np.fill_diagonal(z, 1.0)
    m = tmp_path / "z.csv"
    m.write_text("\n".join(",".join(repr(float(v)) for v in row) for row in z) + "\n")
    result = CliRunner().invoke(main, ["diagnose", "--matrix", str(m)])
    assert result.exit_code == 3
    assert "requires a symmetric similarity matrix" in result.output
    assert (calls["eigvalsh"], calls["_rref"]) == (0, 0)


# The names perfbench's tracer wraps in the module globals of maxdiv.maximize.
_TRACED = (
    "maximize_fast_path",
    "maximize_exhaustive",
    "full_support_diagnostics",
    "scan_subsets",
    "solve_weighting_space",
    "find_nonnegative_weighting",
    "find_positive_weighting",
    "is_ultrametric",
    "is_strictly_diagonally_dominant",
    "is_positive_semidefinite",
)


@pytest.fixture
def traced(monkeypatch):
    """Calls of each ``_TRACED`` name, counted where the tracer wraps it: a
    name that ``maxdiv.maximize`` does not import is never reached."""
    module = importlib.import_module("maxdiv.maximize")
    counts = dict.fromkeys(_TRACED, 0)
    for name in _TRACED:
        if hasattr(module, name):
            _count(monkeypatch, counts, module, name)
    return counts


@pytest.mark.parametrize("entry", ["maximize", "maximize_fast_path", "maximize_exhaustive"])
@pytest.mark.parametrize("z", [_tree_ultrametric(8), path_adjacency(4)], ids=["fast-path", "swept"])
def test_each_entry_point_analyses_the_full_matrix_once(traced, monkeypatch, entry, z):
    module = importlib.import_module("maxdiv.maximize")
    analyses = {"_full_support": 0}
    _count(monkeypatch, analyses, module, "_full_support")
    getattr(module, entry)(z)
    assert analyses["_full_support"] == 1
    # the report, with its eigenvalue, is not on any maximizer's route
    assert traced["full_support_diagnostics"] == 0


@pytest.mark.parametrize(
    "z, reached",
    [
        (_tree_ultrametric(8), {"find_nonnegative_weighting", "is_ultrametric"}),
        (
            random_sdd(np.random.default_rng(233), 8),
            {"find_nonnegative_weighting", "is_ultrametric", "is_strictly_diagonally_dominant"},
        ),
        (path_adjacency(4), {"scan_subsets", "solve_weighting_space"}),
    ],
    ids=["ultrametric", "diagonal-dominance", "swept"],
)
def test_maximize_reaches_the_traced_layers(traced, z, reached):
    # a refactor that routes maximize past one of these names would zero
    # that layer's metric in a traced benchmark run; a positive definite
    # full set is solved inside the analysis, past solve_weighting_space,
    # and the analysis runs past the diagnostics report
    maximize(z)
    assert {name for name, k in traced.items() if k} == reached | {"maximize_fast_path"}


def test_exhaustive_cap_is_checked_before_the_analysis(calls):
    with pytest.raises(PreconditionError, match=f"exceeds the exhaustive cap {SUBSET_CAP}"):
        maximize_exhaustive(SimilarityMatrix(np.eye(SUBSET_CAP + 1)))
    assert (calls["eigvalsh"], calls["cholesky"], calls["_rref"]) == (0, 0, 0)


def test_sweep_flags_match_a_fresh_analysis():
    # the sweep takes both flags as False from the declined fast path; a
    # separate analysis of the same matrix must agree
    rng = np.random.default_rng(223)
    cases = [path_adjacency(n) for n in range(3, 8)]
    for _ in range(40):
        n = int(rng.integers(2, 8))
        cases += [random_symmetric(rng, n), random_psd(rng, n), random_duplicated_psd(rng, n)]
        cases.append(adjacency_matrix(random_graph(rng, n, rng.uniform(0.2, 0.7))))
    swept = psd_swept = 0
    for z in cases:
        r = maximize(z)
        if r.method != "exhaustive":
            continue
        d = full_support_diagnostics(z)
        assert r.full_support_exists == d.exists_full_support_maximizer
        assert r.all_maximizers_full_support == d.all_maximizers_full_support
        swept += 1
        psd_swept += d.positive_semidefinite
    assert swept >= 50
    assert psd_swept >= 5  # positive semidefinite, no nonnegative weighting


def _gram_plus_identity(rng, n):
    x = rng.random((n, 3))
    return SimilarityMatrix(x @ x.T + np.eye(n))


def test_definite_verdict_implies_a_full_rank_reduction():
    # the LAPACK route reports no kernel, so it may run only where the row
    # reduction would find none: a positive definite verdict must never sit
    # on a matrix that _rref reduces below full rank
    rng = np.random.default_rng(239)
    makers = (
        random_symmetric,
        random_ultrametric,
        random_sdd,
        random_psd,
        random_duplicated_psd,
        _gram_plus_identity,
        lambda rng, n: adjacency_matrix(random_graph(rng, n, rng.uniform(0.2, 0.7))),
    )
    cases = [make(rng, int(rng.integers(2, 13))) for _ in range(40) for make in makers]
    cases += [
        random_ultrametric(rng, 128, min_gap=0.005),
        random_sdd(rng, 128),
        _gram_plus_identity(rng, 128),
    ]
    definite = 0
    for z in cases:
        if not _definiteness(z)[1]:
            continue
        definite += 1
        aug = np.concatenate([z.values, np.ones((z.n, 1))], axis=1)
        assert len(_rref(aug, z.n, PIVOT_RTOL * float(np.abs(z.values).max()))) == z.n
        got = full_support_diagnostics(z).weighting_space
        ref = solve_weighting_space(z)
        assert got.unique and got.subset == ref.subset
        # 1e-12 relative, widened on ill-conditioned Z to cond(Z)·1e-15: two
        # backward-stable solves differ by about cond(Z) times the roundoff
        rtol = 1e-15 * max(1e3, float(np.linalg.cond(z.values)))
        assert np.abs(got.particular - ref.particular).max() <= rtol * np.abs(ref.particular).max()
        assert abs(got.magnitude - ref.magnitude) <= rtol * np.abs(ref.particular).sum()
    assert definite >= 100
    assert definite < len(cases)  # the singular and indefinite families take part


def test_definite_solve_falls_back_on_a_failed_residual(calls, monkeypatch):
    z = SimilarityMatrix(THREE_SPECIES)
    ref = solve_weighting_space(z)
    calls["_rref"] = 0
    solve = np.linalg.solve
    monkeypatch.setattr(np.linalg, "solve", lambda a, b: solve(a, b) + 1e-6)
    got = full_support_diagnostics(z).weighting_space
    assert calls["_rref"] == 1
    assert (got.subset, got.magnitude, got.nonnegative) == (ref.subset, ref.magnitude, None)
    np.testing.assert_array_equal(got.particular, ref.particular)
    np.testing.assert_array_equal(got.nullspace, ref.nullspace)


def test_fast_path_kernel_with_positive_weighting_is_not_unique():
    # w ± t·u for a kernel vector u are two maximizers; with duplicated
    # species, the pair's mass can sit on either copy
    rng = np.random.default_rng(241)
    for _ in range(150):
        z = random_duplicated_psd(rng, int(rng.integers(3, 10)))
        r = maximize(z)
        assert r.method == "positive-semidefinite"
        assert r.unique is False
        v = z.values
        i, j = next((i, j) for i in range(z.n) for j in range(i) if (v[i] == v[j]).all())
        p = r.sample_maximizer.probs
        assert p[i] + p[j] > 1e-3  # so the two moves give distinct distributions
        for keep, drop in ((i, j), (j, i)):
            moved = p.copy()
            moved[keep], moved[drop] = p[i] + p[j], 0.0
            for q in (0.0, 1.0, 2.0, np.inf):
                assert diversity(z, Distribution(moved), q) == pytest.approx(r.dmax, rel=1e-9, abs=0.0)


def test_fast_path_kernel_without_positive_weighting_is_not_certified():
    # species 3 copies species 2, and Z is positive semidefinite with the
    # kernel e_3 - e_2.  No weighting is positive, so w ± t·u exhibits no
    # second maximizer, and the full set's weighting space alone cannot
    # settle the question: the route reports None.  (The maximizer
    # (1/2, 1/2, 0, 0, 0) is in fact unique.)
    z = SimilarityMatrix([
        [1.0, 0.0, 0.5, 0.5, 0.9],
        [0.0, 1.0, 0.5, 0.5, 0.1],
        [0.5, 0.5, 1.0, 1.0, 0.5],
        [0.5, 0.5, 1.0, 1.0, 0.5],
        [0.9, 0.1, 0.5, 0.5, 1.0],
    ])
    r = maximize(z)
    assert r.method == "positive-semidefinite"
    assert r.winners[0].weighting_space.nullspace.shape[0] == 1
    assert not r.full_support_exists
    assert r.unique is None
    assert np.abs(r.sample_maximizer.probs - [0.5, 0.5, 0.0, 0.0, 0.0]).max() <= 1e-12


def _positive_weighting_direct(z, subset, eps=POSITIVITY_EPS):
    """The former direct solve: ``w = eps + y`` with ``y >= 0`` and
    ``Z_B y = 1 - eps * Z_B 1``, reduced on its own right-hand side."""
    a = z.sub(subset)
    y0, nullspace = _solve_affine(a, 1.0 - eps * a.sum(axis=1))
    if y0 is None:
        return None
    if y0.min() < -SOLVE_TOL and nullspace.shape[0] == 0:
        return None
    y = y0 if y0.min() >= -SOLVE_TOL else _phase1_nonneg(y0, nullspace)
    if y is None:
        return None
    return eps + np.maximum(y, 0.0)


def test_positive_weighting_matches_direct_solve():
    rng = np.random.default_rng(227)
    makers = (random_symmetric, random_psd, random_duplicated_psd, random_sdd, random_ultrametric)
    outcomes = set()
    shared_kernel = 0
    for _ in range(80):
        for make in makers:
            z = make(rng, int(rng.integers(2, 9)))
            full = tuple(range(z.n))
            part = tuple(sorted(rng.choice(z.n, size=int(rng.integers(1, z.n + 1)), replace=False)))
            for subset in (full, part):
                got = find_positive_weighting(z, subset)
                ref = _positive_weighting_direct(z, subset)
                assert (got is None) == (ref is None)
                outcomes.add(got is None)
                if got is None:
                    continue
                if solve_weighting_space(z, subset).unique:
                    np.testing.assert_allclose(got, ref, rtol=0.0, atol=1e-12)
                else:
                    # another vertex of the same polytope may come back
                    shared_kernel += 1
                    assert got.min() >= POSITIVITY_EPS
                    assert np.abs(z.sub(subset) @ got - 1.0).max() <= 1e-9
    assert outcomes == {True, False}
    assert shared_kernel >= 20


def _ultrametric_cubic(z):
    """The n^3-memory form: every triple at once."""
    v = z.values
    n = z.n
    if n > 1 and v.diagonal().min() <= v[~np.eye(n, dtype=bool)].max():
        return False
    lows = np.minimum(v[:, :, None], v[None, :, :])  # min(Z_ij, Z_jk) at [i,j,k]
    return bool((v[:, None, :] >= lows).all())


def test_ultrametric_matches_cubic_form():
    rng = np.random.default_rng(229)
    verdicts = []
    for _ in range(150):
        z = random_ultrametric(rng, int(rng.integers(2, 12)))
        v = z.values.copy()
        i, j = rng.choice(z.n, size=2, replace=False)
        v[i, j] = v[j, i] = v[i, j] * rng.uniform(0.8, 1.1)
        for m in (z, SimilarityMatrix(v)):
            verdicts.append(is_ultrametric(m))
            assert verdicts[-1] == _ultrametric_cubic(m)
    assert 50 <= sum(verdicts) <= 250


def _perturbed_ultrametrics(rng, count):
    """``(family, matrix)`` pairs from ``count`` random ultrametrics at
    n = 1, ..., 12 in turn.  Each is relabelled, so species 0 need not be a
    cluster root, and half are rounded onto 2-3 levels, so most similar
    earlier species tie.  Each then also comes with one symmetric pair moved
    one ulp up, one ulp down, or onto another level of the matrix."""
    for k in range(count):
        n = 1 + k % 12
        order = rng.permutation(n)
        v = random_ultrametric(rng, n).values[np.ix_(order, order)]
        off = ~np.eye(n, dtype=bool)
        family = "relabelled"
        if rng.uniform() < 0.5:
            cuts = np.sort(rng.uniform(0.05, 0.95, size=int(rng.integers(1, 3))))
            levels = np.sort(rng.uniform(0.05, 0.95, size=cuts.size + 1))
            v[off] = levels[np.digitize(v[off], cuts)]  # monotone: stays ultrametric
            family = "rounded"
        yield family, SimilarityMatrix(v)
        if n < 2:
            continue
        i, j = rng.choice(n, size=2, replace=False)
        others = np.setdiff1d(v[off], v[i, j])
        moves = {"ulp-up": np.nextafter(v[i, j], np.inf), "ulp-down": np.nextafter(v[i, j], -np.inf)}
        if others.size:
            moves["other-level"] = rng.choice(others)
        for family, value in moves.items():
            u = v.copy()
            u[i, j] = u[j, i] = value
            yield family, SimilarityMatrix(u)


def test_ultrametric_matches_cubic_form_on_perturbed_ultrametrics():
    verdicts = Counter()
    for family, z in _perturbed_ultrametrics(np.random.default_rng(233), 600):
        verdict = is_ultrametric(z)
        assert verdict == _ultrametric_cubic(z), family
        verdicts[family, verdict] += 1
    for family in ("ulp-up", "ulp-down", "other-level"):
        assert verdicts[family, True] > 0 and verdicts[family, False] > 0, family
    for verdict in (True, False):
        assert sum(c for (_, v), c in verdicts.items() if v == verdict) >= 100


@st.composite
def three_level_matrices(draw):
    """A symmetric matrix of up to 7 species with unit diagonal and every
    off-diagonal entry from a 3-value set."""
    n = draw(st.integers(1, 7))
    pairs = n * (n - 1) // 2
    upper = np.zeros((n, n))
    upper[np.triu_indices(n, 1)] = draw(st.lists(st.sampled_from((0.25, 0.5, 0.75)), min_size=pairs, max_size=pairs))
    return SimilarityMatrix(np.eye(n) + upper + upper.T)


@settings(max_examples=300, deadline=None)
@given(z=three_level_matrices())
def test_ultrametric_matches_cubic_form_on_three_levels(z):
    assert is_ultrametric(z) == _ultrametric_cubic(z)


def test_ultrametric_memory_is_quadratic():
    z = _tree_ultrametric(200)  # the cubic form needs 64 MB here
    tracemalloc.start()
    try:
        assert is_ultrametric(z)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20
