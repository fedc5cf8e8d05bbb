"""Finding the distributions that maximize diversity of every order at once.

Dmax is the same for every order q (the paper's main theorem), so the
maximizers are the global minimizers of pᵀZp = 1/D_2(p) on the simplex
(Bomze 1998): there (Zp)_j ≥ 1/Dmax for every j, with equality on the
support, and Dmax is the largest magnitude of a subset whose submatrix has
a nonnegative weighting.  The exhaustive route scans the subsets in one
batched elimination, which skips each subset whose column sums bound its
magnitude below the running maximum and fixes the maximum over the
nonsingular subsets.  It settles every singular one by a tight-row closure
of the tying ones (see :func:`maximize_exhaustive`), with no row reduction
or LP per subset.
When Z is positive semidefinite and the full set has a nonnegative
weighting, its weighting space generates every maximizing distribution, so
:func:`maximize_fast_path` answers from two definiteness verdicts and one
solve of ``Z w = 1``: a single LAPACK solve when Z is positive definite, a
row reduction that also yields the kernel when Z is only semidefinite.  The
verdicts come from Cholesky factorizations (see
:func:`~maxdiv.linalg._definiteness`); no route computes an eigenvalue,
which only :func:`full_support_diagnostics` reports.
:func:`maximize` takes that route when it applies.  Both routes work on Z
divided by the power of two that brings its largest entry into [1, 2),
where the solver tolerances are sized, and scale their answer back, so
scaling Z by 2^k scales every magnitude and weighting by exactly 2^-k.
Each winner is built once, in one step to Z's units that refuses a value
beyond the float64 range, and its magnitude is its weighting space's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .diversity import Distribution, _normalized, _support_ordinariness, extend_by_zero
from .errors import InputError, PreconditionError
from .kernels import DOMINATED, UNIQUE_NONNEG, UNRELIABLE, UNRESOLVED, scan_subsets
from .linalg import (
    SOLVE_TOL,
    SimilarityMatrix,
    WeightingSolution,
    _check_integer,
    _check_subset,
    _definiteness,
    _eigenvalue_floor,
    _positive_weighting,
    _require_symmetric,
    _solve_definite,
    _tie_threshold,
    _unit_exponent,
    _unscaled,
    find_nonnegative_weighting,
    is_strictly_diagonally_dominant,
    is_ultrametric,
    solve_weighting_space,
)

# Largest n the exhaustive sweep accepts: it enumerates 2^n - 1 subsets.
SUBSET_CAP = 30
# Relative spread of Zp over the support below which a distribution counts as
# having a constant diversity profile.
INVARIANT_RTOL = 1e-9

@dataclass(frozen=True)
class FeasibleSubset:
    """A subset B whose submatrix admits a nonnegative weighting, with its
    magnitude and the full weighting space (affine description plus one
    nonnegative representative w); ``magnitude`` is the space's.  A winner's
    w solves Z_B w = 1 within 1e-8, sums to ``dmax`` within 1e-8·dmax, and
    has no entry below -1e-8·2^-e, where 2^e brings Z's largest entry into
    [1, 2).  A swept winner's ``particular`` is w: a tying nonsingular T's
    weighting, extended by zero (with T's magnitude) when B is singular."""

    indices: tuple[int, ...]
    magnitude: float
    weighting_space: WeightingSolution


@dataclass(frozen=True)
class FullSupportDiagnostics:
    """Whether maximization preserves all species, with certificates.
    ``weighting_space`` is the one full-set solve, made exactly when Z is
    positive semidefinite (else ``None``): one LAPACK solve when Z is
    positive definite, else a row reduction, which also gives the kernel;
    ``diagnose`` reuses it.  ``maximize`` makes the same analysis but skips
    the ``eigvalsh`` behind ``min_eigenvalue``, which only this report holds."""

    exists_full_support_maximizer: bool
    all_maximizers_full_support: bool
    positive_semidefinite: bool
    positive_definite: bool
    min_eigenvalue: float
    eigenvalue_floor: float
    positive_weighting: np.ndarray | None
    weighting_space: WeightingSolution | None


@dataclass(frozen=True)
class MaximizationResult:
    dmax: float
    winners: tuple[FeasibleSubset, ...]
    sample_maximizer: Distribution
    full_support_exists: bool
    all_maximizers_full_support: bool
    method: str
    unique: bool | None  # None only on the fast path: a kernel, no positive weighting


def normalize_weighting(w, subset, n: int) -> Distribution:
    """Distribution proportional to ``w`` on ``subset``, zero elsewhere; the
    entries of ``w`` follow the ascending order of the subset's indices."""
    size = len(_check_subset(_check_integer(n, "size"), subset))
    try:
        w = np.asarray(w, dtype=np.float64)
    except (TypeError, ValueError):
        raise InputError(f"weighting {w!r} is not a vector of numbers") from None
    if w.shape != (size,):
        raise InputError(f"weighting has {w.shape} entries for a subset of size {size}")
    if w.min() < -100 * SOLVE_TOL:
        raise InputError(f"weighting entry {w.min()!r} is negative")
    if w.max() <= 0:
        raise InputError("weighting must be nonnegative and nonzero")
    return extend_by_zero(Distribution(_normalized(w)), subset, n)


def is_invariant(z: SimilarityMatrix, p: Distribution) -> bool:
    """True when (Zp)_i is constant over the support of p, within
    ``INVARIANT_RTOL``; equivalently, the diversity profile of p is constant in q."""
    xp = _support_ordinariness(z, p)[1]
    return bool(xp.max() - xp.min() <= INVARIANT_RTOL * xp.max())


def _unit_scale(z: SimilarityMatrix) -> tuple[SimilarityMatrix, int]:
    """``(Z / 2^e, e)`` with ``e = floor(log2(max Z))``, Z refused if asymmetric.

    The solver tolerances (``SOLVE_TOL``, the tie slack ``TIE_RTOL·max(1,
    ·)``, ``POSITIVITY_EPS`` and the LP's) are absolute and sized for entries
    of order one, while scaling Z by c scales every weighting and magnitude
    by 1/c.  So the maximizer works on Z / 2^e, whose largest entry lies in
    [1, 2), and scales its weightings and magnitudes back by 2^-e.  Powers
    of two scale exactly: Z and 2^k·Z reach the same scaled matrix, and a
    matrix whose largest entry already lies in [1, 2) is used as it is.
    """
    _require_symmetric(
        z,
        "maximization, whose supremum for a nonsymmetric matrix can vary with "
        "the order q and need not be attained by any distribution,",
    )
    e = _unit_exponent(z.values)
    return (z, 0) if e == 0 else (SimilarityMatrix(np.ldexp(z.values, -e)), e)


def _rescaled_space(ws: WeightingSolution | None, e: int) -> WeightingSolution | None:
    """A weighting space of Z / 2^e as that of Z: weightings and magnitude
    times 2^-e, kernel as is; refused when they leave the float64 range."""
    if ws is None or e == 0:
        return ws
    return replace(
        ws,
        particular=_unscaled(ws.particular, e),
        nonnegative=_unscaled(ws.nonnegative, e),
        magnitude=_unscaled(ws.magnitude, e),
    )


def _winner(ws: WeightingSolution, e: int) -> FeasibleSubset:
    """A winner of Z from its weighting space on Z / 2^e, whose
    representative and magnitude are set: the magnitude is the space's."""
    ws = _rescaled_space(ws, e)
    return FeasibleSubset(ws.subset, ws.magnitude, ws)


def _full_support(zs: SimilarityMatrix):
    """``(psd, pd, weighting space, positive weighting)`` of a unit-scaled
    symmetric ``zs`` (see :func:`_unit_scale`), in its own units.  The space
    is solved exactly when ``zs`` is positive semidefinite (else ``None``):
    one LAPACK solve when it is positive definite, else a row reduction,
    which also gives the kernel."""
    psd, pd = _definiteness(zs)
    ws = _solve_definite(zs) if pd else solve_weighting_space(zs) if psd else None
    return psd, pd, ws, None if ws is None else _positive_weighting(ws)


def _flags(psd: bool, pd: bool, pos) -> tuple[bool, bool]:
    """Whether some maximizer, and whether every maximizer, has full support:
    Z positive semidefinite, resp. definite, with a positive weighting."""
    return psd and pos is not None, pd and pos is not None


def full_support_diagnostics(z: SimilarityMatrix) -> FullSupportDiagnostics:
    """Species-preservation report: the maximizer's own analysis plus one
    ``eigvalsh`` for the reported smallest eigenvalue.

    A full-support maximizer exists exactly when Z is positive semidefinite
    and admits a positive weighting; every maximizer has full support exactly
    when Z is positive definite with positive weighting.  The verdicts come
    from Cholesky factorizations of Z shifted by ``±floor``, as ``maximize``
    reaches them, and the eigenvalue is only reported: it can disagree with
    them only within about n·u·max|Z| of ``±floor`` (u the unit roundoff).
    The verdicts are reached on Z / 2^e (see :func:`_unit_scale`), so they do
    not change when Z is scaled by a power of two; the eigenvalues and
    weightings reported are Z's own.
    """
    zs, e = _unit_scale(z)
    psd, pd, ws, pos = _full_support(zs)
    exists, every = _flags(psd, pd, pos)
    return FullSupportDiagnostics(
        exists_full_support_maximizer=exists,
        all_maximizers_full_support=every,
        positive_semidefinite=psd,
        positive_definite=pd,
        min_eigenvalue=math.ldexp(float(np.linalg.eigvalsh(zs.values).min()), e),
        eigenvalue_floor=math.ldexp(_eigenvalue_floor(zs), e),
        positive_weighting=_unscaled(pos, e),
        weighting_space=_rescaled_space(ws, e),
    )


def _mask_indices(mask: int, n: int) -> tuple[int, ...]:
    return tuple(i for i in range(n) if (mask >> i) & 1)


def _solve(z: SimilarityMatrix, mask: int) -> WeightingSolution:
    return solve_weighting_space(z, _mask_indices(mask, z.n))


def maximize_exhaustive(z: SimilarityMatrix) -> MaximizationResult:
    """Maximum diversity and all maximizing distributions by subset sweep.

    Reports, in increasing cardinality (lexicographic within), every subset
    whose submatrix has a nonnegative weighting with magnitude tying for the
    maximum.  Matrices larger than ``SUBSET_CAP`` are refused before any
    work starts.  The batched scan skips every subset whose column-sum bound
    proves that it cannot tie (``DOMINATED``; the proof is in
    :func:`~maxdiv.kernels.scan_subsets`) and settles the nonsingular
    subsets among the rest.  An ``UNRELIABLE`` one (full rank, failed
    residual) is solved before the maximum is taken; if it proves
    rank-deficient it joins the ``UNRESOLVED`` (singular) subsets.  Each
    tying nonsingular T is solved once and its tight rows marked: j ∉ T with
    |Z_{jT} w_T - 1| <= ``SOLVE_TOL``.  Every singular B with T ⊆ B ⊆ T ∪
    tight(T) wins, weighted by w_T extended by zero, with T's magnitude and
    the kernel of its own one solve.

    No winner is missed.  Take a winner B; the maximizers p supported in B
    with Z_B p = (1/Dmax)·1 form a polytope.  Let p* be a vertex, with
    support T.  If Z_T u = 0 for some u ≠ 0, then 1ᵀu = Dmax·p*ᵀZu = 0, so
    p* ± tu are maximizers for small t, and their KKT conditions force
    Z_{BT} u = 0; then p* ± tu lie in the polytope and p* is no vertex.  So
    Z_T is nonsingular, T ties with w_T = Dmax·p*_T ≥ 0, and every row of
    B outside T is tight: no singular subset raises the maximum.  So every
    maximizer is a convex combination of the normalized w_T, and it is
    unique exactly when these coincide.
    """
    return _sweep(z, None)


def _sweep(z: SimilarityMatrix, full_support) -> MaximizationResult:
    """:func:`maximize_exhaustive`; ``full_support`` is the flag pair, or
    ``None`` to analyse Z (which refuses an asymmetric Z)."""
    if z.n > SUBSET_CAP:
        raise PreconditionError(f"matrix size {z.n} exceeds the exhaustive cap {SUBSET_CAP}")
    z, e = _unit_scale(z)
    if full_support is None:
        psd, pd, _, pos = _full_support(z)
        full_support = _flags(psd, pd, pos)
    status, mags = scan_subsets(z.values)
    import logging  # here, not at the top: only the sweep logs, and the import costs ~5 ms

    if (log := logging.getLogger("maxdiv")).isEnabledFor(logging.DEBUG):
        log.debug(
            "subset scan n=%d: %d unique_nonneg, %d unique_neg, %d unresolved, %d unreliable, %d dominated",
            z.n, *np.bincount(status, minlength=DOMINATED + 1).tolist(),
        )

    # magnitudes of feasible nonsingular subsets, indexed by mask - 1 (NaN elsewhere)
    mags = np.where(status == UNIQUE_NONNEG, mags, np.nan)
    solved = {}  # UNRELIABLE mask -> its weighting space, reused if it wins
    for mask in (np.flatnonzero(status == UNRELIABLE) + 1).tolist():
        ws = solved[mask] = _solve(z, mask)
        if ws.unique and ws.particular.min() >= -SOLVE_TOL:
            mags[mask - 1] = ws.magnitude
        elif ws.nullspace.shape[0]:
            status[mask - 1] = UNRESOLVED  # settled with the singular subsets
    singular = np.flatnonzero(status == UNRESOLVED) + 1

    winners = {}  # mask -> its winner, in Z's units
    bits = 1 << np.arange(z.n, dtype=np.int64)
    with np.errstate(invalid="ignore"):  # NaN: no nonnegative weighting
        tying = np.flatnonzero(mags >= _tie_threshold(float(np.nanmax(mags)))) + 1
    for t in tying.tolist():
        ws = solved.get(t) or _solve(z, t)
        tight = np.abs(z.values[:, ws.subset] @ ws.particular - 1.0) <= SOLVE_TOL
        cover = t | int(bits[tight].sum())
        # T, and the singular supersets of T that its tight rows cover
        for b in {t, *singular[((singular & t) == t) & ((singular & ~cover) == 0)].tolist()} - winners.keys():
            rep = np.zeros(b.bit_count())
            rep[np.searchsorted(_mask_indices(b, z.n), ws.subset)] = ws.particular
            own = ws if b == t else solved.get(b) or _solve(z, b)
            winners[b] = _winner(replace(own, particular=rep, nonnegative=rep, magnitude=ws.magnitude), e)
    order = sorted(winners, key=lambda m: (m.bit_count(), _mask_indices(m, z.n)))
    # True: the winners' weightings span every maximizer (the vertex argument)
    return _result(z.n, tuple(winners[m] for m in order), full_support, "exhaustive", True)


def _result(n: int, winners, full_support, method: str, unique) -> MaximizationResult:
    """Either route's result from its finished winners, each normalized
    once: the sample maximizer is that of the smallest index tuple, and
    ``unique`` is False when two differ by over 1e-9, else the route's verdict."""
    reps = np.zeros((len(winners), n))
    for rep, fs in zip(reps, winners):
        rep[list(fs.indices)] = _normalized(fs.weighting_space.nonnegative)
    first = min(range(len(winners)), key=lambda i: winners[i].indices)
    return MaximizationResult(
        dmax=max(fs.magnitude for fs in winners),
        winners=winners,
        sample_maximizer=Distribution(reps[first]),
        full_support_exists=full_support[0],
        all_maximizers_full_support=full_support[1],
        method=method,
        unique=False if np.ptp(reps, axis=0).max() > 1e-9 else unique,
    )


def maximize_fast_path(z: SimilarityMatrix) -> MaximizationResult | None:
    """Polynomial-time route for positive semidefinite matrices.

    Returns ``None`` (callers fall back to the exhaustive sweep) when Z is
    not positive semidefinite or the full set has no nonnegative weighting.
    Otherwise the full set's weighting space generates every maximizing
    distribution, and the reported winner list holds only the full set:
    proper subsets may tie, but their maximizers already lie in that space.
    Ultrametric and strictly diagonally dominant matrices are positive
    definite, so their class tests only name the route in ``method``, and
    run only once the route applies.  The route works on Z / 2^e (see
    :func:`_unit_scale`) and scales its answer back, so it is the same for
    every 2^k·Z up to that factor; only the ``diagonal-dominance`` label,
    which asks for a unit diagonal, depends on the scale of Z.
    """
    zs, e = _unit_scale(z)
    psd, pd, ws, pos = _full_support(zs)
    w = None if ws is None else find_nonnegative_weighting(ws)
    if w is None:
        return None
    if is_ultrametric(z):
        method = "ultrametric"
    elif np.abs(z.values.diagonal() - 1.0).max() <= 1e-12 and is_strictly_diagonally_dominant(z):
        method = "diagonal-dominance"
    else:
        method = "positive-semidefinite"
    # a kernel u and a positive w give two maximizers w ± t·u (1ᵀu = wᵀZu = 0);
    # a kernel and no positive weighting leave the full set's space undecided
    unique = True if ws.unique else False if pos is not None else None
    return _result(z.n, (_winner(ws.with_nonnegative(w), e),), _flags(psd, pd, pos), method, unique)


def maximize(z: SimilarityMatrix) -> MaximizationResult:
    """Fast path when one applies, exhaustive sweep (up to ``SUBSET_CAP``)
    otherwise."""
    result = maximize_fast_path(z)
    if result is not None:
        return result
    # the fast path declines only when Z is not positive semidefinite or the
    # full set has no nonnegative (so no positive) weighting: either way no
    # maximizer has full support, and Z has already been checked for symmetry
    return _sweep(z, (False, False))
