"""Dense linear algebra for small symmetric similarity matrices, and the
library's numeric edge: :func:`_check_real` and :func:`_check_integer` check
every number passed in, and every weighting space handed back is solved on
Z_B / 2^e by :func:`_scaled_solve`, then refused beyond float64 or scaled back.

Everything here works on dense matrices at desk scale: subsets of at most
30 species in the sweep, full matrices in the low hundreds on the fast path.
It holds weighting-space solves via row reduction with a declared pivot
threshold, a phase-1 LP over their kernel coordinates t >= 0 for nonnegative
weightings, and the matrix-class predicates that gate and name the
maximizer's fast path.  Definiteness is decided by at most two Cholesky
factorizations of Z shifted by the eigenvalue floor, about a quarter of
the cost of ``eigvalsh`` at n=128; no eigenvalue is computed.  Both
eliminations clear a pivot column with one rank-1 numpy update, so an
n x n reduction takes O(n) numpy calls: a few milliseconds at n=128.  A
positive definite full set needs no kernel basis, so its one weighting
comes from a single LAPACK solve instead (well under a millisecond at
n=128); singular and subset systems keep the row reduction.
The ultrametric test compares each species with its most similar earlier
species, so it takes O(n^2) time and memory in a handful of numpy calls.
"""

from __future__ import annotations

import math
import numbers
import reprlib
from dataclasses import dataclass, replace

import numpy as np

from .errors import InputError, NumericalError, PreconditionError

# Residual tolerance for weighting solves; matrices in scope have entries of
# order one, so this is comfortably above double-precision elimination error.
SOLVE_TOL = 1e-9
# Winning subsets are all those within this relative slack of the top magnitude.
TIE_RTOL = 1e-9
# Declared numerical rank: pivots at or below PIVOT_RTOL times the largest
# initial entry count as zero.
PIVOT_RTOL = 1e-10
# Eigenvalues above -PSD_FLOOR_RTOL * max|Z| count as nonnegative, and
# above +PSD_FLOOR_RTOL * max|Z| as positive.
PSD_FLOOR_RTOL = 1e-9
# Minimum entry for a weighting to count as strictly positive.  It clears
# the SOLVE_TOL slack that nonnegativity forgives, so an entry that is zero
# up to solver error is never reported as positive.
POSITIVITY_EPS = 1e-8
# Simplex pivot cap for the feasibility LP.
LP_ITERATION_CAP = 10_000

_SYMMETRIZE_TOL = 1e-12


def _tie_threshold(top: float) -> float:
    """The least magnitude that ties ``top``: ``top - TIE_RTOL·max(1, |top|)``.
    The subset scan's column-sum bound and the sweep's tie set both use it,
    and the bound is sound only because they agree."""
    return top - TIE_RTOL * max(1.0, abs(top))


@dataclass(frozen=True)
class SimilarityMatrix:
    """Square matrix of nonnegative similarity coefficients, positive diagonal.

    Symmetry is detected at construction: if the values are symmetric within
    1e-12 they are averaged with their transpose so that the stored entries
    are bit-equal across the diagonal, and ``symmetric`` is set.  Asymmetric
    matrices are allowed: diversity evaluation does not need symmetry, and
    the routines that do refuse a matrix whose ``symmetric`` is unset.
    """

    values: np.ndarray
    symmetric: bool = False

    def __init__(self, values):
        arr = _check_real(values, "similarity matrix", 2, measure=True)
        d = np.diagonal(arr)
        if (d <= 0).any():
            i = int(np.argwhere(d <= 0)[0][0])
            raise InputError(f"similarity matrix diagonal entry {i + 1} must be positive")
        asym = float(np.abs(arr - arr.T).max())
        symmetric = asym <= _SYMMETRIZE_TOL
        if symmetric and asym > 0.0:
            arr = (arr + arr.T) / 2.0
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)
        object.__setattr__(self, "symmetric", symmetric)

    @property
    def n(self) -> int:
        return self.values.shape[0]

    def sub(self, subset) -> np.ndarray:
        """Principal submatrix on the given (0-based) index list."""
        idx = np.asarray(subset, dtype=np.intp)
        return self.values[np.ix_(idx, idx)]


@dataclass(frozen=True)
class WeightingSolution:
    """Affine space of solutions of ``Z_B w = 1`` on a principal submatrix.

    ``particular`` is absent when the system is inconsistent (no weighting
    exists).  ``nullspace`` holds a kernel basis, one vector per row.
    ``nonnegative`` is a representative with all entries >= -SOLVE_TOL once
    one has been found, and ``magnitude`` the common entry sum of every
    weighting (well defined for symmetric submatrices).
    """

    subset: tuple[int, ...]
    particular: np.ndarray | None
    nullspace: np.ndarray
    nonnegative: np.ndarray | None
    magnitude: float | None

    @property
    def unique(self) -> bool:
        return self.particular is not None and self.nullspace.shape[0] == 0

    def with_nonnegative(self, w) -> "WeightingSolution":
        return replace(self, nonnegative=w)


def _pivot(a: np.ndarray, r: int, c: int) -> None:
    """Scale row ``r`` of ``a`` to 1 at column ``c``, then clear column ``c``
    from every other row in place with one rank-1 update."""
    a[r] /= a[r, c]
    f = a[:, c].copy()
    f[r] = 0.0
    a -= f[:, None] * a[r]


def _rref(aug: np.ndarray, ncols: int, pivot_tol: float) -> list[int]:
    """In-place reduced row echelon form of ``aug`` over its first ``ncols``
    columns; returns the pivot column list.  ``ncols`` is the row count of
    ``aug``, so a row is left to pivot on at every column."""
    pivots = []
    r = 0
    for c in range(ncols):
        piv = r + int(np.abs(aug[r:, c]).argmax())
        if abs(aug[piv, c]) <= pivot_tol:
            continue
        if piv != r:
            aug[[r, piv]] = aug[[piv, r]]
        _pivot(aug, r, c)
        pivots.append(c)
        r += 1
    return pivots


def _solve_affine(a: np.ndarray, b: np.ndarray):
    """Particular solution and kernel basis of ``a x = b``.

    Returns ``(particular | None, nullspace)``.  A particular solution is
    reported only if its residual passes SOLVE_TOL (one refinement step is
    attempted first), so an inconsistent system comes back as ``None``.
    """
    k = a.shape[0]
    pivot_tol = PIVOT_RTOL * float(np.abs(a).max())
    x = np.zeros(k)
    rhs = b
    nullspace = None
    for _ in range(2):  # pass two refines once, on the residual of pass one
        aug = np.concatenate([a, rhs[:, None]], axis=1)
        pivots = _rref(aug, k, pivot_tol)
        if nullspace is None:
            rank = len(pivots)
            free = np.ones(k, dtype=bool)
            free[pivots] = False
            nullspace = np.zeros((k - rank, k))
            nullspace[:, free] = np.eye(k - rank)
            nullspace[:, pivots] = -aug[:rank, :k][:, free].T
            # rows below the rank must have (near) zero right-hand side
            if rank < k and np.abs(aug[rank:, k]).max() > SOLVE_TOL:
                return None, nullspace
        x[pivots] += aug[: len(pivots), k]
        rhs = b - a @ x
        if np.abs(rhs).max() <= SOLVE_TOL:
            return x, nullspace
    return None, nullspace


def _check_integer(value, what: str) -> int:
    """``value`` as an int when it is one, a numpy integer or an integral
    float; anything else, a fraction or a numeric string, is refused rather
    than truncated."""
    try:
        i = int(value)
    except (TypeError, ValueError, OverflowError):
        i = None
    if i is None or i != value:
        raise InputError(f"{what} must be an integer, got {value!r}")
    return i


def _check_real(values, what: str, ndim: int = 0, measure: bool = False):
    """``values`` as float64: a float when ``ndim`` is 0, else an array with
    ``ndim`` axes.  A string (numeric or not), a complex number or a ragged
    list is refused rather than converted; a NaN is left to the caller.
    ``measure`` asks for the entries of a similarity or distance matrix or a
    distribution: nonempty, square, finite and nonnegative."""
    try:
        arr = np.array(values)
        if arr.dtype.kind not in "biuf" and not all(isinstance(v, numbers.Real) for v in arr.flat):
            raise TypeError
        arr = arr.astype(np.float64, copy=False)
    except (TypeError, ValueError, OverflowError):
        raise InputError(f"{what} must be real, got {reprlib.repr(values)}") from None
    if arr.ndim != ndim or measure and (arr.size == 0 or len(set(arr.shape)) != 1):
        shape = ("nonempty " if measure else "") + ("number", "vector", "square matrix")[ndim]
        raise InputError(f"{what} must be a {shape}, got shape {arr.shape}")
    if measure and not np.isfinite(arr).all():
        raise InputError(f"{what} entries must be finite")
    if measure and (arr < 0).any():
        raise InputError(f"{what} entry {(np.argwhere(arr < 0)[0] + 1).tolist()} is negative")
    return arr if ndim else float(arr)


def _check_subset(n: int, subset) -> tuple[int, ...]:
    """The indices of ``subset`` in ascending order, after checking that they
    are integers, nonempty, distinct and in ``range(n)``.  A vector paired
    with a subset follows this order."""
    idx = tuple(_check_integer(i, "subset index") for i in subset)
    if not idx:
        raise PreconditionError("subset must be nonempty")
    if len(set(idx)) != len(idx):
        raise PreconditionError(f"subset has repeated indices: {idx}")
    if any(i < 0 or i >= n for i in idx):
        raise PreconditionError(f"subset {idx} out of range for n={n}")
    return tuple(sorted(idx))


def solve_weighting_space(z: SimilarityMatrix, subset=None) -> WeightingSolution:
    """Solve ``Z_B w = 1``: particular solution, kernel basis, magnitude.

    ``subset`` is a list of 0-based indices (defaults to all of them); the
    solution vectors follow their ascending order.  Rank-deficient
    submatrices are a normal outcome; inconsistency is reported through an
    absent ``particular``.  Solved by :func:`_scaled_solve`, so a weighting
    or magnitude beyond the float64 range is refused with ``NumericalError``.
    """
    return _rescaled_space(*_scaled_solve(z, subset))


def _scaled_solve(z: SimilarityMatrix, subset) -> tuple[WeightingSolution, int]:
    """``(space, e)``: the weighting space of Z_B / 2^e in that matrix's
    units, with ``e = _unit_exponent(Z_B)``; Z_B is solved as is when e is 0."""
    idx = _check_subset(z.n, range(z.n) if subset is None else subset)
    a = z.sub(idx)
    e = _unit_exponent(a)
    particular, nullspace = _solve_affine(np.ldexp(a, -e) if e else a, np.ones(len(idx)))
    mag = float(particular.sum()) if particular is not None else None
    return WeightingSolution(idx, particular, nullspace, None, mag), e


def _solve_definite(z: SimilarityMatrix) -> WeightingSolution:
    """The full set's weighting space when Z is positive definite: the one
    weighting, from one LAPACK ``solve`` under the SOLVE_TOL residual gate.
    A solution that fails the gate falls back to :func:`solve_weighting_space`."""
    w = np.linalg.solve(z.values, np.ones(z.n))
    if np.abs(z.values @ w - 1.0).max() <= SOLVE_TOL:  # a NaN fails the gate too
        return WeightingSolution(tuple(range(z.n)), w, np.zeros((0, z.n)), None, float(w.sum()))
    return solve_weighting_space(z)


def _phase1_nonneg(x0: np.ndarray, basis: np.ndarray):
    """A point ``w = x0 + basis.T @ t`` with ``t >= 0`` and ``w >= 0``, or ``None``.

    Phase-1 simplex with Bland's rule; raises NumericalError if the pivot cap
    is hit (distinct from infeasibility).  The cone t >= 0 misses no point of
    a space from :func:`_solve_affine`: its kernel basis is the identity on
    the free columns, where x0 is 0 or below, so t = w_free - x0_free >= 0.
    """
    kb = x0.shape[0]
    kn = basis.shape[0]
    # variables: t (kn), w (kb), artificials (appended)
    nv = kn + kb
    art = np.flatnonzero(x0 < 0)
    tab = np.zeros((kb, nv + art.size + 1))
    tab[:, :kn] = -basis.T
    tab[:, kn:nv] = np.eye(kb)
    tab[:, -1] = x0
    tab[art] *= -1.0
    basis_idx = kn + np.arange(kb)  # w_r hosts row r, unless negated
    basis_idx[art] = nv + np.arange(art.size)
    tab[art, basis_idx[art]] = 1.0

    # objective: minimize the artificial sum
    obj = np.zeros(nv + art.size + 1)
    obj[nv:-1] = 1.0
    for r in art:
        obj -= tab[r]

    for _ in range(LP_ITERATION_CAP):
        improving = np.flatnonzero(obj[:nv] < -1e-12)  # artificials never re-enter
        if improving.size == 0:
            break
        entering = int(improving[0])
        col = tab[:, entering]
        ratios = np.full(kb, np.inf)
        pos = col > 1e-12
        ratios[pos] = tab[pos, -1] / col[pos]
        best = ratios.min()
        if not np.isfinite(best):
            break  # unbounded entering column cannot happen with w-slack rows
        tied = np.flatnonzero(ratios <= best + 1e-15)
        leave = int(tied[basis_idx[tied].argmin()])
        _pivot(tab, leave, entering)
        obj -= obj[entering] * tab[leave]
        basis_idx[leave] = entering
    else:
        raise NumericalError("phase-1 LP exceeded the iteration cap")

    if -obj[-1] > 1e-9:
        return None
    t = np.zeros(kn)
    basic = basis_idx < kn
    t[basis_idx[basic]] = tab[basic, -1]
    return x0 + basis.T @ t


def find_nonnegative_weighting(ws: WeightingSolution) -> np.ndarray | None:
    """A weighting with all entries >= -SOLVE_TOL, or ``None`` if the affine
    solution space misses the nonnegative orthant (or is empty).  ``ws`` is
    from :func:`solve_weighting_space`, its particular possibly lowered by a
    constant as :func:`_positive_weighting` does (see :func:`_phase1_nonneg`).
    The floor is absolute, as no matrix is given to scale it by."""
    if ws.particular is None:
        return None
    if ws.particular.min() >= -SOLVE_TOL:
        return ws.particular
    if ws.nullspace.shape[0] == 0:
        return None
    return _phase1_nonneg(ws.particular, ws.nullspace)


def _positive_weighting(ws: WeightingSolution):
    """A weighting in ``ws`` with every entry >= ``eps = POSITIVITY_EPS``, or
    ``None``: each ``w - eps`` solves ``Z_B y = 1 - eps * Z_B 1``, so search
    from ``particular - eps``."""
    if ws.particular is None:
        return None
    y = find_nonnegative_weighting(replace(ws, particular=ws.particular - POSITIVITY_EPS))
    return None if y is None else POSITIVITY_EPS + np.maximum(y, 0.0)


def find_positive_weighting(z: SimilarityMatrix, subset=None):
    """A weighting with every entry >= POSITIVITY_EPS·2^-e on ``Z_B``, or
    ``None``, found on the space of :func:`_scaled_solve` and scaled back by
    :func:`_unscaled`."""
    ws, e = _scaled_solve(z, subset)
    return _unscaled(_positive_weighting(ws), e)


def _unit_exponent(values: np.ndarray) -> int:
    """``floor(log2(max values))``: values / 2^e peaks in [1, 2), where the tolerances are sized."""
    return math.frexp(values.max())[1] - 1


def _in_float64(what: str, f, *args):
    """``f(*args)``, refused with ``NumericalError`` and no warning when it
    overflows, as ``what`` can for a matrix whose entries are below 1e-308."""
    with np.errstate(over="raise", divide="raise"):
        try:
            return f(*args)
        except FloatingPointError:
            raise NumericalError(f"{what} is beyond the float64 range; the matrix entries are too small") from None


def _unscaled(x, e: int):
    """``x·2^-e``: a weighting array or a float magnitude found on Z / 2^e, in
    Z's units (refused beyond the float64 range), and ``None`` as is."""
    if x is None:
        return None
    out = _in_float64("a weighting or magnitude", np.ldexp, x, -e)
    return out if isinstance(x, np.ndarray) else float(out)


def _rescaled_space(ws: WeightingSolution | None, e: int) -> WeightingSolution | None:
    """A weighting space of Z / 2^e as that of Z: weightings and magnitude
    times 2^-e, kernel as is; refused when they leave the float64 range."""
    if ws is None or e == 0:
        return ws
    return replace(ws, particular=_unscaled(ws.particular, e), nonnegative=_unscaled(ws.nonnegative, e),
                   magnitude=_unscaled(ws.magnitude, e))


def magnitude(z: SimilarityMatrix, subset=None) -> float | None:
    """Sum of the entries of any weighting on ``Z_B``; ``None`` if there is
    no weighting, and refused beyond the float64 range."""
    return solve_weighting_space(z, subset).magnitude


def _require_symmetric(z: SimilarityMatrix, what: str):
    """Refuse an asymmetric ``z`` before ``what`` (a noun phrase) runs."""
    if not z.symmetric:
        raise PreconditionError(f"{what} requires a symmetric similarity matrix")


def _eigenvalue_floor(z: SimilarityMatrix) -> float:
    """``PSD_FLOOR_RTOL * max|Z|``: the margin by which Z's smallest
    eigenvalue must clear 0 to count as positive, and may fall below 0 and
    still count as nonnegative."""
    return PSD_FLOOR_RTOL * float(np.abs(z.values).max())


def _factors(z: SimilarityMatrix, shift: float) -> bool:
    """Whether ``Z + shift·I`` has a Cholesky factor, shifted on a copy."""
    a = z.values.copy()
    a.flat[:: z.n + 1] += shift
    try:
        np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        return False
    return True


def _definiteness(z: SimilarityMatrix) -> tuple[bool, bool]:
    """``(psd, pd)`` of symmetric ``Z`` against ``floor`` (see
    :func:`_eigenvalue_floor`), from at most two Cholesky factorizations: Z is
    positive definite when ``Z - floor·I`` factors, else positive
    semidefinite when ``Z + floor·I`` does.  That is the eigenvalue rule
    (smallest eigenvalue above ``floor``, at least ``-floor``) up to
    Cholesky's backward error of about n·u·max|Z| (Higham, ch. 10), far
    inside the floor, so the two rules part only on a matrix whose smallest
    eigenvalue lies that close to ``±floor``."""
    floor = _eigenvalue_floor(z)
    if _factors(z, -floor):
        return True, True
    return _factors(z, floor), False


def is_positive_semidefinite(z: SimilarityMatrix) -> bool:
    _require_symmetric(z, "positive semidefiniteness test")
    return _definiteness(z)[0]


def is_positive_definite(z: SimilarityMatrix) -> bool:
    _require_symmetric(z, "positive definiteness test")
    return _definiteness(z)[1]


def is_ultrametric(z: SimilarityMatrix) -> bool:
    """``Z_ik >= min(Z_ij, Z_jk)`` for all triples, and every diagonal entry
    strictly exceeds every off-diagonal entry.

    Decided in O(n^2) time and memory without a loop.  For each species
    ``v >= 1`` let ``p`` be a most similar earlier species (any
    ``argmax_{u<v} Z_vu``) and ``w = Z_vp``; Z is ultrametric exactly when
    ``Z_vu == min(w, Z_pu)`` for every ``u < v``.  Necessary: the triple
    condition gives ``Z_vu >= min(w, Z_pu)``, and ``Z_pu >= min(Z_pv, Z_vu)
    = Z_vu`` since ``Z_vu <= w``.  Sufficient: by induction on v, every
    triple through v reduces to one inside ``{0, ..., v-1}`` through
    ``Z_vx = min(w, Z_px)``.  Only comparisons and ``min`` touch the
    entries, so the equality is exact on the bit-symmetric stored values.
    """
    _require_symmetric(z, "ultrametric test")
    v = z.values
    n = z.n
    if n == 1:
        return True
    if v.diagonal().min() <= v[~np.eye(n, dtype=bool)].max():
        return False
    earlier = np.tri(n, k=-1, dtype=bool)[1:]  # row s - 1 marks the u < s
    p = np.where(earlier, v[1:], -np.inf).argmax(axis=1)
    w = v[np.arange(1, n), p]
    via_p = v[p]  # a copy: row s - 1 is the row of p(s)
    np.minimum(via_p, w[:, None], out=via_p)
    return bool(((v[1:] == via_p) | ~earlier).all())


def is_strictly_diagonally_dominant(z: SimilarityMatrix) -> bool:
    v = z.values
    d = v.diagonal()
    return bool((d > np.abs(v).sum(axis=1) - np.abs(d)).all())
