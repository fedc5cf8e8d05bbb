"""Hot numeric kernels with a numba backend and a pure-numpy fallback.

Two operations dominate runtime and are implemented twice:

* ``scan_subsets``: sweep all nonempty principal submatrices of a symmetric
  matrix, solving ``Z_B w = 1`` for each and classifying the outcome.  A
  subset the scan cannot settle gets one of two codes: ``UNRESOLVED`` when
  elimination meets a dead pivot (rank-deficient at ``pivot_rtol``), and
  ``UNRELIABLE`` when it is full rank but its solution fails the residual
  gate.  The maximizer treats them differently: a singular subset can only
  tie a nonsingular one inside it, while an unreliable one may be a winner
  in its own right.
* ``grid_best``: sweep a simplex lattice, evaluating the diversity of every
  lattice distribution for several orders in one pass.

The numba backend compiles tight scalar loops; the numpy backend batches the
same arithmetic.  The numpy scan walks the masks in bounded blocks, groups
each block by subset size, and gathers a group as ``a[row, col, batch]``
with the batch axis last and contiguous.  Its partial-pivot elimination
swaps and updates only the trailing block (columns ``col..k``), the only
part read again, so its pivots and dead-pivot flags are those of a
full-row elimination; against the scalar loop only the summation order of
the back-substitution and the residual differs.

Selection: env var ``MAXDIV_NUMBA=0`` (or numba being unimportable) picks
the numpy path, anything else prefers numba.  The active backend can also be
switched at runtime with :func:`set_backend`, which the benchmark and the
backend-parity tests rely on.
"""

from __future__ import annotations

import math
import os
from functools import lru_cache

import numpy as np

try:
    from numba import njit

    HAS_NUMBA = True
except ImportError:  # numba is the optional extra ``maxdiv[numba]``
    HAS_NUMBA = False

    def njit(*args, **kwargs):
        def wrap(fn):
            return fn

        return wrap


# Subset classification codes shared by both backends.
UNIQUE_NONNEG = 0  # unique weighting, entrywise >= -solve_tol
UNIQUE_NEG = 1  # unique weighting with a genuinely negative entry
UNRESOLVED = 2  # rank-deficient: a pivot at or below pivot_rtol
UNRELIABLE = 3  # full rank, but the solution fails the residual gate


def _pick_default_backend() -> str:
    flag = os.environ.get("MAXDIV_NUMBA", "").strip().lower()
    if flag in ("0", "false", "off", "no"):
        return "numpy"
    return "numba" if HAS_NUMBA else "numpy"


_backend = _pick_default_backend()


def get_backend() -> str:
    """Name of the active kernel backend: ``"numba"`` or ``"numpy"``."""
    return _backend


def set_backend(name: str) -> None:
    """Switch kernel backend at runtime (``"numba"`` or ``"numpy"``)."""
    global _backend
    if name not in ("numba", "numpy"):
        raise ValueError(f"unknown backend {name!r}")
    if name == "numba" and not HAS_NUMBA:
        raise ValueError("numba backend requested but numba is not importable")
    _backend = name


def available_backends() -> tuple[str, ...]:
    return ("numba", "numpy") if HAS_NUMBA else ("numpy",)


# ---------------------------------------------------------------------------
# Subset scan
# ---------------------------------------------------------------------------

def _scan_subsets_loop(z, solve_tol, pivot_rtol):
    # One Gaussian elimination with partial pivoting per nonempty subset.
    # Returns status per mask-1 plus the magnitude (sum of the unique
    # weighting) where the solve succeeded.
    n = z.shape[0]
    total = (1 << n) - 1
    status = np.empty(total, np.int8)
    mags = np.full(total, np.nan)
    idx = np.empty(n, np.int64)
    a = np.empty((n, n + 1))
    w = np.empty(n)
    for mask in range(1, total + 1):
        k = 0
        for i in range(n):
            if (mask >> i) & 1:
                idx[k] = i
                k += 1
        big = 0.0
        for r in range(k):
            for c in range(k):
                v = z[idx[r], idx[c]]
                a[r, c] = v
                if abs(v) > big:
                    big = abs(v)
            a[r, k] = 1.0
        thresh = pivot_rtol * big
        singular = False
        for col in range(k):
            piv = col
            pv = abs(a[col, col])
            for r in range(col + 1, k):
                if abs(a[r, col]) > pv:
                    pv = abs(a[r, col])
                    piv = r
            if pv <= thresh:
                singular = True
                break
            if piv != col:
                for c in range(col, k + 1):
                    tmp = a[col, c]
                    a[col, c] = a[piv, c]
                    a[piv, c] = tmp
            for r in range(col + 1, k):
                f = a[r, col] / a[col, col]
                if f != 0.0:
                    for c in range(col, k + 1):
                        a[r, c] -= f * a[col, c]
        if singular:
            status[mask - 1] = UNRESOLVED
            continue
        for r in range(k - 1, -1, -1):
            s = a[r, k]
            for c in range(r + 1, k):
                s -= a[r, c] * w[c]
            w[r] = s / a[r, r]
        # residual check against the original submatrix
        resid = 0.0
        wmin = np.inf
        for r in range(k):
            s = -1.0
            for c in range(k):
                s += z[idx[r], idx[c]] * w[c]
            if abs(s) > resid:
                resid = abs(s)
            if w[r] < wmin:
                wmin = w[r]
        if resid > solve_tol:
            status[mask - 1] = UNRELIABLE
            continue
        total_w = 0.0
        for r in range(k):
            total_w += w[r]
        mags[mask - 1] = total_w
        status[mask - 1] = 0 if wmin >= -solve_tol else 1
    return status, mags


_scan_subsets_numba = njit(cache=True)(_scan_subsets_loop) if HAS_NUMBA else None


def _subset_groups(n, block=65536):
    """Yield ``(masks, members)`` for every nonempty subset of ``range(n)``.

    Masks are walked in ascending blocks of ``block`` and each block is split
    by popcount, so a group holds subsets of one size k: ``masks`` ascends
    and ``members[j, b]`` is the j-th smallest element of subset ``masks[b]``
    (shape ``(k, len(masks))``, batch last).  Memory is bounded by the block.
    """
    total = (1 << n) - 1
    shifts = np.arange(n, dtype=np.int64)[:, None]
    for lo in range(1, total + 1, block):
        masks = np.arange(lo, min(lo + block, total + 1), dtype=np.int64)
        sizes = ((masks >> shifts) & 1).sum(axis=0)
        for k in range(1, n + 1):
            group = masks[sizes == k]
            if group.size == 0:
                continue
            members = np.empty((k, group.size), dtype=np.int64)
            rest = group.copy()
            for j in range(k):
                low = rest & -rest  # lowest set bit; frexp gives its index exactly
                members[j] = np.frexp(low)[1] - 1
                rest ^= low
            yield group, members


def _scan_subsets_numpy(z, solve_tol, pivot_rtol):
    # The elimination of _scan_subsets_loop, run on all subsets of one size
    # at once.  Each group is gathered as a[row, col, batch], so the pivot
    # search, the row swap, the update and the back-substitution all run
    # along the contiguous batch axis.  Swaps and updates touch only the
    # trailing block (columns col..k): columns left of col are never read
    # again, and every value in the block goes through the same operations
    # as in a full-row elimination, so pivots, dead flags and w come out
    # unchanged.  Dead pivots give UNRESOLVED and bad residuals UNRELIABLE,
    # for the caller's slow path.
    n = z.shape[0]
    total = (1 << n) - 1
    status = np.empty(total, np.int8)
    mags = np.full(total, np.nan)
    # z with a column of ones: one gather from it yields [Z_B | 1]
    z1 = np.hstack([z, np.ones((n, 1))]).ravel()
    for masks, idx in _subset_groups(n):
        k, nb = idx.shape
        cols = np.vstack([idx, np.full((1, nb), n)])
        aug = z1.take((idx * (n + 1))[:, None, :] + cols[None, :, :])
        sub = aug[:, :k]
        a = aug.copy()
        thresh = pivot_rtol * np.abs(sub).max(axis=(0, 1))
        dead = np.zeros(nb, dtype=bool)
        for col in range(k):
            piv = np.abs(a[col:, col]).argmax(axis=0)
            swap = np.flatnonzero(piv)
            rows = piv[swap] + col
            prow = a[rows, col:, swap]
            a[rows, col:, swap] = a[col, col:, swap]
            a[col, col:, swap] = prow
            pv = a[col, col]
            dead |= np.abs(pv) <= thresh
            factors = a[col + 1 :, col] / np.where(dead, 1.0, pv)
            a[col + 1 :, col + 1 :] -= factors[:, None, :] * a[col, col + 1 :]
        w = np.empty((k, nb))
        for r in range(k - 1, -1, -1):
            acc = a[r, k] - (a[r, r + 1 : k] * w[r + 1 :]).sum(axis=0)
            w[r] = acc / np.where(dead, 1.0, a[r, r])
        resid = np.abs((sub * w).sum(axis=1) - 1.0).max(axis=0)
        bad = dead | ~np.isfinite(resid) | (resid > solve_tol)
        st = np.select(
            [dead, bad, w.min(axis=0) >= -solve_tol],
            [UNRESOLVED, UNRELIABLE, UNIQUE_NONNEG],
            UNIQUE_NEG,
        )
        status[masks - 1] = st
        mags[masks - 1] = np.where(bad, np.nan, w.sum(axis=0))
    return status, mags


def scan_subsets(z: np.ndarray, solve_tol: float, pivot_rtol: float):
    """Classify every nonempty principal submatrix of ``z``.

    Returns ``(status, magnitudes)`` indexed by ``mask - 1`` where bit ``i``
    of ``mask`` selects row/column ``i``.  Status is one of
    ``UNIQUE_NONNEG``, ``UNIQUE_NEG``, ``UNRESOLVED`` (a dead pivot) and
    ``UNRELIABLE`` (full rank, failed residual); magnitudes are NaN for the
    last two.
    """
    z = np.ascontiguousarray(z, dtype=np.float64)
    if _backend == "numba":
        return _scan_subsets_numba(z, solve_tol, pivot_rtol)
    return _scan_subsets_numpy(z, solve_tol, pivot_rtol)


# ---------------------------------------------------------------------------
# Simplex lattice sweep
# ---------------------------------------------------------------------------

def _powi(x, k):
    # x ** k for integer k by repeated squaring (x > 0)
    if k < 0:
        x = 1.0 / x
        k = -k
    r = 1.0
    while k:
        if k & 1:
            r *= x
        x *= x
        k >>= 1
    return r


if HAS_NUMBA:
    _powi = njit(cache=True)(_powi)


def _div_point_loop(p, xp, n, q):
    # Diversity of one distribution given its ordinariness vector xp = Z p.
    if math.isinf(q):
        mx = -np.inf
        for i in range(n):
            if p[i] > 0.0 and xp[i] > mx:
                mx = xp[i]
        return 1.0 / mx
    if q == 1.0:
        acc = 0.0
        for i in range(n):
            if p[i] > 0.0:
                acc += p[i] * math.log(xp[i])
        return math.exp(-acc)
    t = q - 1.0
    ti = int(t)
    s = 0.0
    if t == ti and -32 <= ti <= 32:
        for i in range(n):
            if p[i] > 0.0:
                s += p[i] * _powi(xp[i], ti)
    elif t == -0.5:
        for i in range(n):
            if p[i] > 0.0:
                s += p[i] / math.sqrt(xp[i])
    elif t == 0.5:
        for i in range(n):
            if p[i] > 0.0:
                s += p[i] * math.sqrt(xp[i])
    else:
        for i in range(n):
            if p[i] > 0.0:
                s += p[i] * xp[i] ** t
    if math.isfinite(s) and s > 0.0:
        return s ** (1.0 / (1.0 - q))
    # overflow/underflow: redo the sum in log space
    mx = -np.inf
    for i in range(n):
        if p[i] > 0.0:
            li = math.log(p[i]) + t * math.log(xp[i])
            if li > mx:
                mx = li
    acc = 0.0
    for i in range(n):
        if p[i] > 0.0:
            acc += math.exp(math.log(p[i]) + t * math.log(xp[i]) - mx)
    return math.exp((mx + math.log(acc)) / (1.0 - q))


def _grid_best_loop(z, qs, m):
    # Enumerate all compositions of m into n parts (first part descending)
    # and track, for every order in qs, the best lattice distribution.
    n = z.shape[0]
    nq = qs.shape[0]
    best_vals = np.full(nq, -np.inf)
    best_pts = np.zeros((nq, n))
    c = np.zeros(n, np.int64)
    c[0] = m
    p = np.empty(n)
    xp = np.empty(n)
    while True:
        for i in range(n):
            p[i] = c[i] / m
        for i in range(n):
            s = 0.0
            for j in range(n):
                s += z[i, j] * p[j]
            xp[i] = s
        for t in range(nq):
            v = _div_point_loop(p, xp, n, qs[t])
            if v > best_vals[t]:
                best_vals[t] = v
                for i in range(n):
                    best_pts[t, i] = p[i]
        j = n - 2
        while j >= 0 and c[j] == 0:
            j -= 1
        if j < 0:
            break
        r = c[n - 1]
        c[j] -= 1
        c[j + 1] = r + 1
        for i in range(j + 2, n):
            c[i] = 0
    return best_vals, best_pts


if HAS_NUMBA:
    _div_point_numba = njit(cache=True)(_div_point_loop)

    @njit(cache=True)
    def _grid_best_numba(z, qs, m):
        n = z.shape[0]
        nq = qs.shape[0]
        best_vals = np.full(nq, -np.inf)
        best_pts = np.zeros((nq, n))
        c = np.zeros(n, np.int64)
        c[0] = m
        p = np.empty(n)
        xp = np.empty(n)
        while True:
            for i in range(n):
                p[i] = c[i] / m
            for i in range(n):
                s = 0.0
                for j in range(n):
                    s += z[i, j] * p[j]
                xp[i] = s
            for t in range(nq):
                v = _div_point_numba(p, xp, n, qs[t])
                if v > best_vals[t]:
                    best_vals[t] = v
                    for i in range(n):
                        best_pts[t, i] = p[i]
            j = n - 2
            while j >= 0 and c[j] == 0:
                j -= 1
            if j < 0:
                break
            r = c[n - 1]
            c[j] -= 1
            c[j + 1] = r + 1
            for i in range(j + 2, n):
                c[i] = 0
        return best_vals, best_pts


def _add_part(table, t):
    # Compositions of t with one more leading part: heads t, t-1, ..., 0,
    # each over every row of table[t - head] (tail totals 0, 1, ..., t).
    tails = table[: t + 1]
    heads = np.repeat(np.arange(t, -1, -1, dtype=np.int32), [len(tail) for tail in tails])
    return np.column_stack([heads, np.concatenate(tails)])


def _compositions_table(n: int, m: int) -> np.ndarray:
    # Bottom-up over the number of parts: table[t] holds the compositions of
    # t into the current number of parts, for every total t <= m.  The last
    # part count is built for the total m alone.
    table = [np.array([[t]], dtype=np.int32) for t in range(m + 1)]
    for _ in range(2, n):
        table = [_add_part(table, t) for t in range(m + 1)]
    return _add_part(table, m) if n > 1 else table[m]


@lru_cache(maxsize=8)
def compositions(n: int, m: int) -> np.ndarray:
    """All compositions of ``m`` into ``n`` nonnegative parts (int counts).

    Canonical order: lexicographically decreasing, matching the numba sweep.
    """
    out = _compositions_table(n, m)
    out.setflags(write=False)
    return out


def _div_chunk_numpy(pc, xpc, mask, q):
    xpm = np.where(mask, xpc, 1.0)
    if math.isinf(q):
        return 1.0 / np.where(mask, xpc, -np.inf).max(axis=1)
    if q == 1.0:
        return np.exp(-np.where(mask, pc * np.log(xpm), 0.0).sum(axis=1))
    t = q - 1.0
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        s = np.where(mask, pc * xpm**t, 0.0).sum(axis=1)
        vals = s ** (1.0 / (1.0 - q))
    bad = ~np.isfinite(s) | (s <= 0.0)
    if bad.any():
        lp = np.where(mask[bad], np.log(np.where(mask[bad], pc[bad], 1.0)) + t * np.log(xpm[bad]), -np.inf)
        mx = lp.max(axis=1)
        ls = mx + np.log(np.exp(lp - mx[:, None]).sum(axis=1))
        vals[bad] = np.exp(ls / (1.0 - q))
    return vals


def _grid_best_numpy(z, qs, m, chunk=131072):
    n = z.shape[0]
    nq = qs.shape[0]
    best_vals = np.full(nq, -np.inf)
    best_pts = np.zeros((nq, n))
    counts = compositions(n, m)
    for lo in range(0, counts.shape[0], chunk):
        cc = counts[lo : lo + chunk]
        pc = cc / m
        xpc = pc @ z.T
        mask = cc > 0
        for t in range(nq):
            vals = _div_chunk_numpy(pc, xpc, mask, qs[t])
            j = int(vals.argmax())
            if vals[j] > best_vals[t]:
                best_vals[t] = vals[j]
                best_pts[t] = pc[j]
    return best_vals, best_pts


def grid_best(z: np.ndarray, qs, m: int):
    """Best lattice distribution (step ``1/m``) for each order in ``qs``.

    Returns ``(values, points)`` with one row per order; ties go to the
    earliest composition in canonical order.
    """
    z = np.ascontiguousarray(z, dtype=np.float64)
    qs = np.asarray(qs, dtype=np.float64)
    if _backend == "numba":
        return _grid_best_numba(z, qs, int(m))
    return _grid_best_numpy(z, qs, int(m))
