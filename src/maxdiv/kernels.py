"""Hot numeric kernels, batched with numpy.

Two operations dominate runtime:

* ``scan_subsets``: sweep the nonempty principal submatrices of a
  symmetric nonnegative matrix, solving ``Z_B w = 1`` for each and
  classifying the outcome.  A subset whose column sums bound its magnitude
  below the largest one found so far is ``DOMINATED`` and never
  eliminated; on dense random matrices that is most of them.  The bound
  comes from one product of Z with the subsets' membership bits, which,
  with the masks and member tables, are cached for up to ``_CACHED_N``
  species and shifted into every block of masks of any further species.
  A subset the scan cannot settle gets one of two codes: ``UNRESOLVED``
  when elimination meets a dead pivot (rank-deficient at ``PIVOT_RTOL``), and
  ``UNRELIABLE`` when it is full rank but its solution fails the residual
  gate.  The maximizer treats them differently: a singular subset can only
  tie a nonsingular one inside it, while an unreliable one may be a winner
  in its own right.
* ``grid_best``: sweep a simplex lattice, evaluating the diversity of every
  lattice distribution for several orders in one pass, with ``diversity``'s
  own power mean and one masking of the zero weights per chunk.

Both batch their arithmetic: the scan eliminates the surviving subsets of
one size at once, and the lattice sweep evaluates the compositions of
``m`` in chunks.  Both keep the batch on the last, contiguous axis: the
lattice table is cached species-major, ``(n, N)``, in one-byte counts up to
m = 255, so a chunk is a slice of its columns whose species sums run along
whole rows, small enough to stay in cache (see ``_GRID_CHUNK``).
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .diversity import _power_mean_core
from .linalg import PIVOT_RTOL, SOLVE_TOL, _in_float64, _tie_threshold

# Subset classification codes.
UNIQUE_NONNEG = 0  # unique weighting, entrywise >= -SOLVE_TOL
UNIQUE_NEG = 1  # unique weighting with a genuinely negative entry
UNRESOLVED = 2  # rank-deficient: a pivot at or below PIVOT_RTOL
UNRELIABLE = 3  # full rank, but the solution fails the residual gate
DOMINATED = 4  # not eliminated: its column-sum bound cannot tie the maximum


# ---------------------------------------------------------------------------
# Subset scan
# ---------------------------------------------------------------------------

def _subset_groups(n):
    """Yield ``(masks, members, bits)`` for every nonempty subset of ``range(n)``.

    A group holds the subsets of one size k: ascending ``masks``, the int8
    ``members[j, b]``, the j-th smallest element of ``masks[b]`` (batch
    last), and ``bits[i, b]``, 1.0 if species i is in it.  Up to
    ``_CACHED_N`` species these are the cached tables; above, those of the
    first ``_CACHED_N`` come once per pattern h of the rest, ascending,
    after the lone subset h, with h OR'd in and its members and bits added.
    """
    low = min(n, _CACHED_N)
    groups = _cached_subset_groups(low)
    if n == low:
        yield from groups
        return
    empty = (np.zeros(1, np.int64), np.empty((0, 1), np.int8), np.zeros((low, 1)))
    for high in range(1 << (n - low)):
        high_bits = ((high >> np.arange(n - low)) & 1).astype(np.float64)[:, None]
        high_members = (np.flatnonzero(high_bits) + low).astype(np.int8)[:, None]
        for masks, members, bits in ((empty,) if high else ()) + groups:
            yield (masks | (high << low), np.vstack([members, np.repeat(high_members, masks.size, 1)]),
                   np.vstack([bits, np.repeat(high_bits, masks.size, 1)]))


# Species whose subset tables are kept, for the last four n scanned: 2.1 MB at
# n=14, 9.4 MB at n=16.  Above 16 the walk shifts the 16-species tables.
_CACHED_N = 16


@lru_cache(maxsize=4)
def _cached_subset_groups(n: int) -> tuple:
    """The groups of :func:`_subset_groups` for ``n <= _CACHED_N``, one for
    each size k = 1..n, as read-only arrays.  By Pascal's rule the k-subsets
    of range(i + 1) are those of range(i), then the (k - 1)-subsets with i
    added, so masks ascend and members sort with no bit arithmetic."""
    levels = [(np.zeros(1, np.int64), np.empty((0, 1), np.int8))]  # the empty set
    for i in range(n):
        grown = [(masks | (1 << i), np.vstack([members, np.full((1, masks.size), i, np.int8)]))
                 for masks, members in levels]
        levels = levels[:1] + [(np.concatenate([masks, more]), np.hstack([members, extra]))
                               for (masks, members), (more, extra) in zip(levels[1:], grown)] + grown[-1:]
    # Every mask's bits at once: freeing this (n, 2^n) array lifts glibc's mmap
    # threshold past the scan's temporaries (per group: 330 page faults an op).
    bits = ((np.arange(1 << n) >> np.arange(n)[:, None]) & 1).astype(np.float64)  # column m: mask m
    groups = tuple((masks, members, bits.take(masks, axis=1)) for masks, members in levels[1:])
    for table in sum(groups, ()):
        table.setflags(write=False)
    return groups


def _classify_group(z: np.ndarray, idx: np.ndarray):
    """Classify the subsets of one size k whose members are ``idx``
    (shape ``(k, nb)``, batch last, as from :func:`_subset_groups`).

    Returns ``(status, magnitudes)``, one entry per column of ``idx``: one
    of ``UNIQUE_NONNEG``, ``UNIQUE_NEG``, ``UNRESOLVED`` (a dead pivot) and
    ``UNRELIABLE`` (full rank, failed residual), with NaN magnitudes for the
    last two.
    """
    # One partial-pivot elimination per subset, run on all of them at once.
    # The group is gathered as a[row, col, batch], so the pivot search, the
    # row swap, the update and the back-substitution all run along the
    # contiguous batch axis.  Swaps and updates touch only the trailing
    # block (columns col..k): columns left of col are never read again, and
    # every value in the block goes through the same operations as in a
    # full-row elimination, so pivots, dead flags and w come out unchanged.
    # Dead pivots give UNRESOLVED and bad residuals UNRELIABLE, which the
    # caller settles without a row reduction per subset.
    n = z.shape[0]
    # numpy sums an (m, nb) array along an axis in index order, one row at a
    # time, but pairwise once nb = 1 collapses the batch axis.  So the batch
    # gets one more column, a copy of the first subset, that is dropped at
    # the end: a lone subset's three sums (back-substitution, residual,
    # magnitude) then run in the same order as in any wider group, and every
    # subset's result depends on it alone.
    ix = np.concatenate([idx, idx[:, :1]], axis=1, dtype=np.intp)  # the member table is int8
    k, nb = ix.shape
    sub = z.take(ix[:, None, :] * n + ix[None, :, :])
    a = np.empty((k, k + 1, nb))
    a[:, :k] = sub
    a[:, k] = 1.0
    thresh = PIVOT_RTOL * np.abs(sub).max(axis=(0, 1))
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
    bad = dead | ~np.isfinite(resid) | (resid > SOLVE_TOL)
    status = np.select(
        [dead, bad, w.min(axis=0) >= -SOLVE_TOL],
        [UNRESOLVED, UNRELIABLE, UNIQUE_NONNEG],
        UNIQUE_NEG,
    )
    return status[:-1], np.where(bad, np.nan, w.sum(axis=0))[:-1]


def scan_subsets(z: np.ndarray):
    """Classify every nonempty principal submatrix of ``z`` that can tie the
    largest magnitude; ``z`` must be nonnegative, as a similarity matrix is.

    Returns ``(status, magnitudes)`` indexed by ``mask - 1`` where bit ``i``
    of ``mask`` selects row/column ``i``.  Status is one of
    ``UNIQUE_NONNEG``, ``UNIQUE_NEG``, ``UNRESOLVED`` (a dead pivot),
    ``UNRELIABLE`` (full rank, failed residual) and ``DOMINATED`` (skipped,
    see below); magnitudes are NaN for the last three.

    Subsets are visited in ascending size within each block of masks that
    share the species past ``_CACHED_N`` (one block up to it), and ``best``
    is the largest ``UNIQUE_NONNEG`` magnitude so far.  Before a group of
    size k is eliminated, each subset B gets the bound ``(k(1 + SOLVE_TOL)
    + SOLVE_TOL·Σc) / min c`` from its column sums c_j = Σ_{i∈B} Z_ij.
    They come from the group's membership bits alone, with no gather
    through its member table: ``Zᵀ bits`` holds c_j in every row j, Σc is
    its sum over the member rows and min c its minimum with the other rows
    masked to infinity.  A subset is ``DOMINATED`` when the bound is below
    ``_tie_threshold(best)``, the lowest magnitude that can tie a maximum
    of at least ``best``.  No winner is lost.  Let w be any weighting of B
    that the maximizer can accept: residual |Z_B w - 1| <= SOLVE_TOL and
    entries >= -SOLVE_TOL, whether the scan or a row reduction found it,
    or it is a tying subset's w_T that the tight-row closure extends by zero.
    As Z >= 0, Σ_j c_j w_j = 1ᵀ Z_B w <= k(1 + SOLVE_TOL), and with w⁺ =
    max(w, 0), min c · 1ᵀw⁺ <= Σ_j c_j w⁺_j <= Σ_j c_j w_j + SOLVE_TOL·Σc.
    So 1ᵀw <= 1ᵀw⁺ is at most the bound: a dominated subset can neither tie
    nor win as a singular superset of a tying one.
    """
    z = np.ascontiguousarray(z, dtype=np.float64)
    n = z.shape[0]
    total = (1 << n) - 1
    status = np.full(total, DOMINATED, np.int8)
    mags = np.full(total, np.nan)
    best = -np.inf
    for masks, idx, bits in _subset_groups(n):
        k = idx.shape[0]
        # the column sums: non-members add exact zeros to Σc, in ascending
        # species order, so it sums the same values in the same order as
        # over the members alone
        zb = z.T @ bits
        total_c = (zb * bits).sum(axis=0)
        with np.errstate(divide="ignore"):
            bound = (k * (1.0 + SOLVE_TOL) + SOLVE_TOL * total_c) / np.where(bits == 0, np.inf, zb).min(axis=0)
        keep = ~(bound < _tie_threshold(best))
        if not keep.any():
            continue
        masks, idx = masks[keep], idx[:, keep]
        st, mg = _classify_group(z, idx)
        status[masks - 1] = st
        mags[masks - 1] = mg
        best = max(best, mg[st == UNIQUE_NONNEG].max(initial=-np.inf))
    return status, mags


# ---------------------------------------------------------------------------
# Simplex lattice sweep
# ---------------------------------------------------------------------------

def _add_part(table, t):
    # Compositions of t with one more leading part, one a column: a row of
    # heads t, t-1, ..., 0 over the columns of table[t - head].
    tails = table[: t + 1]
    heads = np.repeat(np.arange(t + 1, dtype=tails[0].dtype)[::-1], [tail.shape[1] for tail in tails])
    return np.vstack([heads, np.concatenate(tails, axis=1)])


@lru_cache(maxsize=8)
def compositions(n: int, m: int) -> np.ndarray:
    """All compositions of ``m`` into ``n`` nonnegative parts in canonical
    (lexicographically decreasing) order: a read-only ``(n, N)`` table, one
    composition per column, of the narrowest unsigned type that holds ``m``."""
    # Bottom-up over the number of parts: table[t] holds the compositions of
    # t for every total t <= m; the last part count needs the total m alone.
    table = [np.full((1, 1), t, np.min_scalar_type(m)) for t in range(m + 1)]
    for _ in range(2, n):
        table = [_add_part(table, t) for t in range(m + 1)]
    out = _add_part(table, m) if n > 1 else table[m]
    out.setflags(write=False)
    return out


# Compositions evaluated per chunk in grid_best.  Small on purpose: a chunk
# allocates about eight (n, chunk) float arrays, 320 kB each at n=5 and
# 8192, so they stay in a 2 MB L2 and the allocator hands their pages back
# to the next chunk.  At 131072 each was a fresh 5 MB allocation, and page
# faults and memory traffic took most of the sweep.  Best of 30 sweeps of
# n=5, m=40 at four orders (one BLAS thread, 2-vCPU Xeon VM): 11.9 ms at
# 8192, 12.4-13.5 ms from 2048 to 16384, 15.0 ms at 32768, 23.1 ms at
# 131072; the row-major (chunk, n) layout took 29.9 ms at 131072 and
# 22.5 ms at 8192.
_GRID_CHUNK = 8192


def grid_best(z: np.ndarray, qs, m: int):
    """Best lattice distribution (step ``1/m``) for each order in ``qs``.

    Returns ``(values, points)`` with one row per order.  Values that tie
    in floating point go to the earliest composition in canonical order.
    Exact lattice ties need not: unless ``m`` is a power of two, ``counts /
    m`` can miss the simplex by an ulp, so points whose exact values tie can
    differ in their last bit and a later composition can win.
    """
    z = np.ascontiguousarray(z, dtype=np.float64)
    qs = np.asarray(qs, dtype=np.float64)
    m = int(m)
    n = z.shape[0]
    best_vals = np.full(qs.shape[0], -np.inf)
    best_pts = np.zeros((qs.shape[0], n))
    counts = compositions(n, m)
    for lo in range(0, counts.shape[1], _GRID_CHUNK):
        # species-major: column j of each (n, chunk) array is one composition
        cc = counts[:, lo : lo + _GRID_CHUNK]
        pc = cc / m
        xpc = z @ pc
        # neutral values for zero weights: 1 in the finite orders, 0 at q = inf
        off = cc == 0
        x_finite = np.where(off, 1.0, xpc)
        x_max = np.where(off, 0.0, xpc)
        for i, q in enumerate(qs):
            mean = _power_mean_core(pc, x_max if math.isinf(q) else x_finite, q - 1.0)
            vals = _in_float64("a diversity", np.divide, 1.0, mean)
            j = int(vals.argmax())
            if vals[j] > best_vals[i]:
                best_vals[i] = vals[j]
                best_pts[i] = pc[:, j]
    return best_vals, best_pts
