"""Independent ground truth for the maximizer: simplex lattice search plus
local pairwise mass-transfer polish.

Nothing here touches the subset-sweep machinery, so oracle values can
cross-check maximization results.  The lattice is the set of compositions
k/m, giving deterministic, reproducible argmaxes; :func:`refine` then moves
mass between pairs of species until no such transfer raises the diversity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .diversity import Distribution, _normalized, check_order, diversity
from .errors import InputError, PreconditionError
from .kernels import grid_best
from .linalg import SimilarityMatrix, _check_integer

# Largest lattice the oracle sweeps: n species at resolution m.
ORACLE_N_CAP = 6
ORACLE_M_CAP = 60
# Pairwise-transfer rounds per order in refine.
REFINE_ROUNDS = 500


@dataclass(frozen=True)
class GridSpec:
    """Simplex lattice: all compositions of ``resolution`` into ``n`` parts,
    with ``n <= ORACLE_N_CAP`` and ``resolution <= ORACLE_M_CAP``."""

    n: int
    resolution: int

    def __post_init__(self):
        object.__setattr__(self, "n", _check_integer(self.n, "grid n"))
        object.__setattr__(self, "resolution", _check_integer(self.resolution, "grid resolution"))
        if self.n < 1 or self.resolution < 1:
            raise InputError("grid needs n >= 1 and resolution >= 1")
        if self.n > ORACLE_N_CAP or self.resolution > ORACLE_M_CAP:
            raise PreconditionError(
                f"grid {self.n}/{self.resolution} exceeds caps n<={ORACLE_N_CAP}, m<={ORACLE_M_CAP}"
            )

    def size(self) -> int:
        return math.comb(self.resolution + self.n - 1, self.n - 1)


@dataclass(frozen=True)
class GridMax:
    value: float
    point: Distribution


def grid_max_multi(z: SimilarityMatrix, orders, spec: GridSpec) -> tuple[GridMax, ...]:
    """Exhaustive lattice maxima for several orders in a single sweep."""
    if z.n != spec.n:
        raise InputError(f"matrix is {z.n}x{z.n} but grid is over n={spec.n}")
    qs = np.array([check_order(q) for q in orders], dtype=np.float64)
    vals, pts = grid_best(z.values, qs, spec.resolution)
    return tuple(GridMax(float(v), Distribution(p)) for v, p in zip(vals, pts))


def grid_max(z, q, spec: GridSpec) -> GridMax:
    """Lattice maximum of diversity of order ``q``: value and an argmax."""
    return grid_max_multi(z, [q], spec)[0]


def _eval(z: SimilarityMatrix, p: np.ndarray, q: float) -> float:
    return diversity(z, Distribution(p), q)


def _best_transfer(z, p, q, j, k, base):
    """Best improvement over ``base``, the value at ``p``, moving mass from
    coordinate k to coordinate j."""
    hi = p[k]

    def at(t):
        cand = p.copy()
        cand[j] += t
        cand[k] -= t
        if t >= hi:
            cand[k] = 0.0
        return cand

    candidates = [hi]
    if q == 2.0:
        # 1/D_2 along the segment is an exact quadratic in t
        d = np.zeros_like(p)
        d[j] = 1.0
        d[k] = -1.0
        zd = z.values @ d
        curve = float(d @ zd)
        slope = float(d @ (z.values @ p)) + float(p @ zd)
        if curve > 0:
            t = -slope / (2.0 * curve)
            if 0.0 < t < hi:
                candidates.append(t)
    else:
        lo, up = 0.0, hi
        for _ in range(60):  # golden-section on the interior
            m1 = lo + (up - lo) * 0.381966
            m2 = up - (up - lo) * 0.381966
            if _eval(z, at(m1), q) >= _eval(z, at(m2), q):
                up = m2
            else:
                lo = m1
        candidates.append((lo + up) / 2.0)

    best_t, best_v = 0.0, base
    for t in candidates:
        v = _eval(z, at(t), q)
        if v > best_v:
            best_t, best_v = t, v
    return best_t, best_v - base


def _refine_single(z, q, probs):
    p = probs.copy()
    value = _eval(z, p, q)
    for _ in range(REFINE_ROUNDS):
        best = (None, 0.0)
        for k in np.flatnonzero(p > 0):
            for j in range(z.n):
                if j == int(k):
                    continue
                t, gain = _best_transfer(z, p, q, j, int(k), value)
                if gain > best[1]:
                    best = ((j, int(k), t), gain)
        move, gain = best
        if move is None or gain <= 0.0:
            break
        j, k, t = move
        p[j] += t
        p[k] = 0.0 if t >= p[k] else p[k] - t
        p = _normalized(p)
        value = _eval(z, p, q)
    return p


# order schedule approaching infinity: the order-infinity objective is a
# reciprocal max of linear functions, where single-pair transfers can stall
# on a corner; polishing along smooth large orders first walks around it
_INF_CONTINUATION = (8.0, 32.0, 128.0, 512.0, 2048.0)


def refine(z: SimilarityMatrix, q, start: Distribution) -> Distribution:
    """Polish a distribution by pairwise mass transfers until no transfer
    between any pair of coordinates improves the diversity of order ``q``,
    for at most ``REFINE_ROUNDS`` transfers per order.

    Returns the start if nothing improves.  Used only for test-side ground
    truth, never by the maximizer.
    """
    q = check_order(q)
    if z.n != start.n:
        raise InputError(f"matrix is {z.n}x{z.n} but start has {start.n} entries")
    p = start.probs
    if math.isinf(q):
        for qq in _INF_CONTINUATION:
            p = _refine_single(z, qq, p)
    p = _refine_single(z, q, p)
    return Distribution(p)
