"""Diversity of order q for a community (p, Z), for every q in [0, inf].

The central quantity is the reciprocal power mean of the ordinariness vector
Zp: diversity of order q equals ``1 / M_{q-1}(p, Zp)``, with the q = 1 and
q = inf cases given by their closed-form limits (never by numerical limits).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError, NumericalError, PreconditionError
from .linalg import SimilarityMatrix, _check_integer, _check_real, _check_subset, _in_float64

# Default order grid for profiles: log-spaced plus every special order.
DEFAULT_ORDERS = (0.0, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, math.inf)

_SUM_TOL = 1e-12
_PROFILE_SLACK = 1e-9
# Smallest normal double: a power sum below it has lost relative precision.
_NORMAL_MIN = float(np.finfo(np.float64).tiny)


@dataclass(frozen=True)
class Distribution:
    """Point of the probability simplex with exact support bookkeeping.

    Entries must be nonnegative and sum to one within 1e-12; the support is
    the set of strictly positive coordinates (no epsilon).
    """

    probs: np.ndarray
    support: np.ndarray

    def __init__(self, probs):
        arr = _check_real(probs, "distribution", 1, measure=True)
        total = float(arr.sum())
        if abs(total - 1.0) > _SUM_TOL:
            raise InputError(f"distribution sums to {total!r}, not 1")
        support = np.flatnonzero(arr > 0)
        arr.setflags(write=False)
        support.setflags(write=False)
        object.__setattr__(self, "probs", arr)
        object.__setattr__(self, "support", support)

    @property
    def n(self) -> int:
        return self.probs.shape[0]

    def full_support(self) -> bool:
        return self.support.size == self.n


def _normalized(w: np.ndarray) -> np.ndarray:
    """``w`` clipped at 0 (forgiving rounding negatives) over the clipped
    sum: the one rule that turns a weighting into a distribution."""
    w = np.maximum(w, 0.0)
    return w / w.sum()


def uniform(n: int) -> Distribution:
    return Distribution(np.full(n, 1.0 / n))


def check_order(q) -> float:
    q = _check_real(q, "order q")
    if math.isnan(q) or q < 0:
        raise InputError(f"order q must be in [0, inf], got {q}")
    return q


def _power_mean_core(ps: np.ndarray, xs: np.ndarray, t: float) -> np.ndarray:
    """Power mean of order ``t`` of ``xs`` weighted by ``ps``, one per column
    of the first axis (0-d for vectors).  A zero weight needs the neutral
    value 1 for finite ``t`` and 0 for ``t = inf``."""
    if t == 0.0:
        return np.exp(np.vecdot(ps, np.log(xs), axis=0))
    if math.isinf(t):
        return xs.max(axis=0) if t > 0 else xs.min(axis=0)
    if abs(t) < 1e-3:
        # s ** (1/t) scales s's rounding by 1/|t|: sum p (x^t - 1) with expm1
        return np.exp(np.log1p(np.vecdot(ps, np.expm1(t * np.log(xs)), axis=0)) / t)
    with np.errstate(over="ignore", under="ignore"):
        s = np.vecdot(ps, xs**t, axis=0)
    ok = (s >= _NORMAL_MIN) & (s < math.inf)
    if ok.all():
        return s ** (1.0 / t)
    # the power sum overflowed or fell below the normal range: recompute
    # those columns in log space, where a zero weight's log(0) = -inf drops out
    with np.errstate(divide="ignore"):
        lt = np.log(ps) + t * np.log(xs)
        mean = s ** (1.0 / t)
    mx = lt.max(axis=0, keepdims=True)
    ls = mx[0] + np.log(np.exp(lt - mx).sum(axis=0))
    return np.where(ok, mean, np.exp(ls / t))


def power_mean(p: Distribution, x, t: float) -> float:
    """Power mean of order ``t`` of ``x``, weighted by ``p``.

    Only the support of ``p`` enters.  ``t`` may be any extended real:
    t = 0 gives the geometric mean, t = -inf / +inf the min / max over the
    support.  Entries of ``x`` must be positive on the support.
    """
    x = _check_real(x, "power mean values", 1)
    if x.shape != (p.n,):
        raise InputError(f"power mean needs a length-{p.n} vector, got shape {x.shape}")
    t = _check_real(t, "power mean order")
    if math.isnan(t):
        raise InputError("power mean order must not be NaN")
    ps = p.probs[p.support]
    xs = x[p.support]
    if (xs <= 0).any() or not np.isfinite(xs).all():
        raise InputError("power mean requires positive finite values on the support")
    return float(_power_mean_core(ps, xs, t))


def diversity(z: SimilarityMatrix, p: Distribution, q) -> float:
    """Diversity of order ``q`` of the community (p, Z).

    Symmetry of ``Z`` is not required here; only nonnegativity with positive
    diagonal is, which guarantees (Zp)_i > 0 on the support.  The arithmetic
    runs entirely on the support submatrix, so species of zero abundance
    leave the value bit-for-bit unchanged.  A value beyond float64 is refused.
    """
    q = check_order(q)
    ps, xs = _support_ordinariness(z, p)
    return float(_in_float64("a diversity", np.divide, 1.0, _power_mean_core(ps, xs, q - 1.0)))


def _support_ordinariness(z: SimilarityMatrix, p: Distribution):
    """``(p, Zp)`` on the support of ``p``, from the support submatrix alone."""
    if z.n != p.n:
        raise InputError(f"matrix is {z.n}x{z.n} but distribution has {p.n} entries")
    sup = p.support
    ps = p.probs[sup]
    xs = z.values.take(sup, axis=0).take(sup, axis=1) @ ps
    if (xs <= 0).any():
        raise InputError("ordinariness must be positive on the support")
    return ps, xs


@dataclass(frozen=True)
class DiversityProfile:
    """Diversity sampled over an ascending grid of orders.

    Values are weakly decreasing in q; construction enforces this up to a
    1e-9 slack and fails loudly otherwise.
    """

    orders: tuple[float, ...]
    values: tuple[float, ...]

    def __post_init__(self):
        for (q0, v0), (q1, v1) in zip(self.items(), self.items()[1:]):
            if v1 > v0 + _PROFILE_SLACK * max(1.0, abs(v0)):
                raise NumericalError(
                    f"diversity profile increased from {v0!r} (q={q0}) to {v1!r} (q={q1})"
                )

    def items(self) -> tuple[tuple[float, float], ...]:
        return tuple(zip(self.orders, self.values))

    def spread(self) -> float:
        return max(self.values) - min(self.values)


def diversity_profile(z: SimilarityMatrix, p: Distribution, orders=DEFAULT_ORDERS) -> DiversityProfile:
    qs = tuple(check_order(q) for q in orders)
    if not qs:
        raise InputError("order grid must be nonempty")
    if any(b <= a for a, b in zip(qs, qs[1:])):
        raise InputError("order grid must be strictly ascending")
    return DiversityProfile(qs, tuple(diversity(z, p, q) for q in qs))


def restrict(p: Distribution, subset) -> Distribution:
    """Restrict ``p`` to the coordinates in ``subset``, in ascending index
    order (no renormalization; the support must already lie inside the
    subset)."""
    idx = list(_check_subset(p.n, subset))
    outside = np.setdiff1d(np.arange(p.n), idx)
    if (p.probs[outside] != 0).any():
        raise PreconditionError("distribution has mass outside the subset")
    return Distribution(p.probs[idx])


def extend_by_zero(p: Distribution, subset, n: int) -> Distribution:
    """Extend a distribution on ``subset`` by zeros to ``{0, ..., n-1}``; the
    entries of ``p`` follow the ascending order of the subset's indices."""
    n = _check_integer(n, "size")
    idx = list(_check_subset(n, subset))
    if len(idx) != p.n:
        raise PreconditionError(f"subset size {len(idx)} does not match distribution size {p.n}")
    out = np.zeros(n)
    out[idx] = p.probs
    return Distribution(out)
