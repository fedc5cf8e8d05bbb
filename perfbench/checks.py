"""Correctness checks on every operation's output, made outside the timed
section and apart from the code under test.

Each check raises :class:`CheckFailed`.  The tolerances are far below the
size of a real error: ``selftest.py`` shows that each check on its own
rejects an output whose maximum is scaled by ``1 + 1e-6``, or whose
maximizer, weighting or lattice point is moved by as little.
"""

from __future__ import annotations

import math

import numpy as np

import maxdiv
from workloads import LATTICE_M, LATTICE_ORDERS

# KKT residual: (Zp)_i * dmax is 1 on the support and >= 1 everywhere.  The
# program accepts weightings with residual up to 1e-9 and winners tying
# within 1e-9 relative, so 1e-8 leaves room for both and little more.
KKT_TOL = 1e-8
# Diversity of the sample maximizer at each of PROFILE_ORDERS against dmax.
PROFILE_RTOL = 1e-8
PROFILE_ORDERS = (0.0, 1.0, 2.0, math.inf)
# Winner weightings: residual of Z_B w = 1, negativity, and sum against dmax.
WEIGHTING_TOL = 1e-8
# dmax, the maximizer and lattice values against the benchmark's references.
REF_RTOL = 1e-9


class CheckFailed(Exception):
    pass


def _require(ok, what: str):
    if not ok:
        raise CheckFailed(what)


def check_kkt(z, res):
    """The sample maximizer p is a distribution with (Zp)_i = 1/dmax on its
    support and (Zp)_j >= 1/dmax everywhere."""
    dmax = float(res.dmax)
    p = np.asarray(res.sample_maximizer.probs)
    _require(math.isfinite(dmax) and dmax > 0, f"dmax {dmax!r} is not positive")
    _require(p.shape == (z.n,) and abs(p.sum() - 1.0) <= 1e-12 and p.min() >= 0, "maximizer is not a distribution")
    scaled = (z.values @ p) * dmax
    gap = np.abs(scaled[p > 0] - 1.0).max()
    _require(gap <= KKT_TOL, f"KKT: (Zp)_i * dmax is {gap:.3g} away from 1 on the support")
    _require(scaled.min() >= 1.0 - KKT_TOL, f"KKT: (Zp)_j * dmax = {scaled.min()!r} < 1")


def check_profile(z, res):
    """Diversity of the sample maximizer equals dmax at every order."""
    dmax = float(res.dmax)
    for q in PROFILE_ORDERS:
        d = maxdiv.diversity(z, res.sample_maximizer, q)
        _require(abs(d - dmax) <= PROFILE_RTOL * dmax, f"profile not flat: D_{q} = {d!r}, dmax = {dmax!r}")


def check_winners(z, res):
    """Each winner's weighting solves Z_B w = 1, is nonnegative, and sums
    to dmax."""
    dmax = float(res.dmax)
    _require(len(res.winners) > 0, "no winners")
    for fs in res.winners:
        idx = np.asarray(fs.indices, dtype=np.intp)
        name = f"winner {fs.indices}" if len(idx) <= 16 else f"winner of size {len(idx)}"
        w = np.asarray(fs.weighting_space.nonnegative)
        resid = np.abs(z.values[np.ix_(idx, idx)] @ w - 1.0).max()
        _require(resid <= WEIGHTING_TOL, f"{name}: residual {resid:.3g} of Z_B w = 1")
        _require(w.min() >= -WEIGHTING_TOL, f"{name}: negative weighting entry {w.min():.3g}")
        _require(
            abs(w.sum() - dmax) <= WEIGHTING_TOL * dmax,
            f"{name}: weighting sums to {float(w.sum())!r}, dmax = {dmax!r}",
        )


def check_dmax(res, ref):
    """dmax equals the reference: the numpy sweep on dense-sweep, the
    independence number on graph-sweep, sum(solve(Z, 1)) on fastpath-large."""
    want = ref["dmax"]
    _require(abs(res.dmax - want) <= REF_RTOL * want, f"dmax {res.dmax!r} != reference {want!r}")


def check_maximizer(res, ref):
    """The maximizer is the normalized solution of Z w = 1."""
    gap = np.abs(np.asarray(res.sample_maximizer.probs) - ref["p"]).max()
    _require(gap <= REF_RTOL, f"maximizer differs from the normalized solution of Z w = 1 by {gap:.3g}")


def check_lattice_points(z, out):
    """One result per order; each point lies on the lattice and each value
    is the diversity at its point."""
    _require(len(out) == len(LATTICE_ORDERS), f"{len(out)} results for {len(LATTICE_ORDERS)} orders")
    for q, gm in zip(LATTICE_ORDERS, out):
        counts = np.asarray(gm.point.probs) * LATTICE_M
        _require(np.abs(counts - np.round(counts)).max() <= 1e-9, f"q={q}: point is off the lattice")
        d = maxdiv.diversity(z, gm.point, q)
        _require(abs(gm.value - d) <= REF_RTOL * d, f"q={q}: value {gm.value!r} != diversity {d!r} at its point")


def check_lattice_bounds(out, ref):
    """Each value is at most dmax and at least the uniform point's diversity."""
    for q, gm, uni in zip(LATTICE_ORDERS, out, ref["uniform"]):
        _require(gm.value <= ref["dmax"] * (1 + REF_RTOL), f"q={q}: value {gm.value!r} exceeds dmax {ref['dmax']!r}")
        _require(gm.value >= uni * (1 - REF_RTOL), f"q={q}: value {gm.value!r} below the uniform point's {uni!r}")


def check(workload: str, case, out):
    """Every check that applies to ``out``, the output of ``case.op()``."""
    if workload == "lattice-oracle":
        check_lattice_points(case.z, out)
        check_lattice_bounds(out, case.ref)
        return
    check_kkt(case.z, out)
    check_profile(case.z, out)
    check_winners(case.z, out)
    check_dmax(out, case.ref)
    if workload == "fastpath-large":
        check_maximizer(out, case.ref)
