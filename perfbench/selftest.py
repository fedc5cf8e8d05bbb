#!/usr/bin/env python3
"""Show that every correctness check passes on real outputs and rejects
wrong ones.

    python3 perfbench/selftest.py

For two inputs of each workload, runs the operation, confirms that all
checks pass, then feeds each check an output with one small fault: the
maximum scaled by 1 + 1e-6, the maximizer or a weighting moved by 1e-6, a
lattice value or point moved by as little.  Exits with status 1 if any
check lets a wrong output through.
"""

from __future__ import annotations

import sys
from dataclasses import replace

import bootstrap
import numpy as np

EPS = 1e-6


def shifted(p, eps=EPS):
    """``p`` with ``eps`` of mass moved from its largest to its smallest
    support entry."""
    q = np.array(p, dtype=float)
    sup = np.flatnonzero(q > 0)
    hi, lo = sup[q[sup].argmax()], sup[q[sup].argmin()]
    if hi == lo:  # one-point support: move mass off the support
        lo = (hi + 1) % q.size
    q[hi] -= eps
    q[lo] += eps
    return q


def faults(workload, case, out, maxdiv, checks):
    """(description, check to call) pairs; every call must raise."""
    z, ref = case.z, case.ref
    if workload == "lattice-oracle":
        gm = out[0]
        up = [replace(gm, value=gm.value * (1 + EPS))] + list(out[1:])
        moved = [replace(gm, point=maxdiv.Distribution(shifted(gm.point.probs)))] + list(out[1:])
        over = [replace(g, value=ref["dmax"] * (1 + EPS)) for g in out]
        under = [replace(g, value=u * (1 - EPS)) for g, u in zip(out, ref["uniform"])]
        return [
            ("lattice value scaled by 1+1e-6", lambda: checks.check_lattice_points(z, up)),
            ("lattice point moved by 1e-6", lambda: checks.check_lattice_points(z, moved)),
            ("lattice value above dmax", lambda: checks.check_lattice_bounds(over, ref)),
            ("lattice value below the uniform point's", lambda: checks.check_lattice_bounds(under, ref)),
        ]
    scaled = replace(out, dmax=out.dmax * (1 + EPS))
    moved = replace(out, sample_maximizer=maxdiv.Distribution(shifted(out.sample_maximizer.probs)))
    fs = out.winners[0]
    bad_w = replace(fs, weighting_space=fs.weighting_space.with_nonnegative(fs.weighting_space.nonnegative * (1 + EPS)))
    reweighted = replace(out, winners=(bad_w,) + out.winners[1:])
    cases = [
        ("KKT, dmax scaled by 1+1e-6", lambda: checks.check_kkt(z, scaled)),
        ("KKT, maximizer moved by 1e-6", lambda: checks.check_kkt(z, moved)),
        ("flat profile, dmax scaled by 1+1e-6", lambda: checks.check_profile(z, scaled)),
        ("flat profile, maximizer moved by 1e-6", lambda: checks.check_profile(z, moved)),
        ("winner weightings, dmax scaled by 1+1e-6", lambda: checks.check_winners(z, scaled)),
        ("winner weightings, weighting scaled by 1+1e-6", lambda: checks.check_winners(z, reweighted)),
        ("reference dmax, dmax scaled by 1+1e-6", lambda: checks.check_dmax(scaled, ref)),
    ]
    if workload == "fastpath-large":
        cases.append(("reference maximizer, moved by 1e-6", lambda: checks.check_maximizer(moved, ref)))
    return cases


def main():
    maxdiv = bootstrap.use_source_tree()
    import checks
    import workloads

    missed = 0
    for workload in workloads.WORKLOADS:
        for case in workloads.make_pool(workload, seed=0, size=2):
            out = case.op()
            checks.check(workload, case, out)
            for what, call in faults(workload, case, out, maxdiv, checks):
                try:
                    call()
                except checks.CheckFailed as exc:
                    print(f"{workload}: rejected {what}: {exc}")
                else:
                    missed += 1
                    print(f"{workload}: MISSED {what}")
    if missed:
        sys.exit(f"{missed} wrong outputs passed a check")
    print("every check rejected every wrong output")


if __name__ == "__main__":
    main()
