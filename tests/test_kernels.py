"""The numpy kernels against plain reference implementations."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from maxdiv import adjacency_matrix
from maxdiv.kernels import (
    UNRELIABLE,
    UNRESOLVED,
    _subset_groups,
    compositions,
    scan_subsets,
)
from maxdiv.linalg import PIVOT_RTOL, SOLVE_TOL

from helpers import path_adjacency, random_duplicated_psd, random_graph, random_symmetric


def _scan_cases():
    rng = np.random.default_rng(131)
    cases = [path_adjacency(n).values for n in range(3, 9)]
    # full rank, but the residual misses the gate: UNRELIABLE
    cases.append(np.array([[1.0, 0.9], [0.9, 0.81 + 3e-9]]))
    for _ in range(38):
        cases.append(random_symmetric(rng, int(rng.integers(2, 8))).values)
        cases.append(random_duplicated_psd(rng, int(rng.integers(2, 8))).values)
        graph = random_graph(rng, int(rng.integers(2, 8)), rng.uniform(0.2, 0.7))
        cases.append(adjacency_matrix(graph).values)
    return cases


def test_numpy_scan_matches_scalar_loop():
    # _scan_subsets_loop is the plain Python reference; only summation
    # order differs between the two, never the pivots
    cases = _scan_cases()
    assert len(cases) >= 120
    seen = set()
    for z in cases:
        status, mags = scan_subsets(z)
        ref_status, ref_mags = _scan_subsets_loop(z, SOLVE_TOL, PIVOT_RTOL)
        assert np.array_equal(status, ref_status)
        assert np.array_equal(np.isnan(mags), np.isnan(ref_mags))
        both = ~np.isnan(mags)
        np.testing.assert_allclose(mags[both], ref_mags[both], rtol=1e-12, atol=0.0)
        seen.update(status.tolist())
    assert seen == {0, 1, 2, 3}


@pytest.mark.parametrize("n, block", [(7, 10), (7, 128), (1, 10), (1, 65536)])
def test_subset_groups_cover_every_mask_once(n, block):
    seen = []
    for masks, members in _subset_groups(n, block):
        k = members.shape[0]
        assert members.shape == (k, masks.size) and masks.size > 0
        assert np.all(np.diff(masks) > 0)
        for mask, row in zip(masks.tolist(), members.T.tolist()):
            assert bin(mask).count("1") == k
            assert row == [i for i in range(n) if (mask >> i) & 1]
        seen.extend(masks.tolist())
    assert sorted(seen) == list(range(1, 2**n))


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


def _compositions_recursive(n, m):
    # the builder compositions() replaced: heads m..0 over each tail
    if n == 1:
        return np.array([[m]], dtype=np.int32)
    blocks = []
    for k in range(m, -1, -1):
        tail = _compositions_recursive(n - 1, m - k)
        head = np.full((tail.shape[0], 1), k, dtype=np.int32)
        blocks.append(np.hstack([head, tail]))
    return np.vstack(blocks)


@pytest.mark.parametrize("n", range(1, 7))
def test_compositions_match_recursive_builder(n):
    for m in (1, 2, 5, 9):
        out = compositions(n, m)
        expected = _compositions_recursive(n, m)
        assert out.dtype == expected.dtype
        assert np.array_equal(out, expected)
        assert not out.flags.writeable
        with pytest.raises(ValueError):
            out[0, 0] = 1


def test_kernel_benchmark_script_runs():
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH="src")
    res = subprocess.run(
        [sys.executable, "benchmarks/bench_kernels.py", "--scan-sizes", "4", "--grid-sizes", "3", "--resolution", "5"],
        cwd=root, env=env, capture_output=True, text=True,
    )
    assert res.returncode == 0, res.stderr
    rows = [line for line in res.stdout.splitlines() if line.endswith("ms")]
    assert len(rows) == 3
    assert rows[0].startswith("subset scan n=4 ")
    assert rows[1].startswith("lattice sweep n=3 m=5 ")
    assert rows[2].startswith("phase-1 LP (200 duplicated-species weighting spaces")
