"""The numpy kernels against plain reference implementations."""

import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import maxdiv.kernels as kernels
from maxdiv import adjacency_matrix
from maxdiv.diversity import _NORMAL_MIN, _power_mean_core
from maxdiv.kernels import (
    DOMINATED,
    UNRELIABLE,
    UNRESOLVED,
    _cached_subset_groups,
    _classify_group,
    _subset_groups,
    compositions,
    grid_best,
    scan_subsets,
)
from maxdiv.linalg import PIVOT_RTOL, SOLVE_TOL

from helpers import (
    path_adjacency,
    random_duplicated_psd,
    random_graph,
    random_symmetric,
    scan_every_subset,
)


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
        status, mags = scan_every_subset(z)
        ref_status, ref_mags = _scan_subsets_loop(z, SOLVE_TOL, PIVOT_RTOL)
        assert np.array_equal(status, ref_status)
        assert np.array_equal(np.isnan(mags), np.isnan(ref_mags))
        both = ~np.isnan(mags)
        np.testing.assert_allclose(mags[both], ref_mags[both], rtol=1e-12, atol=0.0)
        seen.update(status.tolist())
    assert seen == {0, 1, 2, 3}


@pytest.mark.parametrize("n, cap", [(7, 10), (7, 128), (1, 10), (1, 65536), (7, 3), (7, 1), (16, 16), (17, 16)])
def test_subset_groups_cover_every_mask_once(monkeypatch, n, cap):
    # cap is _CACHED_N: at or above n the cached tables come as they are;
    # below it the cap's tables are walked once per pattern of the rest
    # (n=17, cap=16: once with species 16 out, once with it in)
    monkeypatch.setattr(kernels, "_CACHED_N", cap)
    seen = []
    for masks, members, bits in _subset_groups(n):
        k = members.shape[0]
        assert members.shape == (k, masks.size) and masks.size > 0
        assert np.all(np.diff(masks) > 0)
        on = (masks[:, None] >> np.arange(n)) & 1
        assert np.array_equal(on.sum(axis=1), np.full(masks.size, k))
        assert np.array_equal(members.T, np.nonzero(on)[1].reshape(-1, k))
        assert bits.dtype == np.float64 and np.array_equal(bits, on.T)
        seen.extend(masks.tolist())
    assert sorted(seen) == list(range(1, 2**n))


def test_cached_subset_groups_are_read_only():
    for masks, members, bits in _cached_subset_groups(5):
        for table in (masks, members, bits):
            assert not table.flags.writeable
            with pytest.raises(ValueError):
                table[0] = table[0]


@pytest.mark.parametrize("n", range(1, 17))
def test_cached_subset_groups_match_a_fresh_build(n):
    # built mask by mask: the size from bin(), the members by listing the set bits
    by_size = [[] for _ in range(n + 1)]
    for mask in range(1, 2**n):
        by_size[bin(mask).count("1")].append(mask)
    cached = _cached_subset_groups(n)
    assert len(cached) == n
    for k, group in enumerate(cached, start=1):
        rows = [[i for i in range(n) if (mask >> i) & 1] for mask in by_size[k]]
        bits = np.zeros((n, len(rows)))
        for b, row in enumerate(rows):
            bits[row, b] = 1.0
        fresh = (np.array(by_size[k], dtype=np.int64), np.array(rows, dtype=np.int8).T, bits)
        for got, want in zip(group, fresh):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.flags.c_contiguous and got.tobytes() == want.tobytes()


def test_scan_above_the_cache_cap_streams():
    # n=17 keeps only the 16-species tables and shifts them into both blocks
    z = random_symmetric(np.random.default_rng(171), 17).values
    _cached_subset_groups.cache_clear()
    status, mags = scan_subsets(z)
    info = _cached_subset_groups.cache_info()
    assert info.currsize == 1
    _cached_subset_groups(16)  # a hit: the one entry is the 16-species tables
    assert _cached_subset_groups.cache_info().hits == info.hits + 1
    full_status, full_mags = scan_every_subset(z)
    kept = status != DOMINATED
    assert 0 < kept.sum() < 0.3 * status.size
    assert np.array_equal(status[kept], full_status[kept])
    assert np.array_equal(mags[kept], full_mags[kept], equal_nan=True)


@pytest.mark.parametrize("seed", [0, 1])
def test_a_lone_subset_classifies_as_in_its_group(seed):
    # numpy would sum a one-column batch pairwise and a wider one row by
    # row; k = 8-11 is where the two orders part
    z = random_symmetric(np.random.default_rng(seed), 12).values
    for masks, members, _ in _cached_subset_groups(12):
        if not 8 <= members.shape[0] <= 11:
            continue
        group = members[:, :40]
        status, mags = _classify_group(z, group)
        for b in range(group.shape[1]):
            alone_status, alone_mags = _classify_group(z, group[:, b : b + 1])
            assert alone_status[0] == status[b]
            assert np.array_equal(alone_mags, mags[b : b + 1], equal_nan=True)


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
        assert out.dtype == np.uint8
        assert np.array_equal(out.T, expected)
        assert not out.flags.writeable
        with pytest.raises(ValueError):
            out[0, 0] = 1


# Orders reaching every branch of the power mean, t = q - 1: t = -1, -0.5,
# 1 and 2 (the direct power sum), t = -5e-4 and 7e-4 (expm1/log1p), t = 0,
# t = 699 (the log-space fallback, where the power sum underflows or
# overflows) and t = inf.
GRID_ORDERS = (0.0, 0.5, 0.9995, 1.0, 1.0007, 2.0, 3.0, 700.0, math.inf)


def _power_mean_rows(ps, xs, t, taken):
    # the power mean as the row-major lattice sweep used it: one per row of
    # the last axis; records the branches it takes in `taken`
    if t == 0.0:
        taken.add("geometric")
        return np.exp(np.vecdot(ps, np.log(xs)))
    if math.isinf(t):
        taken.add("max")
        return xs.max(axis=-1) if t > 0 else xs.min(axis=-1)
    if abs(t) < 1e-3:
        taken.add("expm1")
        return np.exp(np.log1p(np.vecdot(ps, np.expm1(t * np.log(xs)))) / t)
    with np.errstate(over="ignore", under="ignore"):
        s = np.vecdot(ps, xs**t)
    ok = (s >= _NORMAL_MIN) & (s < math.inf)
    if ok.all():
        taken.add("direct")
        return s ** (1.0 / t)
    taken.add("underflow" if (s < _NORMAL_MIN).any() else "overflow")
    with np.errstate(divide="ignore"):
        lt = np.log(ps) + t * np.log(xs)
        mean = s ** (1.0 / t)
    mx = lt.max(axis=-1, keepdims=True)
    ls = mx[..., 0] + np.log(np.exp(lt - mx).sum(axis=-1))
    return np.where(ok, mean, np.exp(ls / t))


def _grid_best_rows(z, qs, m, taken, chunk=131072):
    # the lattice sweep before it went species-major: (chunk, n) rows
    z = np.ascontiguousarray(z, dtype=np.float64)
    qs = np.asarray(qs, dtype=np.float64)
    n = z.shape[0]
    best_vals = np.full(qs.shape[0], -np.inf)
    best_pts = np.zeros((qs.shape[0], n))
    counts = np.ascontiguousarray(compositions(n, m).T)
    for lo in range(0, counts.shape[0], chunk):
        cc = counts[lo : lo + chunk]
        pc = cc / m
        xpc = pc @ z.T
        off = cc == 0
        x_finite = np.where(off, 1.0, xpc)
        x_max = np.where(off, 0.0, xpc)
        for i, q in enumerate(qs):
            vals = 1.0 / _power_mean_rows(pc, x_max if math.isinf(q) else x_finite, q - 1.0, taken)
            j = int(vals.argmax())
            if vals[j] > best_vals[i]:
                best_vals[i] = vals[j]
                best_pts[i] = pc[j]
    return best_vals, best_pts


def _grid_cases():
    # (z, m) for n = 1..6; per (n, m): a random matrix, one with a zero
    # off-diagonal pair, one scaled by 8 (the power sum at q = 700
    # overflows) and one scaled by 0.3 (it underflows everywhere); the
    # unscaled ones underflow only on spread-out compositions.  Diagonals
    # are random too: a permutation of species that fixes Z would tie
    # lattice points exactly, and which of them wins would then rest on
    # the last bit of the summation order.
    rng = np.random.default_rng(181)
    resolutions = {1: (1, 9), 2: (3, 17, 40), 3: (5, 23, 40), 4: (6, 19, 30), 5: (4, 13, 24), 6: (3, 9, 14)}
    cases = []
    for n, ms in resolutions.items():
        for m in ms:
            z = [random_symmetric(rng, n, unit_diag=False).values.copy() for _ in range(4)]
            if n > 1:
                i, j = rng.choice(n, size=2, replace=False)
                z[1][i, j] = z[1][j, i] = 0.0
            cases += [(z[0], m), (z[1], m), (8.0 * z[2], m), (0.3 * z[3], m)]
    return cases


def test_grid_best_matches_row_major_sweep():
    # z @ pc sums in another order than the row-major pc @ z.T, so values
    # may differ in the last bit; the argmax points may not
    taken = set()
    cases = _grid_cases()
    for z, m in cases:
        vals, pts = grid_best(z, GRID_ORDERS, m)
        ref_vals, ref_pts = _grid_best_rows(z, GRID_ORDERS, m, taken)
        assert np.array_equal(pts, ref_pts)
        np.testing.assert_allclose(vals, ref_vals, rtol=1e-15, atol=0.0)
    assert len(cases) == 68
    assert taken == {"geometric", "max", "expm1", "direct", "underflow", "overflow"}


@pytest.mark.parametrize("chunk", [1, 2, 7])
def test_grid_best_across_chunk_sizes(monkeypatch, chunk):
    # From two compositions a chunk up, BLAS takes the same matrix-product
    # and strided-dot kernels, so every value is the same double; a one-wide
    # last chunk holds the vertex (0, ..., 0, m), where every sum has one
    # nonzero term and is exact.  Chunks of one take BLAS's matrix-vector
    # and unit-stride dot kernels, which round differently for n >= 4:
    # there the values agree to the last bits and the points are the same.
    limit = 400 if chunk == 1 else 2500
    cases = [(z, m) for z, m in _grid_cases() if math.comb(m + z.shape[0] - 1, m) <= limit]
    default = [grid_best(z, GRID_ORDERS, m) for z, m in cases]
    monkeypatch.setattr(kernels, "_GRID_CHUNK", chunk)
    for (z, m), (vals, pts) in zip(cases, default):
        out_vals, out_pts = grid_best(z, GRID_ORDERS, m)
        assert np.array_equal(out_pts, pts)
        if chunk == 1:
            np.testing.assert_allclose(out_vals, vals, rtol=1e-15, atol=0.0)
        else:
            assert np.array_equal(out_vals, vals)
    assert len(cases) >= 25


@pytest.mark.parametrize("chunk", [1, 7, None])
def test_grid_ties_go_to_the_first_composition(monkeypatch, chunk):
    # With Z all ones every lattice point ties.  The resolutions are powers
    # of two, so every lattice point and every Zp is exact and each value
    # is exactly 1; with other m the points miss the simplex by an ulp and
    # their values differ in the last bit.
    if chunk is not None:
        monkeypatch.setattr(kernels, "_GRID_CHUNK", chunk)
    for n in range(1, 7):
        for m in (1, 2, 8, 16):
            if chunk == 1 and math.comb(m + n - 1, m) > 400:
                continue
            vals, pts = grid_best(np.ones((n, n)), GRID_ORDERS, m)
            first = np.zeros(n)
            first[0] = 1.0
            assert np.array_equal(vals, np.ones(len(GRID_ORDERS)))
            assert np.array_equal(pts, np.tile(first, (len(GRID_ORDERS), 1)))


@pytest.mark.parametrize("t", [0.0, -5e-4, 7e-4, -1.0, 2.0, 699.0, -699.0, math.inf, -math.inf])
def test_power_mean_columns_match_vector_calls(t):
    # One (species, batch) call against one call per column.  Each column
    # goes in once as an (n, 1) view, which must give the same doubles, and
    # once as a vector.  A vector call's power sum is a numpy scalar, whose
    # `**` rounds apart from the array loop's (np.float64(s) ** -1.0 can
    # differ from 1 / s by an ulp), so where a power of the sum is taken
    # the vector results agree to rounding only.  At |t| = 699 the batch
    # mixes columns whose power sum is normal with columns where it
    # underflows or overflows.
    rng = np.random.default_rng(7)
    for n in range(1, 7):
        ps = rng.uniform(size=(n, 24))
        ps[rng.uniform(size=ps.shape) < 0.3] = 0.0
        ps[0, ps.sum(axis=0) == 0] = 1.0
        ps /= ps.sum(axis=0)
        scale = np.repeat([0.2, 0.9, 1.0, 1.1, 4.0, 1.0], 4)  # per column
        xs = scale * rng.uniform(0.8, 1.0, size=(n, 24))
        xs[ps == 0] = 0.0 if t == math.inf else 1.0
        out = _power_mean_core(ps, xs, t)
        assert out.shape == (24,)
        cols = [_power_mean_core(ps[:, j : j + 1], xs[:, j : j + 1], t) for j in range(24)]
        assert np.array_equal(out, np.concatenate(cols))
        vecs = np.array([_power_mean_core(ps[:, j], xs[:, j], t) for j in range(24)])
        if t in (-1.0, 2.0, 699.0, -699.0):
            np.testing.assert_allclose(out, vecs, rtol=1e-15, atol=0.0)
        else:
            assert np.array_equal(out, vecs)
        if abs(t) == 699.0 and n > 1:
            with np.errstate(over="ignore", under="ignore"):
                s = np.vecdot(ps, xs**t, axis=0)
            ok = (s >= _NORMAL_MIN) & (s < math.inf)
            assert ok.any() and not ok.all()

def test_kernel_benchmark_script_runs():
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH="src")
    res = subprocess.run(
        [sys.executable, "benchmarks/bench_kernels.py", "--scan-sizes", "4,17", "--grid-sizes", "3", "--resolution", "5"],
        cwd=root, env=env, capture_output=True, text=True,
    )
    assert res.returncode == 0, res.stderr
    rows = [line for line in res.stdout.splitlines() if line.endswith("ms")]
    assert len(rows) == 8
    assert rows[0].startswith("subset scan n=4 ")
    assert rows[1].startswith("subset scan n=17 ")
    assert rows[2].startswith("lattice sweep n=3 m=5 ")
    assert rows[3].startswith("phase-1 LP (200 duplicated-species weighting spaces")
    for row, n in zip(rows[4:], (128, 256, 512)):
        assert row.startswith(f"ultrametric test n={n} (ultrametric input) ")
    assert rows[7].startswith("definiteness n=128 (positive definite input, eigvalsh ")
    # the scan and lattice rows add a cold time to the best of three, and
    # the definiteness row names the eigvalsh time in its label
    assert [len(re.findall(r"\d\.\d\dms", row)) for row in rows] == [2, 2, 2, 1, 1, 1, 1, 2]
