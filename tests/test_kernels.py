"""The numpy kernels against plain reference implementations."""

import numpy as np
import pytest

from maxdiv import adjacency_matrix
from maxdiv.kernels import (
    _scan_subsets_loop,
    _scan_subsets_numpy,
    _subset_groups,
    compositions,
)

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
    # without numba, _scan_subsets_loop is the plain Python reference; only
    # summation order differs between the two, never the pivots
    cases = _scan_cases()
    assert len(cases) >= 120
    seen = set()
    for z in cases:
        status, mags = _scan_subsets_numpy(z, 1e-9, 1e-10)
        ref_status, ref_mags = _scan_subsets_loop(z, 1e-9, 1e-10)
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
