"""Unit tests for the forest-scan primitive."""

import numpy as np
import pytest

from repro.core.forest import (
    SublistConfig,
    forest_list_scan,
    forest_tails,
    serial_forest_scan,
    wyllie_forest_scan,
)
from repro.core.operators import AFFINE, MAX, SUM
from repro.lists.generate import INDEX_DTYPE
from repro.lists.validate import ListStructureError

CUT8 = SublistConfig(serial_cutoff=8)


def make_forest(sizes, rng):
    """Disjoint chains over one shared node array, random layout."""
    total = int(sum(sizes))
    perm = rng.permutation(total)
    nxt = np.empty(total, dtype=INDEX_DTYPE)
    heads = []
    pos = 0
    for s in sizes:
        seg = perm[pos : pos + s]
        nxt[seg[:-1]] = seg[1:]
        nxt[seg[-1]] = seg[-1]
        heads.append(seg[0])
        pos += s
    return nxt, np.asarray(heads, dtype=INDEX_DTYPE)


@pytest.fixture
def forest5(rng):
    nxt, heads = make_forest([100, 3, 50, 1, 200], rng)
    values = rng.integers(-9, 9, nxt.shape[0])
    return nxt, heads, values


class TestForestTails:
    def test_tails_are_self_loops(self, forest5):
        nxt, heads, _ = forest5
        tails = forest_tails(nxt, heads)
        assert np.all(nxt[tails] == tails)

    def test_one_tail_per_list(self, forest5):
        nxt, heads, _ = forest5
        tails = forest_tails(nxt, heads)
        assert len(np.unique(tails)) == heads.size


class TestSerialForestScan:
    def test_each_list_scanned_independently(self, forest5):
        nxt, heads, values = forest5
        out = np.empty_like(values)
        serial_forest_scan(nxt, values, heads, SUM, None, out)
        for h in heads:
            assert out[h] == 0

    def test_carries_seed(self, forest5, rng):
        nxt, heads, values = forest5
        carries = rng.integers(-100, 100, heads.size)
        out = np.empty_like(values)
        serial_forest_scan(nxt, values, heads, SUM, carries, out)
        assert np.array_equal(out[heads], carries)


class TestWyllieForestScan:
    @pytest.mark.parametrize("sizes", [[1], [1, 1, 1], [5, 7], [64, 1, 33, 128]])
    def test_matches_serial(self, sizes, rng):
        nxt, heads = make_forest(sizes, rng)
        values = rng.integers(-9, 9, nxt.shape[0])
        ref = np.empty_like(values)
        serial_forest_scan(nxt, values, heads, SUM, None, ref)
        got = np.empty_like(values)
        wyllie_forest_scan(nxt, values, heads, SUM, None, got)
        assert np.array_equal(got, ref)

    def test_with_carries(self, forest5, rng):
        nxt, heads, values = forest5
        carries = rng.integers(-50, 50, heads.size)
        ref = np.empty_like(values)
        serial_forest_scan(nxt, values, heads, SUM, carries, ref)
        got = np.empty_like(values)
        wyllie_forest_scan(nxt, values, heads, SUM, carries, got)
        assert np.array_equal(got, ref)

    def test_affine(self, rng):
        nxt, heads = make_forest([40, 17, 90], rng)
        n = nxt.shape[0]
        values = np.stack(
            [rng.integers(1, 3, n), rng.integers(-4, 4, n)], axis=1
        ).astype(np.int64)
        ref = np.empty_like(values)
        serial_forest_scan(nxt, values, heads, AFFINE, None, ref)
        got = np.empty_like(values)
        wyllie_forest_scan(nxt, values, heads, AFFINE, None, got)
        assert np.array_equal(got, ref)


class TestForestListScan:
    @pytest.mark.parametrize("seed", range(8))
    def test_random_forests(self, seed):
        rng = np.random.default_rng(seed)
        sizes = [int(rng.integers(1, 500)) for _ in range(int(rng.integers(1, 9)))]
        nxt, heads = make_forest(sizes, rng)
        values = rng.integers(-9, 9, nxt.shape[0])
        ref = np.empty_like(values)
        serial_forest_scan(nxt, values, heads, SUM, None, ref)
        got = forest_list_scan(
            nxt, values, heads, SUM, config=CUT8, rng=rng
        )
        assert np.array_equal(got, ref)

    def test_restores_arrays(self, forest5, rng):
        nxt, heads, values = forest5
        bn, bv = nxt.copy(), values.copy()
        forest_list_scan(nxt, values, heads, SUM, config=CUT8, rng=rng)
        assert np.array_equal(nxt, bn)
        assert np.array_equal(values, bv)

    def test_carries(self, forest5, rng):
        nxt, heads, values = forest5
        carries = rng.integers(-100, 100, heads.size)
        ref = np.empty_like(values)
        serial_forest_scan(nxt, values, heads, SUM, carries, ref)
        got = forest_list_scan(
            nxt, values, heads, SUM, carries=carries, config=CUT8, rng=rng
        )
        assert np.array_equal(got, ref)

    def test_max_operator(self, forest5, rng):
        nxt, heads, values = forest5
        ref = np.empty_like(values)
        serial_forest_scan(nxt, values, heads, MAX, None, ref)
        got = forest_list_scan(nxt, values, heads, MAX, config=CUT8, rng=rng)
        assert np.array_equal(got, ref)

    def test_inclusive(self, forest5, rng):
        nxt, heads, values = forest5
        excl = forest_list_scan(nxt, values, heads, SUM, config=CUT8, rng=0)
        incl = forest_list_scan(
            nxt, values, heads, SUM, inclusive=True, config=CUT8, rng=0
        )
        assert np.array_equal(incl, excl + values)

    def test_list_ids(self, forest5, rng):
        nxt, heads, values = forest5
        _, ids = forest_list_scan(
            nxt, values, heads, SUM, config=CUT8, rng=rng,
            return_list_ids=True,
        )
        for k, h in enumerate(heads):
            cur = int(h)
            while True:
                assert ids[cur] == k
                succ = int(nxt[cur])
                if succ == cur:
                    break
                cur = succ

    def test_single_list_matches_sublist_scan(self, rng):
        from repro.baselines.serial import serial_list_scan
        from repro.lists.generate import random_list

        lst = random_list(3000, rng, values=rng.integers(-9, 9, 3000))
        got = forest_list_scan(
            lst.next, lst.values, np.asarray([lst.head]), SUM,
            config=CUT8, rng=rng,
        )
        assert np.array_equal(got, serial_list_scan(lst))

    def test_inclusive_serial_base_case(self):
        nxt = np.array([1, 2, 2], dtype=INDEX_DTYPE)
        values = np.array([1, 2, 3])
        got = forest_list_scan(nxt, values, np.array([0]), SUM, inclusive=True)
        assert got.tolist() == [1, 3, 6]

    def test_rho_shaped_input_raises_and_restores(self):
        # 0 -> 1 -> ... -> n-2 -> n-3: the tail of the path loops back
        # into a two-node cycle; node n-1 is a detached self-loop
        n = 5000
        nxt = np.arange(1, n + 1, dtype=INDEX_DTYPE)
        nxt[n - 2] = n - 3
        nxt[n - 1] = n - 1
        values = np.arange(n, dtype=np.int64)
        bn, bv = nxt.copy(), values.copy()
        with pytest.raises(ListStructureError, match="cycle"):
            forest_list_scan(
                nxt, values, np.array([0]), SUM,
                config=SublistConfig(m=2, s1=4.0), rng=0,
            )
        assert np.array_equal(nxt, bn)
        assert np.array_equal(values, bv)

    def test_rejects_empty_forest(self, rng):
        with pytest.raises(ValueError):
            forest_list_scan(
                np.zeros(1, dtype=INDEX_DTYPE),
                np.zeros(1, dtype=np.int64),
                np.empty(0, dtype=INDEX_DTYPE),
                SUM,
            )

    def test_rejects_bad_carries(self, forest5):
        nxt, heads, values = forest5
        with pytest.raises(ValueError, match="carries"):
            forest_list_scan(
                nxt, values, heads, SUM, carries=np.zeros(heads.size + 1)
            )
