"""Property-based tests for the extension modules (forest, segmented,
early reconnect, mutation utilities)."""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.baselines.serial import serial_list_scan
from repro.core.early_reconnect import early_reconnect_list_scan
from repro.core.forest import SublistConfig, forest_list_scan, serial_forest_scan
from repro.core.operators import SUM
from repro.core.segmented import segmented_list_scan
from repro.lists.generate import INDEX_DTYPE, from_order, list_order
from repro.lists.mutate import concatenate, reverse, splice_out, split_after
from repro.lists.validate import validate_list_strict

COMMON = dict(deadline=None, suppress_health_check=[HealthCheck.too_slow])
CUT4 = SublistConfig(serial_cutoff=4)


@st.composite
def forests(draw, max_lists=6, max_total=300):
    n_lists = draw(st.integers(1, max_lists))
    sizes = draw(
        st.lists(
            st.integers(1, max_total // max_lists),
            min_size=n_lists,
            max_size=n_lists,
        )
    )
    seed = draw(st.integers(0, 2**31 - 1))
    rng = np.random.default_rng(seed)
    total = sum(sizes)
    perm = rng.permutation(total)
    nxt = np.empty(total, dtype=INDEX_DTYPE)
    heads = []
    pos = 0
    for s in sizes:
        seg = perm[pos : pos + s]
        nxt[seg[:-1]] = seg[1:]
        nxt[seg[-1]] = seg[-1]
        heads.append(int(seg[0]))
        pos += s
    values = rng.integers(-20, 20, total)
    return nxt, np.asarray(heads, dtype=INDEX_DTYPE), values


@st.composite
def valued_lists(draw, max_n=300):
    n = draw(st.integers(1, max_n))
    seed = draw(st.integers(0, 2**31 - 1))
    rng = np.random.default_rng(seed)
    return from_order(rng.permutation(n), rng.integers(-20, 20, n))


class TestForestProperties:
    @settings(max_examples=50, **COMMON)
    @given(data=forests(), seed=st.integers(0, 999))
    def test_forest_equals_serial(self, data, seed):
        nxt, heads, values = data
        ref = np.empty_like(values)
        serial_forest_scan(nxt, values, heads, SUM, None, ref)
        got = forest_list_scan(
            nxt, values, heads, SUM, config=CUT4, rng=seed
        )
        assert np.array_equal(got, ref)

    @settings(max_examples=50, **COMMON)
    @given(data=forests(), seed=st.integers(0, 999))
    def test_forest_restores(self, data, seed):
        nxt, heads, values = data
        bn, bv = nxt.copy(), values.copy()
        forest_list_scan(nxt, values, heads, SUM, config=CUT4, rng=seed)
        assert np.array_equal(nxt, bn)
        assert np.array_equal(values, bv)

    @settings(max_examples=30, **COMMON)
    @given(data=forests(), seed=st.integers(0, 999))
    def test_carries_shift_results(self, data, seed):
        """Adding carry c to list k shifts exactly its nodes by c."""
        nxt, heads, values = data
        rng = np.random.default_rng(seed)
        carries = rng.integers(-50, 50, heads.size)
        base, ids = forest_list_scan(
            nxt, values, heads, SUM, config=CUT4, rng=seed,
            return_list_ids=True,
        )
        seeded = forest_list_scan(
            nxt, values, heads, SUM, carries=carries,
            config=CUT4, rng=seed,
        )
        assert np.array_equal(seeded, base + carries[ids])


class TestEarlyReconnectProperties:
    @settings(max_examples=40, **COMMON)
    @given(
        lst=valued_lists(),
        seed=st.integers(0, 999),
        switch=st.integers(0, 64),
    )
    def test_equals_serial(self, lst, seed, switch):
        got = early_reconnect_list_scan(lst, switch_count=switch, rng=seed)
        assert np.array_equal(got, serial_list_scan(lst))

    @settings(max_examples=40, **COMMON)
    @given(lst=valued_lists(), seed=st.integers(0, 999))
    def test_restores(self, lst, seed):
        bn, bv = lst.next.copy(), lst.values.copy()
        early_reconnect_list_scan(lst, switch_count=4, rng=seed)
        assert np.array_equal(lst.next, bn)
        assert np.array_equal(lst.values, bv)


class TestSegmentedProperties:
    @settings(max_examples=40, **COMMON)
    @given(lst=valued_lists(max_n=200), seed=st.integers(0, 999))
    def test_segment_heads_get_identity(self, lst, seed):
        rng = np.random.default_rng(seed)
        k = int(rng.integers(0, max(1, lst.n // 3)))
        heads = rng.choice(lst.n, size=k, replace=False) if k else np.empty(
            0, dtype=np.int64
        )
        out = segmented_list_scan(lst, heads, SUM, algorithm="serial")
        assert out[lst.head] == 0
        for h in heads:
            assert out[h] == 0

    @settings(max_examples=40, **COMMON)
    @given(lst=valued_lists(max_n=200), seed=st.integers(0, 999))
    def test_telescoping_within_segments(self, lst, seed):
        """scan[next[v]] − scan[v] = value[v] unless next[v] starts a
        segment."""
        rng = np.random.default_rng(seed)
        k = int(rng.integers(0, max(1, lst.n // 4)))
        heads = (
            rng.choice(lst.n, size=k, replace=False)
            if k
            else np.empty(0, dtype=np.int64)
        )
        out = segmented_list_scan(lst, heads, SUM, algorithm="serial")
        head_set = set(int(h) for h in heads) | {lst.head}
        idx = np.arange(lst.n)
        proper = lst.next != idx
        for v in idx[proper]:
            succ = int(lst.next[v])
            if succ in head_set:
                assert out[succ] == 0
            else:
                assert out[succ] - out[v] == lst.values[v]


class TestMutateProperties:
    @settings(max_examples=40, **COMMON)
    @given(lst=valued_lists(max_n=150), seed=st.integers(0, 999))
    def test_split_concat_roundtrip(self, lst, seed):
        rng = np.random.default_rng(seed)
        k = int(rng.integers(0, 5))
        cuts = rng.choice(lst.n, size=min(k, lst.n), replace=False)
        pieces = split_after(lst, cuts)
        combined, _ = concatenate([p for p, _ in pieces])
        validate_list_strict(combined)
        ids = np.concatenate([ids for _, ids in pieces])
        # traversal of the concatenation visits the original values in
        # the original order
        vals_roundtrip = combined.values[list_order(combined)]
        vals_original = lst.values[list_order(lst)]
        assert np.array_equal(vals_roundtrip, vals_original)
        assert np.array_equal(ids, list_order(lst))

    @settings(max_examples=40, **COMMON)
    @given(lst=valued_lists(max_n=150))
    def test_reverse_involution(self, lst):
        assert np.array_equal(
            list_order(reverse(reverse(lst))), list_order(lst)
        )

    @settings(max_examples=40, **COMMON)
    @given(lst=valued_lists(max_n=150), seed=st.integers(0, 999))
    def test_splice_out_partition(self, lst, seed):
        if lst.n < 2:
            return
        rng = np.random.default_rng(seed)
        order = list_order(lst)
        a = int(rng.integers(0, lst.n - 1))
        b = int(rng.integers(a, lst.n - 1)) if a < lst.n - 1 else a
        if b - a + 1 >= lst.n:
            return
        (rem, rem_ids), (seg, seg_ids) = splice_out(
            lst, int(order[a]), int(order[b])
        )
        validate_list_strict(rem)
        validate_list_strict(seg)
        assert rem.n + seg.n == lst.n
        assert set(rem_ids) | set(seg_ids) == set(range(lst.n))
