"""Unit tests for the paper's sublist algorithm (host backend)."""

import numpy as np
import pytest

from repro.analysis.cost_model import PAPER_C90_COSTS
from repro.baselines.serial import serial_list_scan, serial_list_rank
from repro.core.list_scan import list_scan
from repro.core.operators import AFFINE, MAX, MIN, PROD, XOR
from repro.core.stats import ScanStats
from repro.core.sublist import (
    SublistConfig,
    sublist_list_rank,
    sublist_list_scan,
)
from repro.core.tuning import tuned_parameters
from repro.lists.generate import (
    blocked_list,
    from_order,
    ordered_list,
    random_list,
    reversed_list,
)
from .conftest import make_affine_values

SIZES = [1, 2, 3, 4, 5, 8, 16, 100, 257, 1000, 4096, 20000]


class TestCorrectness:
    @pytest.mark.parametrize("n", SIZES)
    def test_random_lists(self, n, rng):
        lst = random_list(n, rng, values=rng.integers(-9, 9, n))
        got = sublist_list_scan(lst, rng=rng)
        assert np.array_equal(got, serial_list_scan(lst)), f"n={n}"

    @pytest.mark.parametrize("layout", [ordered_list, reversed_list])
    def test_sequential_layouts(self, layout, rng):
        lst = layout(3000, values=rng.integers(-9, 9, 3000))
        assert np.array_equal(
            sublist_list_scan(lst, rng=rng), serial_list_scan(lst)
        )

    def test_blocked_layout(self, rng):
        lst = blocked_list(3000, 16, rng, values=rng.integers(-9, 9, 3000))
        assert np.array_equal(
            sublist_list_scan(lst, rng=rng), serial_list_scan(lst)
        )

    @pytest.mark.parametrize("op", [MAX, MIN, PROD, XOR], ids=lambda o: o.name)
    def test_operators(self, op, rng):
        vals = rng.integers(1, 9, 3000)
        lst = random_list(3000, rng, values=vals)
        got = sublist_list_scan(lst, op, rng=rng)
        assert np.array_equal(got, serial_list_scan(lst, op))

    def test_affine_non_commutative(self, rng):
        n = 3000
        lst = from_order(rng.permutation(n), make_affine_values(rng, n))
        got = sublist_list_scan(lst, AFFINE, rng=rng)
        assert np.array_equal(got, serial_list_scan(lst, AFFINE))

    def test_inclusive(self, rng):
        lst = random_list(2000, rng, values=rng.integers(-9, 9, 2000))
        got = sublist_list_scan(lst, inclusive=True, rng=rng)
        assert np.array_equal(got, serial_list_scan(lst, inclusive=True))

    def test_float_values(self, rng):
        lst = random_list(2000, rng, values=rng.random(2000))
        got = sublist_list_scan(lst, rng=rng)
        assert np.allclose(got, serial_list_scan(lst))

    def test_rank(self, rng):
        lst = random_list(5000, rng)
        assert np.array_equal(sublist_list_rank(lst, rng=rng), serial_list_rank(lst))

    def test_deterministic_given_seed(self, rng):
        lst = random_list(2000, rng)
        a = sublist_list_scan(lst, rng=7)
        b = sublist_list_scan(lst, rng=7)
        assert np.array_equal(a, b)


class TestRestoration:
    """The paper's RESTORE_LIST: inputs come back bit-identical."""

    @pytest.mark.parametrize("n", [5, 100, 5000])
    def test_arrays_restored(self, n, rng):
        lst = random_list(n, rng, values=rng.integers(-9, 9, n))
        before_next = lst.next.copy()
        before_vals = lst.values.copy()
        sublist_list_scan(lst, rng=rng)
        assert np.array_equal(lst.next, before_next)
        assert np.array_equal(lst.values, before_vals)

    def test_restored_after_recursive_run(self, rng):
        lst = random_list(8000, rng)
        cfg = SublistConfig(m=2000, s1=2.0, wyllie_cutoff=512, serial_cutoff=32)
        before = lst.next.copy()
        sublist_list_scan(lst, config=cfg, rng=rng)
        assert np.array_equal(lst.next, before)

    def test_restored_on_error(self, rng):
        """If the operator explodes mid-run the list is still restored."""
        lst = random_list(1000, rng)
        calls = {"k": 0}

        def bomb(a, b):
            calls["k"] += 1
            if calls["k"] == 25:
                raise RuntimeError("boom")
            return np.add(a, b)

        from repro.core.operators import Operator

        op = Operator(name="bomb", combine=bomb, identity=0)
        before_next = lst.next.copy()
        before_vals = lst.values.copy()
        with pytest.raises(RuntimeError, match="boom"):
            sublist_list_scan(lst, op, config=SublistConfig(m=64, s1=4.0), rng=rng)
        assert np.array_equal(lst.next, before_next)
        assert np.array_equal(lst.values, before_vals)


class TestConfig:
    def test_explicit_m_s1(self, rng):
        lst = random_list(4000, rng, values=rng.integers(-9, 9, 4000))
        cfg = SublistConfig(m=100, s1=10.0)
        assert np.array_equal(
            sublist_list_scan(lst, config=cfg, rng=rng), serial_list_scan(lst)
        )

    @pytest.mark.parametrize("m", [2, 3, 64, 1999])
    def test_extreme_m(self, m, rng):
        lst = random_list(4000, rng, values=rng.integers(-9, 9, 4000))
        cfg = SublistConfig(m=m, s1=5.0)
        assert np.array_equal(
            sublist_list_scan(lst, config=cfg, rng=rng), serial_list_scan(lst)
        )

    def test_m_larger_than_n_clamped(self, rng):
        lst = random_list(600, rng)
        cfg = SublistConfig(m=10_000, s1=1.0, serial_cutoff=8)
        assert np.array_equal(
            sublist_list_scan(lst, config=cfg, rng=rng), serial_list_scan(lst)
        )

    def test_recursion_path(self, rng):
        lst = random_list(20_000, rng, values=rng.integers(-9, 9, 20_000))
        cfg = SublistConfig(m=4000, s1=2.0, wyllie_cutoff=500, serial_cutoff=16)
        got = sublist_list_scan(lst, config=cfg, rng=rng)
        assert np.array_equal(got, serial_list_scan(lst))

    def test_wyllie_phase2_path(self, rng):
        lst = random_list(20_000, rng, values=rng.integers(-9, 9, 20_000))
        cfg = SublistConfig(m=2000, s1=4.0, serial_cutoff=64, wyllie_cutoff=100_000)
        got = sublist_list_scan(lst, config=cfg, rng=rng)
        assert np.array_equal(got, serial_list_scan(lst))

    def test_rejects_bad_m(self):
        with pytest.raises(ValueError, match="m"):
            SublistConfig(m=1)

    def test_rejects_bad_s1(self):
        with pytest.raises(ValueError):
            SublistConfig(s1=0.0)

    def test_rejects_inverted_cutoffs(self):
        with pytest.raises(ValueError, match="cutoff"):
            SublistConfig(serial_cutoff=1000, wyllie_cutoff=10)


class TestStats:
    def test_work_efficient(self, rng):
        """Total element operations stay within a small factor of n."""
        n = 100_000
        lst = random_list(n, rng)
        stats = ScanStats()
        sublist_list_scan(lst, rng=rng, stats=stats)
        assert stats.work_per_element(n) < 4.0  # paper: O(n), ≈2n + tail chase

    def test_phases_recorded(self, rng):
        stats = ScanStats()
        sublist_list_scan(random_list(10_000, rng), rng=rng, stats=stats)
        assert "phase1" in stats.phases
        assert "phase3" in stats.phases
        assert stats.packs > 0

    def test_phase3_work_at_least_n(self, rng):
        n = 50_000
        stats = ScanStats()
        sublist_list_scan(random_list(n, rng), rng=rng, stats=stats)
        assert stats.phases["phase3"] >= n


class TestCraftedOrder:
    """Splitters are drawn at random, so no list order can defeat them."""

    def test_list_visiting_spaced_positions_first(self):
        # The list visits the m - 1 equally spaced positions first and
        # consecutively.  Spaced splitters would cut it into m - 1
        # one-node sublists plus one of n - m + 1 nodes, chased by a
        # one-element vector: ~100x the rounds of a random list.
        n = 1 << 16
        m, _ = tuned_parameters(n, PAPER_C90_COSTS)
        spaced = np.unique((np.arange(1, m) * n / m).astype(np.int64))
        crafted = from_order(
            np.concatenate([spaced, np.setdiff1d(np.arange(n), spaced)])
        )
        rounds = {}
        for name, lst in (("crafted", crafted), ("random", random_list(n, 0))):
            stats = ScanStats()
            got = list_scan(lst, stats=stats, rng=0)
            assert np.array_equal(got, serial_list_scan(lst)), name
            rounds[name] = stats.rounds
        assert rounds["crafted"] <= 3 * rounds["random"], rounds
