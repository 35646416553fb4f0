"""Tests for the simulated algorithm runs (correctness + cost sanity)."""

import numpy as np
import pytest

from repro.baselines.serial import serial_list_scan
from repro.core.operators import MAX, XOR
from repro.lists.generate import random_list
from repro.machine.config import CRAY_C90, CRAY_YMP
from repro.simulate.contraction_sim import (
    anderson_miller_scan_sim,
    random_mate_scan_sim,
    stats_to_cycles,
)
from repro.simulate.serial_sim import serial_rank_sim, serial_scan_sim
from repro.simulate.sublist_sim import (
    SimSublistConfig,
    choose_splitters,
    sublist_rank_sim,
    sublist_scan_sim,
)
from repro.simulate.wyllie_sim import wyllie_rank_sim, wyllie_scan_sim


class TestResultsAreExact:
    """The simulator executes the real algorithms — outputs must be
    bit-identical to the serial reference."""

    @pytest.mark.parametrize("n", [10, 100, 1000, 20_000])
    def test_sublist(self, n, rng):
        lst = random_list(n, rng, values=rng.integers(-9, 9, n))
        res = sublist_scan_sim(lst, rng=rng)
        assert np.array_equal(res.out, serial_list_scan(lst))

    @pytest.mark.parametrize("n", [10, 100, 1000])
    def test_wyllie(self, n, rng):
        lst = random_list(n, rng, values=rng.integers(-9, 9, n))
        res = wyllie_scan_sim(lst)
        assert np.array_equal(res.out, serial_list_scan(lst))

    def test_serial(self, rng):
        lst = random_list(500, rng, values=rng.integers(-9, 9, 500))
        assert np.array_equal(serial_scan_sim(lst).out, serial_list_scan(lst))

    def test_contraction_sims(self, rng):
        lst = random_list(2000, rng, values=rng.integers(-9, 9, 2000))
        expect = serial_list_scan(lst)
        assert np.array_equal(random_mate_scan_sim(lst, rng=rng).out, expect)
        assert np.array_equal(anderson_miller_scan_sim(lst, rng=rng).out, expect)

    @pytest.mark.parametrize("p", [1, 2, 4, 8])
    def test_multiprocessor_results_identical(self, p, rng):
        lst = random_list(30_000, rng, values=rng.integers(-9, 9, 30_000))
        res = sublist_scan_sim(lst, n_processors=p, rng=3)
        assert np.array_equal(res.out, serial_list_scan(lst))

    def test_sublist_restores_input(self, rng):
        lst = random_list(5000, rng)
        before = lst.next.copy()
        sublist_scan_sim(lst, rng=rng)
        assert np.array_equal(lst.next, before)

    def test_operators(self, rng):
        lst = random_list(5000, rng, values=rng.integers(0, 1 << 20, 5000))
        assert np.array_equal(
            sublist_scan_sim(lst, XOR, rng=rng).out, serial_list_scan(lst, XOR)
        )
        assert np.array_equal(
            sublist_scan_sim(lst, MAX, rng=rng).out, serial_list_scan(lst, MAX)
        )

    def test_wyllie_rejects_non_invertible(self, rng):
        lst = random_list(100, rng)
        with pytest.raises(ValueError, match="invertible"):
            wyllie_scan_sim(lst, MAX)

    def test_rank_sims(self, rng):
        lst = random_list(3000, rng)
        for sim in (serial_rank_sim, wyllie_rank_sim, sublist_rank_sim):
            out = sim(lst).out
            assert sorted(out) == list(range(3000)), sim.__name__
            assert out[lst.head] == 0


class TestCycleSanity:
    def test_serial_matches_paper_rate(self, rng):
        n = 10_000
        res = serial_scan_sim(random_list(n, rng))
        assert res.cycles_per_element == pytest.approx(34.0, rel=0.02)
        # ≈143 ns/element on the 4.2 ns clock (Figure 1's serial line)
        assert res.ns_per_element == pytest.approx(143, rel=0.05)

    def test_breakdown_sums_to_total(self, rng):
        res = sublist_scan_sim(random_list(20_000, rng), rng=rng)
        assert sum(res.breakdown.values()) == pytest.approx(res.cycles)

    def test_sublist_approaches_paper_asymptote(self, rng):
        """Figure 14: the per-element cost falls toward ≈8.6 clocks."""
        res = sublist_scan_sim(random_list(2_000_000, rng), rng=rng)
        assert 8.0 < res.cycles_per_element < 12.0

    def test_sublist_beats_serial_at_large_n(self, rng):
        n = 500_000
        lst = random_list(n, rng)
        ours = sublist_scan_sim(lst, rng=rng)
        ser = serial_scan_sim(lst)
        # paper: >4× over serial on one processor
        assert ser.cycles / ours.cycles > 2.5

    def test_wyllie_sawtooth(self, rng):
        """Per-element cycles jump when n crosses a power of two."""
        below = wyllie_rank_sim(random_list((1 << 14) + 1, rng))
        above = wyllie_rank_sim(random_list((1 << 15) + 2, rng))
        # one more round: per-element cost increases despite larger n
        assert above.cycles_per_element > below.cycles_per_element

    def test_wyllie_work_inefficient(self, rng):
        """Wyllie's clocks/element grows with log n (Figure 1's rise)."""
        small = wyllie_rank_sim(random_list(1 << 12, rng))
        large = wyllie_rank_sim(random_list(1 << 18, rng))
        assert large.cycles_per_element > small.cycles_per_element * 1.3

    @pytest.mark.parametrize("p", [2, 4, 8])
    def test_multiprocessor_speedup_in_range(self, p, rng):
        n = 1_000_000
        lst = random_list(n, rng)
        t1 = sublist_scan_sim(lst, n_processors=1, rng=5).cycles
        tp = sublist_scan_sim(lst, n_processors=p, rng=5).cycles
        speedup = t1 / tp
        assert 0.5 * p < speedup <= p * 1.02, f"p={p}: speedup={speedup:.2f}"

    def test_per_cpu_cycles_reported(self, rng):
        res = sublist_scan_sim(random_list(100_000, rng), n_processors=4, rng=rng)
        assert len(res.per_cpu_cycles) == 4
        assert all(c > 0 for c in res.per_cpu_cycles)

    def test_bank_conflicts_on_regular_splitters(self, rng):
        """The paper's systematic-conflict scenario: equally spaced
        splitters on an *ordered* list make every sublist's cursor sit
        exactly ``n/m`` apart, so when ``n/m`` is a multiple of the
        bank count the whole gather strip hits one bank.  Random list
        layouts avoid this ("systematic memory bank conflicts are
        unlikely")."""
        from repro.lists.generate import ordered_list

        n = CRAY_C90.n_banks * 512  # n/m == n_banks below
        m = 512
        cfg = SimSublistConfig(m=m, s1=64.0, conflict_sample_every=1)
        bad = sublist_scan_sim(ordered_list(n), sim_config=cfg, rng=0)
        good = sublist_scan_sim(random_list(n, rng), sim_config=cfg, rng=0)
        assert bad.cycles > 1.5 * good.cycles

    def test_conflicts_can_be_disabled(self, rng):
        from repro.lists.generate import ordered_list

        n = CRAY_C90.n_banks * 256
        cfg_on = SimSublistConfig(m=256, s1=64.0, conflict_sample_every=1)
        cfg_off = SimSublistConfig(
            m=256, s1=64.0, conflict_sample_every=1, bank_conflicts=False
        )
        with_c = sublist_scan_sim(ordered_list(n), sim_config=cfg_on, rng=0)
        without = sublist_scan_sim(ordered_list(n), sim_config=cfg_off, rng=0)
        assert with_c.cycles > 1.2 * without.cycles

    def test_ymp_slower_than_c90(self, rng):
        lst = random_list(200_000, rng)
        c90 = sublist_scan_sim(lst, config=CRAY_C90, rng=7)
        ymp = sublist_scan_sim(lst, config=CRAY_YMP, rng=7)
        assert ymp.time_ns > c90.time_ns

    def test_contraction_sims_slower_than_sublist(self, rng):
        """Figure 1's ordering: ours ≪ serial < Anderson/Miller <
        Miller/Reif at large n."""
        n = 200_000
        lst = random_list(n, rng)
        ours = sublist_scan_sim(lst, rng=1).cycles
        ser = 34.0 * n
        rm = random_mate_scan_sim(lst, rng=1).cycles
        am = anderson_miller_scan_sim(lst, rng=1).cycles
        assert rm > 4 * ours
        assert am > 2 * ours
        assert am > ser
        assert rm > am

    def test_processor_limit_enforced(self, rng):
        lst = random_list(1000, rng)
        with pytest.raises(ValueError):
            sublist_scan_sim(lst, n_processors=17)
        with pytest.raises(ValueError):
            wyllie_scan_sim(lst, n_processors=99)


class TestSimConfig:
    def test_explicit_m_s1(self, rng):
        lst = random_list(50_000, rng)
        cfg = SimSublistConfig(m=500, s1=20.0)
        res = sublist_scan_sim(lst, sim_config=cfg, rng=rng)
        assert np.array_equal(res.out, serial_list_scan(lst))

    def test_recursive_phase2(self, rng):
        lst = random_list(60_000, rng, values=rng.integers(-9, 9, 60_000))
        cfg = SimSublistConfig(m=8000, s1=2.0, wyllie_cutoff=1000, serial_cutoff=64)
        res = sublist_scan_sim(lst, sim_config=cfg, rng=rng)
        assert np.array_equal(res.out, serial_list_scan(lst))
        assert "phase2_recursive" in res.breakdown

    def test_inclusive(self, rng):
        lst = random_list(10_000, rng, values=rng.integers(-9, 9, 10_000))
        res = sublist_scan_sim(lst, inclusive=True, rng=rng)
        assert np.array_equal(res.out, serial_list_scan(lst, inclusive=True))

    def test_stats_to_cycles_total(self):
        from repro.core.stats import ScanStats

        st = ScanStats()
        st.add_work(100, "contract")
        st.add_gather(50)
        breakdown = stats_to_cycles(st, CRAY_C90)
        parts = {k: v for k, v in breakdown.items() if k != "total"}
        assert breakdown["total"] == pytest.approx(sum(parts.values()))


class TestChooseSplitters:
    def test_spaced_count(self, rng):
        pos = choose_splitters(1000, 11, tail=999, strategy="spaced", rng=rng)
        assert pos.size == 10

    def test_spaced_excludes_tail(self, rng):
        # tail right on a spaced position
        pos = choose_splitters(1000, 11, tail=100, strategy="spaced", rng=rng)
        assert 100 not in pos

    def test_random_distinct(self, rng):
        pos = choose_splitters(100, 50, tail=7, strategy="random", rng=rng)
        assert len(np.unique(pos)) == pos.size == 49
        assert 7 not in pos

    def test_random_covers_full_range(self, rng):
        pos = choose_splitters(10, 10, tail=3, strategy="random", rng=rng)
        assert set(pos) == set(range(10)) - {3}

    def test_competition_drops_duplicates(self, rng):
        pos = choose_splitters(
            50, 40, tail=0, strategy="random_competition", rng=rng
        )
        assert len(np.unique(pos)) == pos.size
        assert 0 not in pos
        assert pos.size <= 39

    @pytest.mark.parametrize("strategy", ["spaced", "random", "random_competition"])
    def test_too_many_sublists_clamps(self, rng, strategy):
        # m > n: clamp to the n - 1 available non-tail positions instead
        # of raising / returning empty sublists
        pos = choose_splitters(5, 10, tail=0, strategy=strategy, rng=rng)
        assert 1 <= pos.size <= 4
        assert len(np.unique(pos)) == pos.size
        assert 0 not in pos
        assert np.all((pos > 0) & (pos < 5))

    @pytest.mark.parametrize("strategy", ["spaced", "random", "random_competition"])
    def test_single_node_list_no_splitters(self, rng, strategy):
        pos = choose_splitters(1, 8, tail=0, strategy=strategy, rng=rng)
        assert pos.size == 0

    @pytest.mark.parametrize("strategy", ["spaced", "random", "random_competition"])
    def test_two_node_list_single_splitter(self, rng, strategy):
        pos = choose_splitters(2, 16, tail=1, strategy=strategy, rng=rng)
        assert pos.tolist() == [0]

    def test_zero_splits(self, rng):
        pos = choose_splitters(10, 1, tail=0, strategy="spaced", rng=rng)
        assert pos.size == 0
