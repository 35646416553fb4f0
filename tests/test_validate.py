"""Unit tests for the structural validators."""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.lists import validate as validate_mod
from repro.lists.generate import INDEX_DTYPE, LinkedList, ordered_list, random_list
from repro.lists.validate import (
    ListStructureError,
    is_valid_list,
    validate_list,
    validate_list_strict,
)


def raw_list(nxt, head, n=None):
    """Build a LinkedList bypassing constructor checks where needed."""
    nxt = np.asarray(nxt, dtype=INDEX_DTYPE)
    lst = LinkedList.__new__(LinkedList)
    lst.next = nxt
    lst.head = head
    lst.values = np.ones(nxt.shape[0], dtype=np.int64)
    return lst


class TestValidateList:
    @pytest.mark.parametrize("n", [1, 2, 5, 100])
    def test_accepts_valid(self, n, rng):
        validate_list(random_list(n, rng))

    def test_rejects_out_of_range(self):
        with pytest.raises(ListStructureError, match="out of range"):
            validate_list(raw_list([1, 5], 0))

    def test_rejects_negative_index(self):
        with pytest.raises(ListStructureError, match="out of range"):
            validate_list(raw_list([-1, 1], 0))

    def test_rejects_no_self_loop(self):
        # pure cycle, no tail
        with pytest.raises(ListStructureError, match="self-loop"):
            validate_list(raw_list([1, 2, 0], 0))

    def test_rejects_two_self_loops(self):
        with pytest.raises(ListStructureError, match="self-loop"):
            validate_list(raw_list([0, 1], 0))

    def test_rejects_head_with_predecessor(self):
        # 0 -> 1 -> 1 but head claimed to be 1
        with pytest.raises(ListStructureError, match="head"):
            validate_list(raw_list([1, 1], 1))

    def test_rejects_converging_links(self):
        # two nodes point at the same successor
        with pytest.raises(ListStructureError, match="in-degree"):
            validate_list(raw_list([2, 2, 3, 3], 0))

    def test_rejects_wrong_dtype(self):
        lst = raw_list([1, 1], 0)
        lst.next = lst.next.astype(np.int32)
        with pytest.raises(ListStructureError, match="dtype"):
            validate_list(lst)

    def test_rejects_2d_next(self):
        lst = raw_list([1, 1], 0)
        lst.next = lst.next.reshape(1, 2)
        with pytest.raises(ListStructureError, match="one-dimensional"):
            validate_list(lst)

    def test_singleton_head_must_be_tail(self):
        validate_list(raw_list([0], 0))

    def test_multi_node_head_equals_tail_rejected(self):
        with pytest.raises(ListStructureError, match="tail of a multi-node"):
            validate_list(raw_list([1, 1], 1))


class TestValidateStrict:
    @pytest.mark.parametrize("n", [1, 2, 3, 64, 1000])
    def test_accepts_valid(self, n, rng):
        validate_list_strict(random_list(n, rng))

    def test_rejects_disjoint_cycle(self):
        # chain 0→1→1 plus cycle 2→3→2: every in-degree is right, only
        # reachability catches it
        lst = raw_list([1, 1, 3, 2], 0)
        validate_list(lst)  # local checks pass — by design
        with pytest.raises(ListStructureError, match="cycle"):
            validate_list_strict(lst)

    def test_rejects_large_disjoint_cycle(self, rng):
        base = random_list(100, rng)
        nxt = np.concatenate([base.next, [101, 102, 100]]).astype(INDEX_DTYPE)
        lst = raw_list(nxt, base.head)
        with pytest.raises(ListStructureError):
            validate_list_strict(lst)


class TestIsValid:
    def test_true_for_valid(self, rng):
        assert is_valid_list(random_list(10, rng))

    def test_false_for_invalid(self):
        assert not is_valid_list(raw_list([1, 2, 0], 0))

    def test_non_strict_mode_misses_disjoint_cycle(self):
        lst = raw_list([1, 1, 3, 2], 0)
        assert is_valid_list(lst, strict=False)
        assert not is_valid_list(lst, strict=True)

    def test_ordered_always_valid(self):
        assert is_valid_list(ordered_list(50))


class TestCorruptionGuards:
    """The traversal loops refuse to spin forever on cyclic input."""

    @staticmethod
    def _cycle_with_decoy_tail(n):
        """A big cycle plus one disjoint self-loop: local checks can
        pass, but traversal never terminates."""
        nxt = np.roll(np.arange(n - 1), -1)
        nxt = np.concatenate([nxt, [n - 1]])
        return nxt

    def test_pure_cycle_rejected_immediately(self):
        from repro.core.sublist import SublistConfig, sublist_list_scan

        n = 2000
        lst = raw_list(np.roll(np.arange(n), -1), 0)  # no self-loop at all
        with pytest.raises(ListStructureError, match="self-loop"):
            sublist_list_scan(lst, config=SublistConfig(m=16, s1=4.0), rng=0)

    def test_sublist_scan_raises_on_cycle(self):
        from repro.core.sublist import SublistConfig, sublist_list_scan

        n = 2000
        lst = raw_list(self._cycle_with_decoy_tail(n), 0)
        with pytest.raises(ListStructureError, match="cycle"):
            sublist_list_scan(lst, config=SublistConfig(m=16, s1=4.0), rng=0)

    def test_sublist_scan_restores_after_cycle_error(self):
        from repro.core.sublist import SublistConfig, sublist_list_scan

        n = 2000
        nxt = self._cycle_with_decoy_tail(n)
        lst = raw_list(nxt.copy(), 0)
        with pytest.raises(ListStructureError):
            sublist_list_scan(lst, config=SublistConfig(m=16, s1=4.0), rng=0)
        assert np.array_equal(lst.next, nxt)

    def test_serial_segment_raises_on_cycle(self):
        from repro.baselines.serial import serial_scan_segment
        from repro.core.operators import SUM

        n = 100
        nxt = np.roll(np.arange(n), -1)
        with pytest.raises(ValueError, match="corrupted"):
            serial_scan_segment(nxt, np.ones(n, dtype=np.int64), 0, SUM, 0)

    def test_forest_serial_raises_on_cycle(self):
        from repro.core.forest import serial_forest_scan
        from repro.core.operators import SUM

        n = 50
        nxt = np.roll(np.arange(n), -1).astype(INDEX_DTYPE)
        out = np.empty(n, dtype=np.int64)
        with pytest.raises(ValueError, match="terminate"):
            serial_forest_scan(
                nxt, np.ones(n, dtype=np.int64), np.array([0]), SUM, None, out
            )


# ----------------------------------------------------------------------
# the one-pass acceptance check against the step-by-step checks
# ----------------------------------------------------------------------

CORRUPTIONS = (
    "none",
    "out-of-range",
    "negative",
    "huge",
    "second-self-loop",
    "two-predecessors",
    "head-predecessor",
    "head-is-tail",
    "disjoint-cycle",
    "random-edit",
)


def list_order(nxt, head):
    order = [head]
    while nxt[order[-1]] != order[-1]:
        order.append(int(nxt[order[-1]]))
    return order


@st.composite
def corrupted_lists(draw):
    """A valid random list, or the same list after one corruption."""
    kind = draw(st.sampled_from(CORRUPTIONS))
    n = draw(st.integers(4 if kind == "disjoint-cycle" else 1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    lst = random_list(n, rng)
    nxt, head = lst.next.copy(), lst.head
    i = int(rng.integers(n))
    if kind == "out-of-range":
        nxt[i] = n + int(rng.integers(3))
    elif kind == "negative":
        nxt[i] = -1 - int(rng.integers(3))
    elif kind == "huge":
        nxt[i] = 2**40
    elif kind == "second-self-loop":
        nxt[i] = i
    elif kind == "two-predecessors":
        nxt[i] = nxt[int(rng.integers(n))]
    elif kind == "head-predecessor":
        nxt[i] = head
    elif kind == "head-is-tail":
        head = lst.tail
    elif kind == "disjoint-cycle":
        # a chain of k >= 2 nodes, then the other n - k >= 2 in a cycle
        order = list_order(nxt, head)
        k = int(rng.integers(2, n - 1))
        nxt[order[k - 1]] = order[k - 1]
        cycle = order[k:]
        nxt[cycle] = np.roll(cycle, -1)
    elif kind == "random-edit":
        nxt[i] = int(rng.integers(-2, n + 2))
    return raw_list(nxt, head), kind


def outcome(check, lst):
    """``None`` if ``check`` accepts ``lst``, else what it raised."""
    try:
        check(lst)
    except Exception as exc:
        return type(exc).__name__, str(exc)
    return None


def step_by_step_only():
    """Run the validators with the one-pass acceptance check disabled,
    i.e. as the step-by-step checks alone."""
    return mock.patch.object(validate_mod, "_is_single_chain", lambda nxt, head: False)


class TestOnePassAcceptance:
    @settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(corrupted_lists())
    def test_same_verdict_and_message_as_step_by_step(self, case):
        lst, kind = case
        with step_by_step_only():
            expected = outcome(validate_list, lst)
            expected_strict = outcome(validate_list_strict, lst)
        assert outcome(validate_list, lst) == expected
        assert outcome(validate_list_strict, lst) == expected_strict
        if lst.n > 1:
            # the fast path accepts exactly the lists the checks accept
            assert validate_mod._is_single_chain(lst.next, lst.head) == (expected is None)
        if kind == "none":
            assert expected is None
        if kind == "disjoint-cycle":
            assert expected is None and expected_strict is not None

    @pytest.mark.parametrize("n", [2, 3, 1000])
    def test_fast_path_takes_valid_lists(self, n, rng):
        lst = random_list(n, rng)
        assert validate_mod._is_single_chain(lst.next, lst.head)

    def test_singleton(self):
        validate_list(raw_list([0], 0))
        with pytest.raises(ListStructureError, match="singleton list must have head == tail"):
            validate_list(raw_list([0], 1))

    @pytest.mark.parametrize("bad", [2**40, 2**25])
    def test_huge_index_raises_without_large_allocation(self, bad):
        n = 1000
        nxt = ordered_list(n).next.copy()
        nxt[7] = bad
        lst = raw_list(nxt, 0)
        tracemalloc.start()
        try:
            with pytest.raises(
                ListStructureError, match=rf"^next\[7\] = {bad} out of range \[0, {n}\)$"
            ):
                validate_list(lst)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # counting in-degrees over [0, bad] would allocate 8 * bad bytes
        assert peak < 1 << 20
