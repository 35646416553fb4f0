"""Unit tests for the structural fingerprint and the LRU result cache."""

import hashlib
import threading

import numpy as np
import pytest

from repro.core.operators import MAX, SUM
from repro.engine import Engine
from repro.engine.cache import DEFAULT_CACHE_MAX_BYTES, ResultCache, fingerprint
from repro.lists.generate import LinkedList, ordered_list, random_list, random_values

from .conftest import make_affine_values


def make_list(n=32, seed=0):
    rng = np.random.default_rng(seed)
    return random_list(n, rng, values=random_values(n, rng))


class TestFingerprint:
    def test_deterministic(self):
        lst = make_list()
        assert fingerprint(lst, SUM) == fingerprint(lst.copy(), "sum")

    def test_sensitive_to_operator(self):
        lst = make_list()
        assert fingerprint(lst, SUM) != fingerprint(lst, MAX)

    def test_sensitive_to_inclusive_flag(self):
        lst = make_list()
        assert fingerprint(lst, SUM, False) != fingerprint(lst, SUM, True)

    def test_sensitive_to_values(self):
        lst = make_list()
        other = lst.copy()
        other.values = other.values + 1
        assert fingerprint(lst, SUM) != fingerprint(other, SUM)

    def test_sensitive_to_structure(self):
        a = make_list(seed=1)
        b = make_list(seed=2)
        assert fingerprint(a, SUM) != fingerprint(b, SUM)

    def test_sensitive_to_head(self):
        # same arrays, different head: n=1 self-loop degenerate aside,
        # build two lists sharing next/values but reporting different heads
        lst = make_list(8, seed=3)
        order_head = int(lst.head)
        other_head = int(lst.next[order_head])
        a = LinkedList(lst.next.copy(), order_head, lst.values.copy())
        b = LinkedList(lst.next.copy(), other_head, lst.values.copy())
        assert fingerprint(a, SUM) != fingerprint(b, SUM)

    def test_sensitive_to_dtype(self):
        lst = make_list()
        other = lst.copy()
        other.values = other.values.astype(np.int32)
        assert fingerprint(lst, SUM) != fingerprint(other, SUM)


def layout_digest(lst, op_name, inclusive=False):
    """The documented key layout, computed by hand with hashlib."""
    nxt, values = lst.next, lst.values
    header = (
        b"repro-scan-v2|"
        + op_name.encode()
        + (b"|i" if inclusive else b"|x")
        + f"|{lst.head}|{nxt.dtype.str}|{nxt.shape}"
        f"|{values.dtype.str}|{values.shape}|".encode()
    )
    body = np.ascontiguousarray(nxt).tobytes() + np.ascontiguousarray(values).tobytes()
    return hashlib.sha256(header + body).digest()[:16]


#: a list whose next + values hold 1 MiB of int64 bytes
LARGE_N = 1 << 16


class TestFingerprintLayout:
    @pytest.mark.parametrize("n", [1, 100, LARGE_N])
    @pytest.mark.parametrize("inclusive", [False, True])
    def test_matches_documented_layout(self, n, inclusive):
        lst = make_list(n, seed=n)
        assert fingerprint(lst, SUM, inclusive) == layout_digest(lst, "sum", inclusive)

    @pytest.mark.parametrize("n", [64, LARGE_N])
    def test_next_bytes_alone_change_the_key(self, n):
        lst = make_list(n, seed=5)
        other = LinkedList(random_list(n, 6).next, lst.head, lst.values.copy())
        assert fingerprint(lst, SUM) != fingerprint(other, SUM)

    @pytest.mark.parametrize("n", [64, LARGE_N])
    def test_values_bytes_alone_change_the_key(self, n):
        lst = make_list(n, seed=7)
        other = lst.copy()
        other.values[n // 2] += 1
        assert fingerprint(lst, SUM) != fingerprint(other, SUM)

    def test_dtype_alone_changes_the_key(self):
        lst = make_list(64, seed=8)
        lst.values = np.abs(lst.values)
        other = lst.copy()
        other.values = lst.values.view(np.uint64)
        assert other.values.tobytes() == lst.values.tobytes()
        assert fingerprint(lst, SUM) != fingerprint(other, SUM)

    def test_shape_alone_changes_the_key(self):
        # an AFFINE (n, 2) array and the same bytes as a (2n,) array
        n = 32
        base = random_list(n, 9)
        lst = LinkedList(base.next, base.head, make_affine_values(np.random.default_rng(9), n))
        flat = lst.copy()
        flat.values = lst.values.reshape(-1)
        assert flat.values.tobytes() == lst.values.tobytes()
        assert fingerprint(lst, "affine") != fingerprint(flat, "affine")

    @pytest.mark.parametrize("n", [64, LARGE_N])
    def test_read_only_buffers(self, n):
        lst = make_list(n, seed=10)
        ro = LinkedList(
            np.frombuffer(lst.next.tobytes(), dtype=np.int64),
            lst.head,
            np.frombuffer(lst.values.tobytes(), dtype=lst.values.dtype),
        )
        assert not ro.next.flags.writeable and not ro.values.flags.writeable
        assert fingerprint(ro, SUM) == fingerprint(lst, SUM) == layout_digest(lst, "sum")

    @pytest.mark.parametrize("n", [64, LARGE_N])
    def test_memmap_arrays(self, n, tmp_path):
        lst = make_list(n, seed=11)
        arrays = {}
        for name in ("next", "values"):
            src = getattr(lst, name)
            mm = np.memmap(tmp_path / name, dtype=src.dtype, mode="w+", shape=src.shape)
            mm[:] = src
            mm.flush()
            del mm
            arrays[name] = np.memmap(tmp_path / name, dtype=src.dtype, mode="r", shape=src.shape)
        mapped = LinkedList(arrays["next"], lst.head, arrays["values"])
        assert fingerprint(mapped, SUM) == fingerprint(lst, SUM)
        del mapped, arrays

    def test_object_dtype_rejected(self):
        lst = make_list(8)
        lst.values = np.array([object()] * 8, dtype=object)
        with pytest.raises(TypeError, match="object-dtype"):
            fingerprint(lst, SUM)

    def test_concurrent_callers_match_serial(self):
        # four threads hash large lists at once and get the digests of
        # serial calls
        lists = [make_list(2 * LARGE_N, seed=20 + k) for k in range(8)]
        serial = [fingerprint(lst, SUM) for lst in lists]
        got = [[None] * len(lists) for _ in range(4)]
        start = threading.Barrier(4)

        def worker(slot):
            start.wait()
            for i in range(len(lists)):
                k = (i + 2 * slot) % len(lists)
                got[slot][k] = fingerprint(lists[k], SUM)

        threads = [threading.Thread(target=worker, args=(s,)) for s in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert all(row == serial for row in got)


class TestEngineDefaultCache:
    def test_default_byte_limit(self):
        with Engine(executor="sync") as engine:
            assert engine.cache.max_bytes == DEFAULT_CACHE_MAX_BYTES
        with Engine(executor="sync", cache_max_bytes=None) as engine:
            assert engine.cache.max_bytes is None

    def test_fresh_large_scans_stay_within_the_limit(self):
        n = 1 << 20
        nxt = ordered_list(n).next
        with Engine(executor="sync") as engine:
            for k in range(40):
                engine.scan(LinkedList(nxt, 0, np.full(n, k, dtype=np.int64)), SUM)
                assert engine.cache.stored_bytes <= DEFAULT_CACHE_MAX_BYTES
            assert engine.cache.stats()["evictions"] > 0


class TestResultCache:
    def test_miss_then_hit(self):
        cache = ResultCache(capacity=4)
        key = b"k" * 16
        assert cache.get(key) is None
        cache.put(key, np.arange(5))
        got = cache.get(key)
        np.testing.assert_array_equal(got, np.arange(5))
        assert cache.stats()["hits"] == 1
        assert cache.stats()["misses"] == 1

    def test_returned_copy_is_isolated(self):
        cache = ResultCache()
        cache.put(b"a", np.arange(4))
        got = cache.get(b"a")
        got[:] = -1
        np.testing.assert_array_equal(cache.get(b"a"), np.arange(4))

    def test_stored_copy_is_isolated(self):
        cache = ResultCache()
        arr = np.arange(4)
        cache.put(b"a", arr)
        arr[:] = -1
        np.testing.assert_array_equal(cache.get(b"a"), np.arange(4))

    def test_lru_eviction_order(self):
        cache = ResultCache(capacity=2)
        cache.put(b"a", np.zeros(1))
        cache.put(b"b", np.ones(1))
        cache.get(b"a")  # refresh a; b becomes LRU
        cache.put(b"c", np.full(1, 2.0))
        assert cache.get(b"b") is None
        assert cache.get(b"a") is not None
        assert cache.get(b"c") is not None
        assert cache.evictions == 1

    def test_byte_bound_evicts(self):
        cache = ResultCache(capacity=100, max_bytes=8 * 10)
        cache.put(b"a", np.zeros(6))
        cache.put(b"b", np.zeros(6))
        assert len(cache) == 1
        assert cache.stored_bytes <= 80

    def test_single_result_over_byte_bound_not_stored(self):
        cache = ResultCache(capacity=10, max_bytes=8)
        cache.put(b"a", np.zeros(100))
        assert len(cache) == 0

    def test_zero_capacity_disables(self):
        cache = ResultCache(capacity=0)
        cache.put(b"a", np.zeros(3))
        assert cache.get(b"a") is None
        assert len(cache) == 0

    def test_overwrite_updates_bytes(self):
        cache = ResultCache(capacity=4)
        cache.put(b"a", np.zeros(10))
        cache.put(b"a", np.zeros(2))
        assert len(cache) == 1
        assert cache.stored_bytes == 2 * 8

    def test_clear(self):
        cache = ResultCache()
        cache.put(b"a", np.zeros(3))
        cache.clear()
        assert len(cache) == 0
        assert cache.stored_bytes == 0

    def test_clear_resets_counters(self):
        # post-clear hit-rate reporting must start a fresh epoch: stale
        # hit/miss/eviction counters would blend probes against the old
        # contents into the new measurement
        cache = ResultCache(capacity=1)
        cache.put(b"a", np.zeros(3))
        cache.get(b"a")  # hit
        cache.get(b"b")  # miss
        cache.put(b"b", np.zeros(3))  # evicts a
        before = cache.stats()
        assert (before["hits"], before["misses"], before["evictions"]) == (1, 1, 1)
        cache.clear()
        after = cache.stats()
        assert after == {
            "hits": 0, "misses": 0, "evictions": 0, "entries": 0, "bytes": 0,
        }
        # and the fresh epoch counts from zero
        cache.get(b"a")
        assert cache.stats()["misses"] == 1

    def test_invalid_params_rejected(self):
        with pytest.raises(ValueError):
            ResultCache(capacity=-1)
        with pytest.raises(ValueError):
            ResultCache(max_bytes=-1)
