"""Shared pieces of the benchmark: inputs, oracle, statistics, host stamp.

Everything here is independent of the scan paths under ``src/``: the
generator keeps each list's node order, so the oracle is a plain
cumulative combine in that order, computed with NumPy ufuncs.
"""

from __future__ import annotations

import os
import resource
import statistics
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: scratch space for memmaps, the forkserver socket and child temp files;
#: created per run inside the checkout and removed when the run ends
TMP_PARENT = ROOT / ".perfbench_tmp"

#: identity of the exclusive scan at each list's head, per operator
INT64_MIN = np.iinfo(np.int64).min
OPS = {"sum": (np.add, 0), "max": (np.maximum, INT64_MIN)}


class BenchError(RuntimeError):
    """The benchmark cannot run (missing program, dead server, leak)."""


def bootstrap() -> None:
    """Make ``src/`` importable here and in every child process."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(f"program sources not found under {SRC}")
    src = str(SRC)
    if src not in sys.path:
        sys.path.insert(0, src)
    parts = [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    if src not in parts:
        os.environ["PYTHONPATH"] = os.pathsep.join([src, *parts])


# ----------------------------------------------------------------------
# inputs
# ----------------------------------------------------------------------


@dataclass
class Problem:
    """One scan problem plus the node order the oracle walks."""

    nxt: np.ndarray
    head: int
    values: np.ndarray
    order: np.ndarray
    op: str

    @property
    def n(self) -> int:
        return int(self.nxt.shape[0])


def make_problem(rng: np.random.Generator, n: int, op: str = "sum") -> Problem:
    """A random list of ``n`` nodes: random node order, int64 values."""
    order = rng.permutation(n).astype(np.int64)
    nxt = np.empty(n, dtype=np.int64)
    nxt[order[:-1]] = order[1:]
    nxt[order[-1]] = order[-1]
    values = rng.integers(-(1 << 20), 1 << 20, size=n, dtype=np.int64)
    return Problem(nxt=nxt, head=int(order[0]), values=values, order=order, op=op)


def log_uniform_sizes(rng: np.random.Generator, count: int, lo: int, hi: int) -> np.ndarray:
    """``count`` sizes at evenly spaced quantiles of the log-uniform law on
    ``[lo, hi]``, in seeded order: every batch has the same size mix."""
    q = (np.arange(count) + 0.5) / count
    sizes = np.exp(np.log(lo) + q * (np.log(hi + 1) - np.log(lo))).astype(np.int64)
    return rng.permutation(sizes)


# ----------------------------------------------------------------------
# oracle
# ----------------------------------------------------------------------


def expected(problem: Problem) -> np.ndarray:
    """Exclusive scan of ``problem`` by walking its node order."""
    ufunc, identity = OPS[problem.op]
    in_order = problem.values[problem.order]
    out = np.empty_like(problem.values)
    prefix = np.empty_like(in_order)
    prefix[0] = identity
    if problem.n > 1:
        ufunc.accumulate(in_order[:-1], out=prefix[1:])
    out[problem.order] = prefix
    return out


def matches(problem: Problem, result: object, want: np.ndarray | None = None) -> bool:
    """``True`` iff ``result`` is exactly the oracle's answer (``want``,
    when the caller already computed it)."""
    arr = np.asarray(result)
    if arr.shape != problem.values.shape:
        return False
    return bool(np.array_equal(arr, expected(problem) if want is None else want))


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------


def percentile(samples: list[float], q: float) -> float:
    """Linear-interpolated percentile (``q`` in [0, 100])."""
    if not samples:
        raise BenchError("no samples to summarise")
    return float(np.percentile(np.asarray(samples, dtype=np.float64), q))


def median(samples: list[float]) -> float:
    return float(statistics.median(samples))


def fit_linear(ns: list[float], seconds: list[float]) -> tuple[float, float]:
    """Least-squares ``T = a·n + b``; returns ``a`` in ns/elem, ``b`` in µs.

    Residuals are weighted by ``1/T`` (relative error), so the small
    sizes that fix ``b`` count as much as the large ones that fix ``a``.
    """
    if len(set(ns)) < 2:
        raise BenchError("a T = a·n + b fit needs at least two distinct sizes")
    t = np.asarray(seconds, np.float64)
    a, b = np.polyfit(np.asarray(ns, dtype=np.float64), t, 1, w=1.0 / t)
    return float(a * 1e9), float(b * 1e6)


def peak_rss_mb() -> float:
    """Peak RSS of this process plus its largest waited-for descendant."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0  # ru_maxrss is in KiB on Linux


# ----------------------------------------------------------------------
# provenance
# ----------------------------------------------------------------------


def host_stamp(seed: int, workload: str) -> dict[str, object]:
    """Host fingerprint, CPU count, kernel backends and seed of a run.

    Only the resolved backend is measured; every other registered
    backend is recorded as ``unmeasured`` (never estimated).
    """
    from repro.calibrate.profile import host_fingerprint
    from repro.kernels.backend import available_backends, resolve_backend

    resolved = resolve_backend(None).name
    backends = {name: ("measured" if name == resolved else "unmeasured")
                for name in ("numpy", "python", "numba")}
    return {
        "workload": workload,
        "seed": seed,
        "host": host_fingerprint(),
        "nproc": os.cpu_count() or 1,
        "kernel_backend": resolved,
        "kernel_backends": backends,
        "available_backends": list(available_backends()),
    }
