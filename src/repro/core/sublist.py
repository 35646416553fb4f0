"""The paper's list-scan algorithm (Sections 2.4 and 3) on one list.

A list is a forest with one head: :func:`sublist_list_scan` runs the
sublist scan core, :func:`repro.core.forest.forest_list_scan`, with
``heads=[lst.head]``.  The phases (initialize, Phase 1 traverse and
pack, find the sublist list, Phases 2 and 3, restore) are described
there.  The cycle-accounted Cray C-90 version lives in
``simulate.sublist_sim``.
"""

from __future__ import annotations

from typing import cast

import numpy as np

from ..kernels.backend import KernelBackend
from ..lists.generate import LinkedList
from ..trace.tracer import Tracer
from .forest import SublistConfig, forest_list_scan
from .operators import Operator, SUM
from .stats import ScanStats

__all__ = [
    "SublistConfig",
    "sublist_list_scan",
    "sublist_list_rank",
]


def sublist_list_scan(
    lst: LinkedList,
    op: Operator | str = SUM,
    inclusive: bool = False,
    config: SublistConfig | None = None,
    rng: np.random.Generator | int | None = None,
    stats: ScanStats | None = None,
    out: np.ndarray | None = None,
    trace: str | Tracer | None = None,
    kernel_backend: str | KernelBackend | None = None,
) -> np.ndarray:
    """List scan with the paper's sublist algorithm.

    The input list's ``next`` and ``values`` arrays are modified in
    place during the computation (self-loops and identity values at the
    splitters) and restored before returning, exactly as in the paper;
    on any exception the arrays are restored as well.

    ``trace`` attaches a :class:`repro.trace.Tracer` (or ``"off"`` for
    the instrumented-but-disabled path): the run records a
    ``sublist_scan`` span with per-phase children and one ``pack``
    event per pack carrying the live-sublist count before/after.

    ``kernel_backend`` selects how the hot loops run (``"numpy"`` /
    ``"python"`` / ``"numba"`` / a :class:`repro.kernels.KernelBackend`
    instance / ``None`` for env-var-then-auto selection; see
    ``docs/kernels.md``).

    Returns the exclusive (default) or inclusive scan indexed by node.
    """
    if stats is not None:
        stats.alloc(lst.n)  # the output vector
    return cast(np.ndarray, forest_list_scan(
        lst.next, lst.values, np.asarray([lst.head]), op, inclusive=inclusive,
        config=config, rng=rng, stats=stats, out=out, trace=trace,
        kernel_backend=kernel_backend,
    ))


def sublist_list_rank(
    lst: LinkedList,
    config: SublistConfig | None = None,
    rng: np.random.Generator | int | None = None,
    stats: ScanStats | None = None,
) -> np.ndarray:
    """List ranking: the sublist scan of all-ones values under ``+``."""
    ones = LinkedList(lst.next, lst.head, np.ones(lst.n, dtype=np.int64))
    return sublist_list_scan(ones, SUM, config=config, rng=rng, stats=stats)
