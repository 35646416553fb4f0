"""The sublist scan core: the paper's algorithm over a forest of lists.

A *forest* is a set of disjoint linked lists sharing one node array:
each list has its own head and its own self-loop tail.  A single list
is a forest with one head, so :func:`forest_list_scan` is the one host
implementation of the paper's algorithm (Sections 2.4 and 3):
``core.sublist.sublist_list_scan`` is its one-head wrapper, and the
engine, serve and out-of-core paths call it on fused forests.  The
virtual-processor machinery never cared that the sublists came from
one list.

* **Initialize** — splitters are drawn from the whole node set by the
  paper's with-replacement competition (tails excluded); each becomes
  the (self-looped, identity-valued) tail of the sublist that precedes
  it, and its old successor heads the next sublist.  The
  self-loop/identity trick removes every conditional from the hot
  loops: a finished virtual processor just keeps folding the identity
  into its sum.
* **Phase 1** — the virtual processors traverse their sublists in
  lock-step vector steps, accumulating sublist sums; after
  ``s_1, s_2, …`` steps (the pack schedule of ``core.schedule``) the
  completed sublists are packed out.
* **Find sublist list** — the write-index/read-back trick links the
  sublist sums into a *reduced forest*, one chain per original list (a
  sublist whose tail is an original tail reads no index and ends its
  chain).
* **Phase 2** — scan the reduced forest with the blocked kernel,
  serially, with a forest variant of Wyllie, or recursively, by size.
* **Phase 3** — traverse the sublists again, scattering each node's
  exclusive scan (Phase-2 carry ⊕ prefix within the sublist); per-list
  ``carries`` seed the first sublist of each chain.
* **Restore** — put the saved links and values back; the input arrays
  are bit-identical to their initial state afterwards, also on error.

The forest form is also the building block of the paper's Section 6
early-reconnection idea (``repro.core.early_reconnect``): the
straggler suffixes left when the vector gets short are exactly a
forest.  The cycle-accounted Cray C-90 version lives in
``simulate.sublist_sim``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from ..analysis.cost_model import KernelCosts, PAPER_C90_COSTS
from ..core.operators import Operator, SUM, get_operator
from ..kernels.backend import KernelBackend, resolve_backend
from ..core.schedule import ScheduleIterator, optimal_schedule
from ..core.stats import ScanStats
from ..core.tuning import SERIAL_CUTOFF, WYLLIE_CUTOFF, tuned_parameters
from ..lists.generate import INDEX_DTYPE
from ..lists.validate import ListStructureError
from ..trace.tracer import Span, Tracer, null_span, resolve_trace

__all__ = [
    "SublistConfig",
    "draw_splitters",
    "forest_list_scan",
    "serial_forest_scan",
    "wyllie_forest_scan",
    "forest_tails",
    "resolve_parameters",
]


@dataclass(frozen=True)
class SublistConfig:
    """Tuning knobs of the sublist scan.

    Attributes
    ----------
    m:
        Number of sublists; ``None`` uses the model-tuned value
        (Section 4.4), at least two per list.
    s1:
        First pack point; ``None`` uses the model-tuned value.
    serial_cutoff / wyllie_cutoff:
        Inputs of up to ``serial_cutoff`` nodes are scanned serially.
        Phase-2 dispatch: serial scan for reduced lists up to
        ``serial_cutoff`` nodes, Wyllie up to ``wyllie_cutoff``, and a
        recursive invocation beyond ("We determined empirically the
        size m should be when we switch between algorithms").
    costs:
        Kernel cost table used for schedule generation and tuning.
    """

    m: int | None = None
    s1: float | None = None
    serial_cutoff: int = SERIAL_CUTOFF
    wyllie_cutoff: int = WYLLIE_CUTOFF
    costs: KernelCosts = field(default_factory=lambda: PAPER_C90_COSTS)

    def __post_init__(self) -> None:
        if self.serial_cutoff < 1:
            raise ValueError("serial_cutoff must be >= 1")
        if self.wyllie_cutoff < self.serial_cutoff:
            raise ValueError("wyllie_cutoff must be >= serial_cutoff")
        if self.m is not None and self.m < 2:
            raise ValueError("m must be >= 2 when given")
        if self.s1 is not None and self.s1 <= 0:
            raise ValueError("s1 must be positive when given")


def resolve_parameters(n: int, n_lists: int, cfg: SublistConfig) -> tuple[int, float]:
    """``(m, s1)`` for ``n`` nodes in ``n_lists`` lists.

    Unset values come from the Section 4.4 model; ``m`` is clamped to
    ``[n_lists + 1, n // 2]`` so every list can be split at least once
    and no sublist is empty on average.
    """
    if cfg.m is not None and cfg.s1 is not None:
        m, s1 = cfg.m, cfg.s1
    else:
        m_t, s1_t = tuned_parameters(n, cfg.costs)
        m = cfg.m if cfg.m is not None else max(m_t, 2 * n_lists)
        s1 = cfg.s1 if cfg.s1 is not None else s1_t
    return int(min(max(m, n_lists + 1), max(n_lists + 1, n // 2))), float(s1)


def draw_splitters(nxt: np.ndarray, want: int, gen: np.random.Generator) -> np.ndarray:
    """Sorted splitter positions by the paper's competition (Section 2.4).

    ``want`` positions are drawn uniformly *with* replacement; duplicate
    draws drop out (the write-index/read-back competition), and so do
    draws that land on a tail ("it is convenient not to worry about a
    zero length list in Phase 2").  The cost is O(want), independent of
    ``n``.  Random positions keep the expected sublist lengths of
    Section 4 on every list order; equally spaced ones can be defeated
    by a list that visits them consecutively (``docs/algorithm.md``).
    """
    if want <= 0:
        return np.empty(0, dtype=INDEX_DTYPE)
    draw = np.unique(gen.integers(0, nxt.shape[0], size=want, dtype=INDEX_DTYPE))
    return draw[nxt[draw] != draw]


def _tail_map(nxt: np.ndarray) -> np.ndarray:
    """Every node's tail (self-loop), by pointer doubling."""
    ptr = nxt.copy()
    rounds = max(1, int(np.ceil(np.log2(max(nxt.shape[0], 2)))))
    for _ in range(rounds):
        ptr = ptr[ptr]
    return ptr


def forest_tails(nxt: np.ndarray, heads: np.ndarray) -> np.ndarray:
    """Tail (self-loop) of each list in the forest, by pointer doubling."""
    return _tail_map(nxt)[heads]


def _list_ids(nxt: np.ndarray, heads: np.ndarray) -> np.ndarray:
    """Which list (index into ``heads``) each node belongs to.

    Every node maps to its tail; tails map back to the list index.
    Unreachable nodes get −1.
    """
    ptr = _tail_map(nxt)
    tail_to_id = np.full(nxt.shape[0], -1, dtype=INDEX_DTYPE)
    tail_to_id[ptr[heads]] = np.arange(heads.shape[0], dtype=INDEX_DTYPE)
    return tail_to_id[ptr]


def _guard_steps(total: int, gap: int, n: int) -> int:
    """Bound the traversal against corrupted (cyclic) inputs.

    A valid forest finishes every virtual processor within ``n`` steps
    (no sublist is longer than the node array); a structure containing
    a cycle that never reaches a self-loop would otherwise spin forever.
    """
    total += gap
    if total > 4 * n + 64:
        raise ListStructureError(
            "traversal exceeded the maximum possible list length; the "
            "successor array appears to contain a cycle without a "
            "self-loop tail (run validate_list_strict to diagnose)"
        )
    return total


def serial_forest_scan(
    nxt: np.ndarray,
    values: np.ndarray,
    heads: np.ndarray,
    op: Operator,
    carries: np.ndarray | None,
    out: np.ndarray,
) -> None:
    """Scalar reference: exclusive scan of each list, seeded by its carry."""
    op = get_operator(op)
    limit = nxt.shape[0]
    for k in range(heads.shape[0]):
        acc = (
            carries[k]
            if carries is not None
            else op.identity_for(values.dtype)
        )
        cur = int(heads[k])
        for _ in range(limit):
            out[cur] = acc
            acc = op.combine(acc, values[cur])
            succ = int(nxt[cur])
            if succ == cur:
                break
            cur = succ
        else:
            raise ValueError(
                "forest chain did not terminate within the node count"
            )


def wyllie_forest_scan(
    nxt: np.ndarray,
    values: np.ndarray,
    heads: np.ndarray,
    op: Operator,
    carries: np.ndarray | None,
    out: np.ndarray,
    stats: ScanStats | None = None,
) -> None:
    """Pointer jumping over a forest — every chain jumps independently.

    Uses the predecessor (prefix) dataflow so any associative operator
    works: each node's working value converges to the ⊕-sum of its
    chain prefix (heads pinned at the identity), and the per-chain head
    value plus carry are folded in at the end via the converged
    head-pointer map.
    """
    op = get_operator(op)
    n = nxt.shape[0]
    idx = np.arange(n, dtype=INDEX_DTYPE)
    pred = np.empty(n, dtype=INDEX_DTYPE)
    pred[heads] = heads
    proper = nxt != idx
    pred[nxt[proper]] = idx[proper]

    ident = op.identity_for(values.dtype)
    work = values.copy()
    work[heads] = ident
    ptr = pred.copy()
    rounds = max(0, int(np.ceil(np.log2(max(n - 1, 2)))) if n > 2 else 0)
    if stats is not None:
        stats.alloc(3 * n)  # pred + working value + pointer double-buffer
    for _ in range(rounds):
        work = op.combine(work[ptr], work)
        ptr = ptr[ptr]
        if stats is not None:
            stats.add_round()
            stats.add_work(n, phase="wyllie")
            stats.add_gather(3 * n)
    # ptr now maps every node to its chain head; fold head value + carry
    head_value = values.copy()
    if carries is not None:
        head_value[heads] = op.combine(carries, values[heads])
    # exclusive = (carry ⊕ head_value ⊕ prefix-without-head) shifted:
    # exclusive[v] = seed_chain ⊕ work_at_pred(v); heads get their seed
    full = op.combine(head_value[ptr], work[pred])
    out[...] = full
    if carries is not None:
        out[heads] = carries
    else:
        out[heads] = ident
    if stats is not None:
        stats.free(3 * n)


def forest_list_scan(
    nxt: np.ndarray,
    values: np.ndarray,
    heads: np.ndarray,
    op: Operator | str = SUM,
    carries: np.ndarray | None = None,
    inclusive: bool = False,
    config: SublistConfig | None = None,
    rng: np.random.Generator | int | None = None,
    stats: ScanStats | None = None,
    out: np.ndarray | None = None,
    return_list_ids: bool = False,
    trace: str | Tracer | None = None,
    kernel_backend: str | KernelBackend | None = None,
    _depth: int = 0,
) -> np.ndarray | tuple[np.ndarray, np.ndarray]:
    """Exclusive (or inclusive) scan of every list in a forest.

    Parameters
    ----------
    nxt, values:
        Shared node arrays; every list terminates in its own self-loop,
        and every node lies on one of the lists (stray self-loops
        excepted).  Temporarily modified and restored, as in the paper.
    heads:
        Head node of each list.
    carries:
        Optional per-list seed values (shape like ``values[heads]``);
        list *k*'s exclusive scan starts at ``carries[k]`` instead of
        the identity.  This is what the early-reconnect caller uses.
    config:
        A :class:`SublistConfig`; ``None`` tunes ``m`` and ``s1`` from
        the paper's cost model.
    return_list_ids:
        Also return, for every node, the index into ``heads`` of the
        list containing it.
    trace:
        ``None`` / ``"off"`` / a :class:`repro.trace.Tracer`; a traced
        run records a ``sublist_scan`` span (``serial_scan`` for the
        base case) with per-phase children and one ``pack`` event per
        pack carrying the live-sublist count before/after — the
        observed counterpart of the paper's ``g(s)`` trajectory
        (``repro.trace.compare`` overlays the two).  Hooks fire per
        phase and per pack, never per element.
    kernel_backend:
        How the hot loops run — ``"numpy"`` / ``"python"`` /
        ``"numba"`` / a :class:`repro.kernels.KernelBackend` instance /
        ``None`` for env-var-then-auto selection (``docs/kernels.md``).
        A backend that does not support ``op`` over this value dtype
        silently falls back to the NumPy reference.

    Returns the scan array (indexed by node), optionally with the list
    id array.  Stray self-loops keep arbitrary values.

    Raises
    ------
    ListStructureError
        If a traversal does not reach a self-loop (a cycle), or the
        reduced forest does not have one chain per list.
    """
    op = get_operator(op)
    cfg = config or SublistConfig()
    gen = rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)
    tracer = resolve_trace(trace)
    backend = resolve_backend(kernel_backend)
    if not backend.supports(op, values):
        backend = resolve_backend("numpy")
    span = tracer.span if tracer is not None else null_span
    heads = np.asarray(heads, dtype=INDEX_DTYPE)
    n = nxt.shape[0]
    n_lists = heads.shape[0]
    if n_lists == 0:
        raise ValueError("forest must contain at least one list")
    if out is None:
        out = np.empty_like(values)
    if carries is not None:
        carries = np.asarray(carries)
        if carries.shape[0] != n_lists:
            raise ValueError("carries must have one entry per list")

    if n <= cfg.serial_cutoff or n < 4 * n_lists:
        with span("serial_scan", n=n, n_lists=n_lists, depth=_depth):
            serial_forest_scan(nxt, values, heads, op, carries, out)
        if stats is not None:
            stats.add_work(n, phase="serial")
    else:
        with span("sublist_scan", n=n, n_lists=n_lists, depth=_depth) as scan_span:
            _sublist_phases(
                nxt, values, heads, op, carries, cfg, gen, stats, out,
                tracer, backend, _depth, scan_span,
            )

    if inclusive:
        out = op.combine(out, values)
    if return_list_ids:
        return out, _list_ids(nxt, heads)
    return out


def _sublist_phases(
    nxt: np.ndarray,
    values: np.ndarray,
    heads: np.ndarray,
    op: Operator,
    carries: np.ndarray | None,
    cfg: SublistConfig,
    gen: np.random.Generator,
    stats: ScanStats | None,
    out: np.ndarray,
    tracer: Tracer | None,
    backend: KernelBackend,
    depth: int,
    scan_span: Span | None,
) -> None:
    """Initialize, Phases 1–3 and restore, writing the scan into ``out``."""
    span = tracer.span if tracer is not None else null_span
    n = nxt.shape[0]
    n_lists = heads.shape[0]
    ident = op.identity_for(values.dtype)
    m, s1 = resolve_parameters(n, n_lists, cfg)
    positions = draw_splitters(nxt, m - n_lists, gen)
    n_split = int(positions.size)
    m = n_lists + n_split  # virtual processors: [lists, splitter sublists]
    schedule = optimal_schedule(n, m, s1, cfg.costs)
    if scan_span is not None:
        scan_span.attrs.update(
            m=m, s1=s1, scheduled_packs=int(np.asarray(schedule).size)
        )

    # ------------------------------------------------------------------
    # INITIALIZE (Section 3): save links/values at the splitters, then
    # cut every list into independent self-loop-terminated sublists.
    # ------------------------------------------------------------------
    with span("initialize", m=m):
        sl_head = np.empty(m, dtype=INDEX_DTYPE)
        sl_head[:n_lists] = heads
        sl_head[n_lists:] = nxt[positions]  # gather heads (before cutting!)
        sl_value = op.identity_array(m, values.dtype)
        sl_value[n_lists:] = values[positions]  # save splitter values
        values[positions] = ident  # scatter identity at sublist tails
        nxt[positions] = positions  # scatter self-loops at sublist tails
        sl_sum = op.identity_array(m, values.dtype)
        sl_tail = np.full(m, -1, dtype=INDEX_DTYPE)
        end_tails = np.empty(0, dtype=INDEX_DTYPE)
        saved_end_values = None
    if stats is not None:
        stats.alloc(6 * m)
        stats.add_gather(2 * m)
        stats.add_scatter(2 * m)

    try:
        # --------------------------------------------------------------
        # PHASE 1: reduce each sublist to its sum, packing on schedule.
        # --------------------------------------------------------------
        with span("phase1", m=m):
            gaps = ScheduleIterator(schedule)
            vp_next = sl_head.copy()
            vp_sum = op.identity_array(m, values.dtype)
            vp_proc = np.arange(m, dtype=INDEX_DTYPE)
            total_steps = 0
            while vp_next.size:
                gap = next(gaps)
                total_steps = _guard_steps(total_steps, gap, n)
                x = vp_next.size
                vp_next, vp_sum = backend.traverse_phase1(
                    nxt, values, vp_next, vp_sum, gap, op
                )
                vp_next, vp_sum, vp_proc, n_fin = backend.pack_phase1(
                    nxt, vp_next, vp_sum, vp_proc, sl_sum, sl_tail
                )
                if stats is not None:
                    stats.add_round(gap)
                    stats.add_work(gap * x, phase="phase1")
                    stats.add_gather(2 * gap * x + x)
                    stats.add_pack()
                    stats.add_scatter(2 * n_fin + 3 * vp_next.size)
                if tracer is not None:
                    tracer.event(
                        "pack",
                        step=total_steps,
                        gap=int(gap),
                        live_before=int(x),
                        live_after=int(vp_next.size),
                        finished=int(n_fin),
                    )

        # --------------------------------------------------------------
        # FIND_SUBLIST_LIST: link the sublist sums into the reduced
        # forest.  Scatter the *negated* index of each splitter's
        # successor sublist over the splitter's self-loop; a sublist
        # that reads a non-negative value back ended at an original
        # tail and ends its list's chain.
        # --------------------------------------------------------------
        with span("find_sublist_list", m=m):
            nxt[positions] = -(np.arange(n_split, dtype=INDEX_DTYPE) + n_lists)
            probe = nxt[sl_tail]  # gather: index written by my successor
            sl_next = np.where(
                probe < 0, -probe, np.arange(m, dtype=INDEX_DTYPE)
            ).astype(INDEX_DTYPE)
            chain_ends = np.flatnonzero(probe >= 0)
            if chain_ends.size != n_lists:
                raise ListStructureError(
                    f"the reduced forest has {chain_ends.size} chain ends for "
                    f"{n_lists} lists; the successor array appears to contain "
                    "a cycle without a self-loop tail (run "
                    "validate_list_strict to diagnose)"
                )
            end_tails = sl_tail[chain_ends]
            saved_end_values = values[end_tails].copy()
            values[end_tails] = ident  # Phase 3 repeatedly folds these
            nxt[sl_tail] = sl_tail  # restore sublist-tail self-loops
            # fold each sublist's true tail value back into its sum: the
            # saved splitter value, or the original tail's value
            addback = sl_value[sl_next]
            addback[chain_ends] = saved_end_values
            sl_sum = op.combine(sl_sum, addback)
        if stats is not None:
            stats.add_work(m, phase="find_sublist")
            stats.add_gather(2 * m)
            stats.add_scatter(2 * m)

        # --------------------------------------------------------------
        # PHASE 2: scan the reduced forest, one chain per list.
        # --------------------------------------------------------------
        with span("phase2", m=m) as phase2_span:
            roots = np.arange(n_lists, dtype=INDEX_DTYPE)
            sl_out = np.empty_like(sl_sum)
            if backend.has_blocked_scan and backend.supports(op, sl_sum):
                # Blelloch blocked exclusive scan (snippet-1 shape).
                # Re-associates: exact for integer operators, documented
                # tolerance for floats (docs/kernels.md).
                method = "blocked"
                backend.reduced_scan(sl_next, sl_sum, roots, carries, op, sl_out)
                if stats is not None:
                    stats.add_work(m, phase="phase2_blocked")
            elif m > cfg.wyllie_cutoff and depth < 3:
                method = "recursive"
                forest_list_scan(
                    sl_next, sl_sum, roots, op, carries=carries,
                    config=replace(cfg, m=None, s1=None), rng=gen,
                    stats=stats, out=sl_out, trace=tracer,
                    kernel_backend=backend, _depth=depth + 1,
                )
            elif m > cfg.serial_cutoff:
                method = "wyllie"
                wyllie_forest_scan(
                    sl_next, sl_sum, roots, op, carries, sl_out, stats=stats
                )
            else:
                method = "serial"
                serial_forest_scan(sl_next, sl_sum, roots, op, carries, sl_out)
                if stats is not None:
                    stats.add_work(m, phase="phase2_serial")
            if phase2_span is not None:
                phase2_span.attrs["method"] = method

        # --------------------------------------------------------------
        # PHASE 3: expand the carries back along every sublist.
        # --------------------------------------------------------------
        with span("phase3", m=m):
            gaps = ScheduleIterator(schedule)
            vp_next = sl_head.copy()
            vp_sum = sl_out
            total_steps = 0
            while vp_next.size:
                gap = next(gaps)
                total_steps = _guard_steps(total_steps, gap, n)
                x = vp_next.size
                vp_next, vp_sum = backend.traverse_phase3(
                    nxt, values, vp_next, vp_sum, gap, op, out
                )
                vp_next, vp_sum = backend.pack_phase3(nxt, vp_next, vp_sum, out)
                if stats is not None:
                    stats.add_round(gap)
                    stats.add_work(gap * x, phase="phase3")
                    stats.add_gather(2 * gap * x + x)
                    stats.add_pack()
                    stats.add_scatter(gap * x + x + 2 * vp_next.size)
                if tracer is not None:
                    tracer.event(
                        "pack",
                        step=total_steps,
                        gap=int(gap),
                        live_before=int(x),
                        live_after=int(vp_next.size),
                    )
    finally:
        # --------------------------------------------------------------
        # RESTORE_LIST: the input arrays return bit-identical.
        # --------------------------------------------------------------
        with span("restore", m=m):
            if saved_end_values is not None:
                values[end_tails] = saved_end_values
            nxt[positions] = sl_head[n_lists:]
            values[positions] = sl_value[n_lists:]
        if stats is not None:
            stats.add_scatter(2 * m)
            stats.free(6 * m)
