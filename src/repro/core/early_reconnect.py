"""Early reconnection — the paper's Section 6 future-work variant.

"A large part of the performance loss is due to short vector lengths.
… For these machines it may be better to reconnect the sublists into a
single reduced sublist before all the processors have reached the
tails.  The elements still remaining in the lists could then be packed
into contiguous memory and then Phase 1 recursively applied.  Keeping
track of which elements have been processed and which have not,
requires extra book keeping that would slow down the main ranking
portion of the algorithm.  But the trade off may be worth it if the
vector machine has long vector half lengths."

This module implements exactly that:

* Phases 1 and 3 run the normal vector traversal **with visited-node
  bookkeeping** (the extra scatter per step the paper warns about);
* when the live vector drops to ``switch_count`` virtual processors,
  the unconsumed straggler *suffixes* — which form a forest — are
  **compacted into contiguous memory** and handed to
  :func:`repro.core.forest.forest_list_scan`, which re-splits them into
  fresh sublists and processes them at full vector width;
* the forest scan is seeded with each straggler's partial sum, so its
  results are the exclusive scans *within* each original sublist; the
  Phase-2 carries are folded in afterwards using the forest's
  list-id by-product.

Because Phases 1 and 3 share the pack schedule, both phases switch at
the same traversal depth with the identical straggler set, so the
Phase-1 forest scan's outputs are exactly what Phase 3 needs.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from ..baselines.serial import serial_list_scan
from ..baselines.wyllie import wyllie_list_scan
from ..lists.generate import INDEX_DTYPE, LinkedList
from .forest import (
    SublistConfig,
    draw_splitters,
    forest_list_scan,
    forest_tails,
    resolve_parameters,
)
from .operators import Operator, SUM, get_operator
from .schedule import ScheduleIterator, optimal_schedule
from .stats import ScanStats

__all__ = ["early_reconnect_list_scan"]


def early_reconnect_list_scan(
    lst: LinkedList,
    op: Operator | str = SUM,
    inclusive: bool = False,
    config: SublistConfig | None = None,
    switch_count: int | None = None,
    rng: np.random.Generator | int | None = None,
    stats: ScanStats | None = None,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """List scan with early straggler reconnection (Section 6).

    ``switch_count``: when the live vector shrinks to this many virtual
    processors, the remaining suffixes are compacted and rescanned at
    full width.  Defaults to ``m // 8``.  ``0`` disables the switch
    (behaviour then matches the standard algorithm).
    """
    op = get_operator(op)
    cfg = config or SublistConfig()
    gen = rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)
    n = lst.n
    nxt = lst.next
    values = lst.values
    head = lst.head
    if out is None:
        out = np.empty_like(values)

    if n <= max(cfg.serial_cutoff, 4):
        serial_list_scan(lst, op, inclusive=inclusive, out=out)
        return out

    m_req, s1 = resolve_parameters(n, 1, cfg)
    positions = draw_splitters(nxt, m_req - 1, gen)
    m = int(positions.size) + 1
    if switch_count is None:
        switch_count = m // 8
    ident = op.identity_for(values.dtype)

    # ------------------- INITIALIZE (as in core.forest) ----------------
    sl_random = np.empty(m, dtype=INDEX_DTYPE)
    sl_random[0] = -1
    sl_random[1:] = positions
    sl_head = np.empty(m, dtype=INDEX_DTYPE)
    sl_head[0] = head
    sl_head[1:] = nxt[positions]
    sl_value = op.identity_array(m, values.dtype)
    sl_value[1:] = values[positions]
    whole_tail_value = None
    values[positions] = ident
    nxt[positions] = positions

    sl_sum = op.identity_array(m, values.dtype)
    sl_tail = np.full(m, -1, dtype=INDEX_DTYPE)

    # the "extra book keeping": which nodes have been consumed
    visited = np.zeros(n, dtype=bool)

    # straggler-forest state shared between the phases
    forest_nodes = None  # original ids of the compacted suffix nodes
    forest_within = None  # exclusive-within-sublist scans of those nodes
    forest_proc = None  # original sublist index of each suffix node

    try:
        schedule = optimal_schedule(n, m, s1, cfg.costs)

        # ---------------------------- PHASE 1 --------------------------
        gaps1 = ScheduleIterator(schedule)
        vp_next = sl_head.copy()
        vp_sum = op.identity_array(m, values.dtype)
        vp_proc = np.arange(m, dtype=INDEX_DTYPE)
        switched = False
        while vp_next.size:
            if switch_count and vp_next.size <= switch_count:
                switched = True
                break
            gap = next(gaps1)
            x = vp_next.size
            for _ in range(gap):
                visited[vp_next] = True
                vp_sum = op.combine(vp_sum, values[vp_next])
                vp_next = nxt[vp_next]
            if stats is not None:
                stats.add_round(gap)
                stats.add_work(gap * x, phase="phase1")
                stats.add_scatter(gap * x)  # the bookkeeping scatter
            done = vp_next == nxt[vp_next]
            visited[vp_next[done]] = True  # tails count as consumed
            fin = vp_proc[done]
            sl_sum[fin] = vp_sum[done]
            sl_tail[fin] = vp_next[done]
            keep = ~done
            vp_next, vp_sum, vp_proc = vp_next[keep], vp_sum[keep], vp_proc[keep]
            if stats is not None:
                stats.add_pack()

        if switched:
            # compact the unconsumed suffixes into contiguous memory
            forest_nodes = np.flatnonzero(~visited).astype(INDEX_DTYPE)
            remap = np.full(n, -1, dtype=INDEX_DTYPE)
            remap[forest_nodes] = np.arange(forest_nodes.size, dtype=INDEX_DTYPE)
            f_next = remap[nxt[forest_nodes]]
            f_values = values[forest_nodes].copy()
            f_heads = remap[vp_next]
            if stats is not None:
                stats.add_gather(2 * forest_nodes.size)
                stats.add_scatter(2 * forest_nodes.size)
                stats.alloc(3 * forest_nodes.size)
            f_out = np.empty_like(f_values)
            scan_res = forest_list_scan(
                f_next,
                f_values,
                f_heads,
                op,
                carries=vp_sum,
                config=replace(cfg, m=None, s1=None),
                rng=gen,
                stats=stats,
                out=f_out,
                return_list_ids=True,
            )
            forest_within, f_ids = scan_res
            forest_proc = vp_proc[f_ids]
            # finish Phase 1: sublist sums and tails from the forest
            f_tails = forest_tails(f_next, f_heads)
            totals = op.combine(forest_within[f_tails], f_values[f_tails])
            sl_sum[vp_proc] = totals
            sl_tail[vp_proc] = forest_nodes[f_tails]

        # ----------------------- FIND_SUBLIST_LIST ---------------------
        nxt[sl_random[1:]] = -np.arange(1, m, dtype=INDEX_DTYPE)
        probe = nxt[sl_tail]
        sl_next = np.where(
            probe < 0, -probe, np.arange(m, dtype=INDEX_DTYPE)
        ).astype(INDEX_DTYPE)
        ends = np.flatnonzero(probe >= 0)
        if ends.size != 1:
            from ..lists.validate import ListStructureError

            raise ListStructureError(
                "reduced list has no unique tail sublist; the successor "
                "array appears to contain a cycle"
            )
        tail_subl = int(ends[0])
        whole_tail = int(sl_tail[tail_subl])
        sl_random[0] = whole_tail
        whole_tail_value = values[whole_tail].copy()
        sl_value[0] = whole_tail_value
        values[whole_tail] = ident
        nxt[sl_tail] = sl_tail
        # straggler sums from the forest exclude the (zeroed) splitter
        # tail values exactly like the vector path, so the standard
        # add-back applies uniformly.  (The tail sublist's sum may
        # double-count the whole-list tail when it was a straggler;
        # that sum never feeds the exclusive scan.)
        addback = sl_value[sl_next]
        addback[tail_subl] = sl_value[0]
        sl_sum = op.combine(sl_sum, addback)

        # ----------------------------- PHASE 2 --------------------------
        carries = np.empty_like(sl_sum)
        reduced = LinkedList(sl_next, 0, sl_sum)
        if m > cfg.serial_cutoff and op.invertible:
            carries[...] = wyllie_list_scan(reduced, op, stats=stats)
        else:
            serial_list_scan(reduced, op, out=carries)

        # ----------------------------- PHASE 3 --------------------------
        gaps3 = ScheduleIterator(schedule)
        vp_next = sl_head.copy()
        vp_sum = carries.copy()
        vp_proc = np.arange(m, dtype=INDEX_DTYPE)
        while vp_next.size:
            if switch_count and vp_next.size <= switch_count:
                # the stragglers are identical to Phase 1's; fold the
                # Phase-2 carries into the precomputed within-sublist
                # scans and scatter
                out[forest_nodes] = op.combine(
                    carries[forest_proc], forest_within
                )
                if stats is not None:
                    stats.add_scatter(forest_nodes.size)
                break
            gap = next(gaps3)
            x = vp_next.size
            for _ in range(gap):
                out[vp_next] = vp_sum
                vp_sum = op.combine(vp_sum, values[vp_next])
                vp_next = nxt[vp_next]
            if stats is not None:
                stats.add_round(gap)
                stats.add_work(gap * x, phase="phase3")
            done = vp_next == nxt[vp_next]
            if np.any(done):
                out[vp_next] = vp_sum
                keep = ~done
                vp_next, vp_sum, vp_proc = (
                    vp_next[keep],
                    vp_sum[keep],
                    vp_proc[keep],
                )
            if stats is not None:
                stats.add_pack()
    finally:
        if whole_tail_value is not None:
            values[sl_random[0]] = whole_tail_value
        nxt[sl_random[1:]] = sl_head[1:]
        values[sl_random[1:]] = sl_value[1:]

    if inclusive:
        out = op.combine(out, values)
    return out
