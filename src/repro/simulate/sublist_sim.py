"""Simulated sublist list scan on the vector multiprocessor
(paper Sections 3 and 5; Figures 4, 14, 15).

The algorithm is *executed* (results are exact) while every kernel
charges the cycle costs derived from its instruction inventory
(``machine.calibration``) plus bank-conflict stalls sampled from the
real gather/scatter address streams.

Multiprocessing follows the paper's Section 5 exactly:

* the ``m`` virtual processors are divided once into ``p`` contiguous
  shards, one per CPU;
* Phases 1 and 3 run *independently* per CPU with **local-only
  packing** — "we need to do no synchronization within Phase 1 or
  Phase 3 and there is no load balancing across processors";
* a parallel region's wall time is the maximum shard time plus the
  tasked-loop start; single-CPU runs carry no multitasking overhead
  ("The implementation on one processor has no overhead due to
  multitasking");
* the bookkeeping kernels (initialize / find-sublist-list / restore)
  are tasked loops over ``m`` items with one synchronization each;
* Phase 2 runs serially, with the simulated Wyllie, or recursively
  depending on the reduced size.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.operators import Operator, SUM, get_operator
from ..core.schedule import ScheduleIterator, optimal_schedule
from ..core.tuning import SERIAL_CUTOFF, WYLLIE_CUTOFF, tuned_parameters
from ..lists.generate import INDEX_DTYPE, LinkedList
from ..machine.calibration import derive_rates, to_kernel_costs
from ..machine.config import CRAY_C90, MachineConfig
from ..machine.memory import estimate_conflict_cycles
from ..machine.multiproc import shard_slices
from .result import SimResult
from .serial_sim import serial_scan_sim
from .wyllie_sim import wyllie_scan_sim

__all__ = [
    "SimSublistConfig",
    "choose_splitters",
    "sublist_scan_sim",
    "sublist_rank_sim",
]


def choose_splitters(
    n: int,
    m: int,
    tail: int,
    strategy: str,
    rng: np.random.Generator,
) -> np.ndarray:
    """Choose the ``m − 1`` splitter positions (sublist tails).

    Positions must be distinct and must exclude the tail of the whole
    list ("We do not let a processor choose the tail of the whole list
    … because it is convenient not to worry about a zero length list in
    Phase 2").  The returned array may be shorter than ``m − 1`` for
    the competition strategy (duplicates drop out, exactly as the
    paper's duplicate processors do).

    ``strategy`` is ``"spaced"`` (equally spaced positions, the paper's
    choice for randomly ordered lists, and the one that produces the
    bank-conflict patterns on ordered lists), ``"random"`` (distinct
    uniform positions) or ``"random_competition"`` (uniform positions
    drawn *with* replacement, deduplicated by the paper's
    write-index/read-back competition).

    Degenerate inputs fall back instead of failing: ``m`` larger than
    the list clamps to ``n - 1`` usable splitters (every non-tail node),
    and a list with fewer than two nodes has no splittable interior, so
    the result is empty and the caller's serial path takes over.
    """
    # A splitter must be a non-tail node, so at most n - 1 exist; a
    # request for more (m > n) clamps rather than erroring so callers
    # with a fixed m(n) schedule degrade cleanly on tiny lists.
    want = min(m - 1, n - 1)
    if want < 1:
        return np.empty(0, dtype=INDEX_DTYPE)
    if strategy == "spaced":
        positions = np.unique(
            (np.arange(1, want + 1, dtype=np.float64) * n / (want + 1)).astype(INDEX_DTYPE)
        )
    elif strategy == "random":
        pool = n - 1  # choose from [0, n) \ {tail} via shifted sampling
        draw = rng.choice(pool, size=want, replace=False).astype(INDEX_DTYPE)
        draw[draw >= tail] += 1
        positions = np.sort(draw)
    elif strategy == "random_competition":
        draw = rng.integers(0, n, size=want, dtype=INDEX_DTYPE)
        # competition: write our id at the position, read it back, and
        # drop out if someone else's id is there (paper Section 2.4)
        claim = np.full(n, -1, dtype=INDEX_DTYPE)
        claim[draw] = np.arange(want, dtype=INDEX_DTYPE)
        winners = claim[draw] == np.arange(want, dtype=INDEX_DTYPE)
        positions = np.unique(draw[winners])
    else:
        raise ValueError(f"unknown splitter strategy {strategy!r}")
    positions = positions[positions != tail]
    if positions.size == 0:
        # degenerate tiny list (or every draw hit the tail): fall back
        # to the first non-tail node so Phase 2 still sees >= 2 sublists
        fallback = 0 if tail != 0 else 1
        positions = np.asarray([fallback], dtype=INDEX_DTYPE)
    return positions


@dataclass(frozen=True)
class SimSublistConfig:
    """Parameters of a simulated sublist-scan run."""

    m: int | None = None
    s1: float | None = None
    splitters: str = "spaced"
    serial_cutoff: int = SERIAL_CUTOFF
    wyllie_cutoff: int = WYLLIE_CUTOFF
    tail_growth: float = 1.5
    bank_conflicts: bool = True
    conflict_sample_every: int = 8
    max_depth: int = 4


def sublist_scan_sim(
    lst: LinkedList,
    op: Operator | str = SUM,
    config: MachineConfig = CRAY_C90,
    n_processors: int = 1,
    sim_config: SimSublistConfig | None = None,
    rng: np.random.Generator | int | None = None,
    inclusive: bool = False,
    _depth: int = 0,
) -> SimResult:
    """Simulate the sublist list scan; returns values and cycle accounting."""
    op = get_operator(op)
    cfg = sim_config or SimSublistConfig()
    gen = rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)
    p = n_processors
    if p < 1 or p > config.max_processors:
        raise ValueError(
            f"n_processors must be in [1, {config.max_processors}] for {config.name}"
        )
    n = lst.n

    if n <= cfg.serial_cutoff or n < 4 or _depth >= cfg.max_depth:
        res = serial_scan_sim(lst, op, config, inclusive=inclusive)
        return res

    costs = to_kernel_costs(config)
    kernels = derive_rates(config)
    if cfg.m is not None and cfg.s1 is not None:
        m_req, s1 = cfg.m, cfg.s1
    else:
        m_t, s1_t = tuned_parameters(n, costs, p)
        m_req = cfg.m if cfg.m is not None else m_t
        s1 = cfg.s1 if cfg.s1 is not None else s1_t
    m_req = int(min(max(m_req, 2), max(2, n // 2)))

    nxt = lst.next
    values = lst.values
    head = lst.head
    ident = op.identity_for(values.dtype)
    out = np.empty_like(values)
    result = SimResult(out=out, cycles=0.0, config=config, n=n, n_processors=p)

    idx_self = np.arange(n, dtype=INDEX_DTYPE)
    loops = np.flatnonzero(nxt == idx_self)
    if loops.size == 0:
        from ..lists.validate import ListStructureError

        raise ListStructureError(
            "the successor array has no self-loop tail; not a valid list"
        )
    tail = int(loops[0])
    positions = choose_splitters(n, m_req, tail, cfg.splitters, gen)
    m = int(positions.size) + 1

    mc = (m + p - 1) // p  # per-CPU chunk of the bookkeeping loops

    def region(name: str, per_elem_cycles: float, const: float, syncs: int = 1) -> None:
        wall = per_elem_cycles * mc + const
        if p > 1:
            wall += config.task_start_cycles + syncs * config.sync_cycles
        result.add_region(name, wall)

    # ------------------------------------------------------------------
    # INITIALIZE
    # ------------------------------------------------------------------
    sl_random = np.empty(m, dtype=INDEX_DTYPE)
    sl_random[0] = -1
    sl_random[1:] = positions
    sl_head = np.empty(m, dtype=INDEX_DTYPE)
    sl_head[0] = head
    sl_head[1:] = nxt[positions]
    sl_value = op.identity_array(m, values.dtype)
    sl_value[1:] = values[positions]
    saved_tail_value = None
    values[positions] = ident
    nxt[positions] = positions
    init = kernels["initialize"]
    init_conflicts = 0.0
    if cfg.bank_conflicts and positions.size:
        init_conflicts = 4.0 * estimate_conflict_cycles(
            positions, config, config.gather_rate
        ) / p
    region("initialize", init.per_elem, init.const + init_conflicts)

    sl_sum = op.identity_array(m, values.dtype)
    sl_tail = np.full(m, -1, dtype=INDEX_DTYPE)

    try:
        # --------------------------------------------------------------
        # PHASE 1 — per-CPU independent loops with local packing.
        # --------------------------------------------------------------
        schedule = optimal_schedule(n, m, s1, costs)
        shards = shard_slices(m, p)
        rank1 = kernels["initial_rank"]
        pack1 = kernels["initial_pack"]
        phase1_cpu = _run_phase(
            op,
            nxt,
            values,
            sl_head,
            None,
            sl_sum,
            sl_tail,
            out=None,
            shards=shards,
            schedule=schedule,
            cfg=cfg,
            config=config,
            rank=rank1,
            pack=pack1,
            phase=1,
        )
        wall1 = max(phase1_cpu) + (config.task_start_cycles if p > 1 else 0.0)
        result.add_region("phase1", wall1)

        # --------------------------------------------------------------
        # FIND_SUBLIST_LIST
        # --------------------------------------------------------------
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
        saved_tail_value = values[whole_tail].copy()
        sl_value[0] = saved_tail_value
        values[whole_tail] = ident
        nxt[sl_tail] = sl_tail
        addback = sl_value[sl_next]
        addback[tail_subl] = sl_value[0]
        sl_sum = op.combine(sl_sum, addback)
        fsl = kernels["find_sublist"]
        region("find_sublist", fsl.per_elem, fsl.const, syncs=2)

        # --------------------------------------------------------------
        # PHASE 2 — serial / Wyllie / recursive on the reduced list.
        # --------------------------------------------------------------
        carries = np.empty_like(sl_sum)
        reduced = LinkedList(sl_next, 0, sl_sum)
        if m > cfg.wyllie_cutoff and _depth + 1 < cfg.max_depth:
            sub = sublist_scan_sim(
                reduced, op, config, p, cfg, gen, _depth=_depth + 1
            )
            carries[...] = sub.out
            result.add_region("phase2_recursive", sub.cycles)
        elif m > cfg.serial_cutoff and op.invertible:
            sub = wyllie_scan_sim(
                reduced, op, config, p, bank_conflicts=cfg.bank_conflicts
            )
            carries[...] = sub.out
            result.add_region("phase2_wyllie", sub.cycles)
        else:
            sub = serial_scan_sim(reduced, op, config)
            carries[...] = sub.out
            result.add_region("phase2_serial", sub.cycles)

        # --------------------------------------------------------------
        # PHASE 3 — expansion with the same shard assignment.
        # --------------------------------------------------------------
        rank3 = kernels["final_rank"]
        pack3 = kernels["final_pack"]
        phase3_cpu = _run_phase(
            op,
            nxt,
            values,
            sl_head,
            carries,
            None,
            None,
            out=out,
            shards=shards,
            schedule=schedule,
            cfg=cfg,
            config=config,
            rank=rank3,
            pack=pack3,
            phase=3,
        )
        wall3 = max(phase3_cpu) + (config.task_start_cycles if p > 1 else 0.0)
        result.add_region("phase3", wall3)
        result.per_cpu_cycles = [a + b for a, b in zip(phase1_cpu, phase3_cpu)]
    finally:
        # --------------------------------------------------------------
        # RESTORE_LIST
        # --------------------------------------------------------------
        if saved_tail_value is not None:
            values[sl_random[0]] = saved_tail_value
        nxt[sl_random[1:]] = sl_head[1:]
        values[sl_random[1:]] = sl_value[1:]
    rst = kernels["restore"]
    region("restore", rst.per_elem, rst.const)

    if inclusive:
        result.out = op.combine(out, values)
    return result


def _run_phase(
    op: Operator,
    nxt: np.ndarray,
    values: np.ndarray,
    sl_head: np.ndarray,
    carries: np.ndarray | None,
    sl_sum: np.ndarray | None,
    sl_tail: np.ndarray | None,
    out: np.ndarray | None,
    shards,
    schedule,
    cfg: SimSublistConfig,
    config: MachineConfig,
    rank,
    pack,
    phase: int,
) -> list:
    """Run Phase 1 (reduce) or Phase 3 (expand) shard by shard.

    Each simulated CPU executes its shard's full traversal loop with
    local packing; returns the busy cycles per CPU.
    """
    per_cpu = []
    sample = max(1, cfg.conflict_sample_every)
    for sl in shards:
        cycles = 0.0
        vp_next = sl_head[sl].copy()
        if phase == 1:
            vp_sum = op.identity_array(vp_next.shape[0], values.dtype)
            vp_proc = np.arange(sl.start, sl.stop, dtype=INDEX_DTYPE)
        else:
            vp_sum = carries[sl].copy()
            vp_proc = None
        gaps = ScheduleIterator(schedule, cfg.tail_growth)
        step_count = 0
        while vp_next.size:
            gap = next(gaps)
            x = vp_next.size
            for _ in range(gap):
                if phase == 3:
                    out[vp_next] = vp_sum
                vp_sum = op.combine(vp_sum, values[vp_next])
                vp_next = nxt[vp_next]
                cycles += rank.per_elem * x + rank.const
                step_count += 1
                if cfg.bank_conflicts and step_count % sample == 0:
                    streams = 3.0 if phase == 3 else 2.0
                    cycles += streams * sample * estimate_conflict_cycles(
                        vp_next, config, config.gather_rate
                    )
            done = vp_next == nxt[vp_next]
            if phase == 1:
                finished = vp_proc[done]
                sl_sum[finished] = vp_sum[done]
                sl_tail[finished] = vp_next[done]
            else:
                out[vp_next] = vp_sum
            keep = ~done
            vp_next = vp_next[keep]
            vp_sum = vp_sum[keep]
            if vp_proc is not None:
                vp_proc = vp_proc[keep]
            cycles += pack.per_elem * x + pack.const
        per_cpu.append(cycles)
    return per_cpu


def sublist_rank_sim(
    lst: LinkedList,
    config: MachineConfig = CRAY_C90,
    n_processors: int = 1,
    sim_config: SimSublistConfig | None = None,
    rng: np.random.Generator | int | None = None,
) -> SimResult:
    """Simulated list ranking via the sublist algorithm."""
    ones = LinkedList(lst.next, lst.head, np.ones(lst.n, dtype=np.int64))
    return sublist_scan_sim(ones, SUM, config, n_processors, sim_config, rng)
