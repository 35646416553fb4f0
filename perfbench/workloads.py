"""The four workloads: set-up, the measured loop and teardown.

Each workload drives the program only through public entry points.
``setup`` is the work a user pays once (engine, pool or server start
plus the first warm call); ``measure`` runs the workload's operation
until the deadline, checks every result against the oracle, and
returns the raw samples.  Inputs are generated outside the timed
regions.  ``repro`` is imported inside ``setup`` so that a set-up probe
in a fresh process times the import too.
"""

from __future__ import annotations

import asyncio
import json
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

import wire
from perfkit import BenchError, Problem, expected, log_uniform_sizes, make_problem, matches

clock = time.perf_counter


@dataclass
class Outcome:
    """Raw samples of one measured loop."""

    op_seconds: list[float] = field(default_factory=list)
    op_elems: list[int] = field(default_factory=list)
    kernel_seconds: list[float] = field(default_factory=list)
    kernel_elems: list[int] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    #: elements per second of the workload's throughput measurement
    elems_per_s: float = 0.0
    #: workload-specific observations the per-layer report reads
    notes: dict[str, Any] = field(default_factory=dict)

    def check(self, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1


def _linked(problem: Problem) -> Any:
    from repro import LinkedList

    return LinkedList(problem.nxt, problem.head, problem.values)


def _kernel_sample(out: Outcome, problems: list[Problem]) -> None:
    """``list_scan`` (default algorithm) over ``problems``, one sample."""
    from repro import list_scan

    lists = [_linked(p) for p in problems]
    t0 = clock()
    results = [list_scan(lst, p.op) for lst, p in zip(lists, problems)]
    out.kernel_seconds.append(clock() - t0)
    out.kernel_elems.append(sum(p.n for p in problems))
    for p, r in zip(problems, results):
        out.check(matches(p, r))


class Workload:
    name = ""

    def __init__(self, seed: int, tmpdir: Path) -> None:
        self.seed = seed
        self.tmpdir = tmpdir
        self.rng = np.random.default_rng([seed, 0])
        self.tracer: Any = None
        #: the one tracer of the traced set-up, kept while tracing is off
        self.trace_log: Any = None

    def set_trace(self, on: bool) -> None:
        """Switch the measured calls between the traced and untraced set-ups."""
        from repro.trace import Tracer

        if on and self.trace_log is None:
            self.trace_log = Tracer()
        self.tracer = self.trace_log if on else None

    def prepare(self) -> None:
        """Inputs that must exist before set-up (untimed)."""

    #: seconds of load after set-up, checked but not reported, so the
    #: first timed operations do not pay for lazy warm-up
    WARM_S = 1.0

    def warm(self, out: Outcome) -> None:
        """Load run after set-up and before timing (not part of set-up);
        its results are checked and counted in ``out``, its times are not."""
        self._counted(out, lambda w: self.measure(self.WARM_S, w))

    @staticmethod
    def _counted(out: Outcome, run: Any) -> None:
        scratch = Outcome()
        run(scratch)
        out.attempted += scratch.attempted
        out.failed += scratch.failed

    def setup(self) -> None:
        raise NotImplementedError

    def measure(self, seconds: float, out: Outcome) -> None:
        raise NotImplementedError

    def teardown(self) -> None:
        raise NotImplementedError

    def sample_problems(self) -> list[Problem]:
        """Problems with this workload's size spread, for layer probes."""
        raise NotImplementedError


class _EngineWorkload(Workload):
    """A workload on an in-process ``Engine``: one engine per trace set-up."""

    ENGINE_KW: dict[str, Any] = {}

    def _use_engine(self) -> None:
        from repro.engine import Engine

        traced = self.tracer is not None
        if traced not in self._engines:
            self._engines[traced] = Engine(trace=self.tracer, **self.ENGINE_KW)
            self.engine = self._engines[traced]
            out = Outcome()
            self._warm_call(out)
            if out.failed:
                raise BenchError("warm-up call returned a wrong result")
        self.engine = self._engines[traced]

    def _warm_call(self, out: Outcome) -> None:
        raise NotImplementedError

    def setup(self) -> None:
        self._engines: dict[bool, Any] = {}
        self._use_engine()

    def set_trace(self, on: bool) -> None:
        super().set_trace(on)
        self._use_engine()

    def teardown(self) -> None:
        for engine in self._engines.values():
            engine.close()


# ----------------------------------------------------------------------
# single-large
# ----------------------------------------------------------------------


class SingleLarge(_EngineWorkload):
    """One fresh 2**20-node list per call, via list_scan and Engine.scan."""

    name = "single-large"
    N = 1 << 20

    def _warm_call(self, out: Outcome) -> None:
        self._once(make_problem(np.random.default_rng([self.seed, 1]), self.N), out, False)

    def _once(self, p: Problem, out: Outcome, engine_first: bool) -> None:
        from repro import list_scan

        lst = _linked(p)
        want = expected(p)
        for use_engine in (engine_first, not engine_first):
            t0 = clock()
            res = self.engine.scan(lst) if use_engine else list_scan(lst, trace=self.tracer)
            dt = clock() - t0
            if use_engine:
                out.op_seconds.append(dt)
                out.op_elems.append(p.n)
            else:
                out.kernel_seconds.append(dt)
                out.kernel_elems.append(p.n)
            out.check(matches(p, res, want))

    def measure(self, seconds: float, out: Outcome) -> None:
        deadline = clock() + seconds
        k = 0
        while clock() < deadline:
            p = make_problem(self.rng, self.N)
            self._once(p, out, engine_first=bool(k % 2))
            k += 1
        out.elems_per_s = sum(out.op_elems) / sum(out.op_seconds)
        out.notes["stats"] = self.engine.stats_snapshot()

    def sample_problems(self) -> list[Problem]:
        rng = np.random.default_rng([self.seed, 2])
        return [make_problem(rng, n) for n in (1 << 14, 1 << 16, 1 << 18, 1 << 20)]


# ----------------------------------------------------------------------
# mixed-batch
# ----------------------------------------------------------------------


class MixedBatch(_EngineWorkload):
    """512 lists per batch, log-uniform sizes, a quarter repeated."""

    name = "mixed-batch"
    ENGINE_KW = {"executor": "threads", "max_workers": 2}
    LISTS = 512
    LO, HI = 16, 16384
    REPEAT = 4  # one in REPEAT requests repeats a problem of the previous batch
    KERNEL_SAMPLE = 32

    def _batch(self, rng: np.random.Generator, previous: list[Problem]) -> list[Problem]:
        sizes = log_uniform_sizes(rng, self.LISTS, self.LO, self.HI)
        ops = rng.choice(["sum", "max"], size=self.LISTS)
        batch = [make_problem(rng, int(n), str(op)) for n, op in zip(sizes, ops)]
        if previous:
            slots = rng.choice(self.LISTS, size=self.LISTS // self.REPEAT, replace=False)
            picks = rng.integers(0, len(previous), size=slots.shape[0])
            for slot, pick in zip(slots, picks):
                old = previous[int(pick)]
                batch[int(slot)] = Problem(old.nxt.copy(), old.head, old.values.copy(),
                                           old.order, old.op)
        return batch

    def _warm_call(self, out: Outcome) -> None:
        if not hasattr(self, "previous"):
            self.previous = self._batch(np.random.default_rng([self.seed, 1]), [])
        self.run_batch(self.previous, out)

    def requests(self, batch: list[Problem]) -> list[Any]:
        from repro.engine import ScanRequest

        return [ScanRequest(lst=_linked(p), op=p.op) for p in batch]

    def run_batch(self, batch: list[Problem], out: Outcome) -> None:
        reqs = self.requests(batch)
        t0 = clock()
        responses = self.engine.run_batch(reqs)
        out.op_seconds.append(clock() - t0)
        out.op_elems.append(sum(p.n for p in batch))
        if len(responses) != len(batch):
            out.attempted += len(batch)
            out.failed += len(batch)
            return
        for p, resp in zip(batch, responses):
            out.check(bool(resp.ok) and matches(p, resp.result))

    def measure(self, seconds: float, out: Outcome) -> None:
        deadline = clock() + seconds
        while clock() < deadline:
            batch = self._batch(self.rng, self.previous)
            self.run_batch(batch, out)
            # every (LISTS / KERNEL_SAMPLE)-th list in size order, so each
            # sample has the same size mix
            by_size = sorted(batch, key=lambda p: p.n)
            _kernel_sample(out, by_size[:: self.LISTS // self.KERNEL_SAMPLE])
            self.previous = batch
        out.elems_per_s = sum(out.op_elems) / sum(out.op_seconds)
        out.notes["stats"] = self.engine.stats_snapshot()

    def sample_problems(self) -> list[Problem]:
        return self._batch(np.random.default_rng([self.seed, 2]), [])[:64]


# ----------------------------------------------------------------------
# serve-wire
# ----------------------------------------------------------------------


class ServeWire(Workload):
    """Loopback server, Poisson open loop then a closed-loop capacity phase."""

    name = "serve-wire"
    SIZES = (64, 256, 1024, 4096)
    RATE = 300.0  # requests/second of the open loop
    CONNS = 2
    INFLIGHT = 64  # per connection, closed loop: a full flush_size batch each
    #: requests/second encoded ahead for the closed loop; a faster server
    #: ends the phase early, on a shorter but still valid measurement
    CAPACITY_GUESS = 1400.0
    CAPACITY_WINDOW_S = 0.5
    OPEN_SHARE = 0.5  # of --seconds; the rest is the closed loop
    KERNEL_SAMPLES = 36  # each one list of every size
    WARM_S = 4.0  # the first seconds under load run far slower than the rest

    def _problems(self, rng: np.random.Generator, count: int) -> list[Problem]:
        sizes = rng.choice(self.SIZES, size=count)
        return [make_problem(rng, int(n)) for n in sizes]

    def _frames(self, problems: list[Problem], base: int) -> list[bytes]:
        return [wire.frame(base + i, p.nxt, p.head, p.values, p.op)
                for i, p in enumerate(problems)]

    def setup(self) -> None:
        # the import is paid inside the server process; the client side
        # here needs nothing from the program
        self.server = wire.ServerProcess(self.tmpdir)
        self.port = self.server.start()
        self.next_id = 0
        warm = self._problems(np.random.default_rng([self.seed, 1]), 16)
        out = Outcome()
        self._open(warm, np.zeros(len(warm)), out)
        if out.failed:
            raise BenchError("warm-up requests failed")

    def _verify(self, problems: list[Problem], res: wire.PhaseResult, out: Outcome) -> None:
        for p, payload in zip(problems, res.payloads):
            if payload is None:
                out.check(False)
                continue
            msg = json.loads(payload)
            ok = bool(msg.get("ok")) and matches(p, msg.get("result"))
            if not ok:
                out.notes.setdefault("errors", []).append(msg.get("error"))
            out.check(ok)

    def _open(self, problems: list[Problem], offsets: np.ndarray, out: Outcome) -> wire.PhaseResult:
        base = self.next_id
        self.next_id += len(problems)
        frames = self._frames(problems, base)
        res = asyncio.run(wire.open_loop(self.port, frames, offsets, base, self.CONNS))
        self._verify(problems, res, out)
        return res

    def open_phase(self, seconds: float, out: Outcome) -> None:
        """Seeded Poisson arrivals at ``RATE``; latency from each due time."""
        gaps = self.rng.exponential(1.0 / self.RATE, size=int(self.RATE * seconds * 1.5) + 8)
        offsets = np.cumsum(gaps)
        offsets = offsets[offsets < seconds]
        problems = self._problems(self.rng, offsets.shape[0])
        res = self._open(problems, offsets, out)
        answered = ~np.isnan(res.done)
        out.op_seconds.extend((res.done - res.due)[answered].tolist())
        out.op_elems.extend(p.n for p, a in zip(problems, answered) if a)
        out.notes["late_s"] = (res.sent - res.due).tolist()
        # stats cover the warm-up and measured open loops at the same rate
        out.notes["stats"] = asyncio.run(wire.admin(self.port, {"id": "s", "type": "stats"}))

    def closed_phase(self, seconds: float, out: Outcome) -> None:
        """Saturation: ``INFLIGHT`` requests outstanding per connection."""
        problems = self._problems(self.rng, int(self.CAPACITY_GUESS * seconds) + 64)
        base = self.next_id
        self.next_id += len(problems)
        frames = self._frames(problems, base)
        res = asyncio.run(
            wire.closed_loop(self.port, frames, base, seconds, self.CONNS, self.INFLIGHT)
        )
        problems = problems[: len(res.payloads)]
        self._verify(problems, res, out)
        # median over fixed windows of the phase, so a stall of a second
        # or two does not set the figure; windows after the last send (the
        # drain, or frames running out on a fast server) are left out
        start = float(res.sent[0])
        span = min(seconds, float(res.sent.max()) - start)
        edges = start + np.arange(0.0, span + 1e-9, self.CAPACITY_WINDOW_S)
        if edges.shape[0] < 2:
            raise BenchError("closed loop ended before one capacity window")
        answered = ~np.isnan(res.done)
        sizes = np.array([p.n for p in problems], dtype=np.float64)[answered]
        slot = np.searchsorted(edges, res.done[answered], side="right") - 1
        inside = (slot >= 0) & (slot < edges.shape[0] - 1)
        per_window = np.bincount(slot[inside], minlength=edges.shape[0] - 1)
        elems = np.bincount(slot[inside], weights=sizes[inside], minlength=edges.shape[0] - 1)
        out.elems_per_s = float(np.median(elems)) / self.CAPACITY_WINDOW_S
        out.notes["capacity_rps"] = float(np.median(per_window)) / self.CAPACITY_WINDOW_S

    def warm(self, out: Outcome) -> None:
        self._counted(out, lambda w: self.open_phase(self.WARM_S, w))

    def measure(self, seconds: float, out: Outcome) -> None:
        # kernel samples in three groups spread over the run (none inside a
        # phase, where they would delay the load generator)
        self._kernel_group(out)
        self.open_phase(seconds * self.OPEN_SHARE, out)
        self._kernel_group(out)
        self.closed_phase(seconds * (1.0 - self.OPEN_SHARE), out)
        self._kernel_group(out)

    def _kernel_group(self, out: Outcome) -> None:
        for _ in range(self.KERNEL_SAMPLES // 3):
            _kernel_sample(out, [make_problem(self.rng, n) for n in self.SIZES])

    def teardown(self) -> None:
        self.server.stop()

    def sample_problems(self) -> list[Problem]:
        rng = np.random.default_rng([self.seed, 2])
        return [make_problem(rng, n) for n in self.SIZES for _ in range(4)]


# ----------------------------------------------------------------------
# out-of-core
# ----------------------------------------------------------------------


class OutOfCore(Workload):
    """sharded_forest_scan over a memmapped blocked list, 2-worker pool."""

    name = "out-of-core"
    N = 1 << 22
    BUDGET = 32 << 20
    WORKERS = 2
    KERNEL_N = 1 << 18  # chunk-sized in-memory list for the kernel reference
    KERNEL_SAMPLES = 4  # per call
    CHECK_CHUNK = 1 << 18

    @property
    def list_dir(self) -> Path:
        return self.tmpdir / "oocore-list"

    def prepare(self) -> None:
        from repro.distribute import write_memmap_list

        if not self.list_dir.exists():
            write_memmap_list(self.list_dir, self.N, layout="blocked", seed=self.seed)

    def setup(self) -> None:
        from repro.distribute import DistributedConfig, create_output_memmap, open_memmap_list
        from repro.engine import create_backend

        self.backend = create_backend("processes", self.WORKERS)
        self.config = DistributedConfig(memory_budget_bytes=self.BUDGET)
        self.mlist = open_memmap_list(self.list_dir)
        self.out_dir = self.tmpdir / f"oocore-out-{id(self)}"
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self.out = create_output_memmap(self.out_dir, self.N)
        if not self.call(Outcome()):
            raise BenchError("warm-up call returned a wrong result")

    def call(self, out: Outcome, trace: Any = None) -> bool:
        from repro.distribute import sharded_forest_scan

        report: dict[str, Any] = {}
        heads = np.asarray([self.mlist.head], dtype=np.int64)
        self._poison_output()
        t0 = clock()
        sharded_forest_scan(
            self.mlist.next, self.mlist.values, heads, "sum",
            config=self.config, backend=self.backend, out=self.out,
            report=report, trace=trace,
        )
        self.out.flush()
        out.op_seconds.append(clock() - t0)
        out.op_elems.append(self.N)
        out.notes.setdefault("reports", []).append(report)
        ok = self.certify()
        out.check(ok)
        return ok

    def _poison_output(self) -> None:
        """Fill the output file with -1 through plain file writes (no
        mapping, so no resident pages), so that a call which leaves the
        previous call's ranks in place fails the certificate."""
        block = np.full(self.CHECK_CHUNK, -1, dtype=np.int64)
        with open(self.out.filename, "r+b") as f:
            for lo in range(0, self.N, self.CHECK_CHUNK):
                f.seek(8 * lo)
                block[: min(self.N, lo + self.CHECK_CHUNK) - lo].tofile(f)

    def certify(self) -> bool:
        """Rank certificate, streamed from the files in bounded chunks."""
        nxt_path, out_path = Path(self.mlist.next.filename), Path(self.out.filename)
        head, n = self.mlist.head, self.N
        tails = 0
        pending_nodes: list[np.ndarray] = []
        pending_ranks: list[np.ndarray] = []
        for lo in range(0, n, self.CHECK_CHUNK):
            hi = min(n, lo + self.CHECK_CHUNK)
            nxt = np.fromfile(nxt_path, dtype=np.int64, count=hi - lo, offset=8 * lo)
            rank = np.fromfile(out_path, dtype=np.int64, count=hi - lo, offset=8 * lo)
            idx = np.arange(lo, hi, dtype=np.int64)
            body = nxt != idx
            tails += int((~body).sum())
            local = body & (nxt >= lo) & (nxt < hi)
            if not np.array_equal(rank[nxt[local] - lo], rank[local] + 1):
                return False
            far = body & ~local
            pending_nodes.append(nxt[far])
            pending_ranks.append(rank[far] + 1)
            if lo <= head < hi and int(rank[head - lo]) != 0:
                return False
        nodes = np.concatenate(pending_nodes)
        want = np.concatenate(pending_ranks)
        got = np.array([np.fromfile(out_path, dtype=np.int64, count=1, offset=8 * int(i))[0]
                        for i in nodes], dtype=np.int64)
        return tails == 1 and bool(np.array_equal(got, want))

    def measure(self, seconds: float, out: Outcome) -> None:
        deadline = clock() + seconds
        while clock() < deadline:
            self.call(out, self.tracer)
            for _ in range(self.KERNEL_SAMPLES):
                _kernel_sample(out, [make_problem(self.rng, self.KERNEL_N)])
        out.elems_per_s = sum(out.op_elems) / sum(out.op_seconds)

    def teardown(self) -> None:
        self.backend.close()
        out_dir = self.out_dir
        del self.out, self.mlist
        shutil.rmtree(out_dir)

    def sample_problems(self) -> list[Problem]:
        rng = np.random.default_rng([self.seed, 2])
        return [make_problem(rng, n) for n in (1 << 16, 1 << 17, 1 << 18)]


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls for cls in (SingleLarge, MixedBatch, ServeWire, OutOfCore)
}
