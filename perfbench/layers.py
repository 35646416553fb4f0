"""Metric assembly: end-to-end figures and the traced per-layer report."""

from __future__ import annotations

import contextlib
from collections.abc import Callable, Iterator
from typing import Any

import numpy as np

import wire
from perfkit import Problem, fit_linear, median, percentile
from workloads import Outcome, Workload, clock


def _metric(value: float, unit: str) -> dict[str, Any]:
    return {"value": float(value), "unit": unit}


@contextlib.contextmanager
def leak_check() -> Iterator[list[str]]:
    """Account every shared-memory segment and lease byte of the run.

    Yields a list that holds, after the block, one line per hard leak
    (a segment never unlinked, a handle never closed, lease bytes
    never returned) found by the program's own resource ledger.
    """
    from repro.sanitize import sanitizers

    found: list[str] = []
    with sanitizers(races=False, resources=True, label="perfbench") as state:
        yield found
    found.extend(f.message for f in state.failures())


def end_to_end(
    wl: Workload, out: Outcome, probes: list[dict[str, float]]
) -> tuple[dict[str, Any], list[str]]:
    """Metrics of the measured loop, plus set-up time and peak RSS from
    the set-up probes (set-up and one warm operation: a fixed amount of
    work, so the figure does not grow with the number of operations)."""
    setup = [p["setup_s"] for p in probes]
    op_ms = [1e3 * s for s in out.op_seconds]
    kernel = [1e9 * s / n for s, n in zip(out.kernel_seconds, out.kernel_elems)]
    metrics = {
        "setup_s": _metric(median(setup), "s"),
        "op_ms_p50": _metric(percentile(op_ms, 50), "ms"),
        "op_ms_p90": _metric(percentile(op_ms, 90), "ms"),
        "elems_per_s": _metric(out.elems_per_s, "1/s"),
        "peak_rss_mb": _metric(median([p["peak_rss_mb"] for p in probes]), "MB"),
    }
    summary = [
        f"# workload {wl.name}: {len(op_ms)} operations, {sum(out.op_elems)} elements, "
        f"{len(kernel)} kernel samples, setup samples "
        + ", ".join(f"{s:.3f}" for s in setup),
        f"# failed_frac {out.failed / max(1, out.attempted):.6f} "
        f"({out.failed} of {out.attempted} results wrong, missing or refused)",
    ]
    if "late_s" in out.notes:
        late = [1e3 * s for s in out.notes["late_s"]]
        summary.append(
            f"# load generator late by p50 {percentile(late, 50):.3f} ms, "
            f"p99 {percentile(late, 99):.3f} ms; capacity "
            f"{out.notes['capacity_rps']:.1f} requests/s"
        )
    if out.notes.get("errors"):
        summary.append(f"# first errors: {out.notes['errors'][:3]}")
    summary.append(f"# kernel reference: list_scan on the same lists, fastest sample "
                   f"{min(kernel):.4g} ns/elem (per-layer kernel.scan_ns_per_elem_min)")
    summary += [f"{name} {m['value']:.6g} {m['unit']}" for name, m in metrics.items()]
    return metrics, summary


# ----------------------------------------------------------------------
# per-layer probes
# ----------------------------------------------------------------------


def _best(fn: Callable[[], object], reps: int = 3) -> float:
    """Fastest of ``reps`` timed calls, in seconds."""
    best = float("inf")
    for _ in range(reps):
        t0 = clock()
        fn()
        best = min(best, clock() - t0)
    return best


def _reps(n: int) -> int:
    return 5 if n < (1 << 16) else 3 if n < (1 << 20) else 2


def _fit(problems: list[Problem], fn: Callable[[Problem], Callable[[], object]]) -> tuple[float, float]:
    ns = [float(p.n) for p in problems]
    return fit_linear(ns, [_best(fn(p), _reps(p.n)) for p in problems])


def _groups(problems: list[Problem]) -> list[list[Problem]]:
    """Fusable groups (one operator each) of growing total size."""
    by_op: dict[str, list[Problem]] = {}
    for p in problems:
        by_op.setdefault(p.op, []).append(p)
    base = max(by_op.values(), key=len)
    if len(base) == 1:
        return [base]
    cuts = sorted({max(1, len(base) * k // 4) for k in (1, 2, 3, 4)})
    return [base[:c] for c in cuts]


def _lists(problems: list[Problem]) -> list[Any]:
    from repro import LinkedList

    return [LinkedList(p.nxt, p.head, p.values) for p in problems]


def admission_layers(problems: list[Problem]) -> dict[str, float]:
    """``cache.fingerprint`` and ``errors.validate`` as ``T = a·n + b``."""
    from repro.engine import ScanRequest, fingerprint, validate_request

    metrics: dict[str, float] = {}
    lists = {id(p): lst for p, lst in zip(problems, _lists(problems))}
    a, b = _fit(problems, lambda p: lambda: fingerprint(lists[id(p)], p.op))
    metrics.update({"cache.fingerprint_a": a, "cache.fingerprint_b": b})
    reqs = {id(p): ScanRequest(lst=lists[id(p)], op=p.op) for p in problems}
    a, b = _fit(problems, lambda p: lambda: validate_request(reqs[id(p)], "fast"))
    metrics.update({"errors.validate_a": a, "errors.validate_b": b})
    return metrics


def router_layers(problems: list[Problem]) -> dict[str, float]:
    """Decision time, and the chosen algorithm's time over the fastest."""
    from repro import list_scan
    from repro.engine import Router

    router = Router()
    sizes = [p.n for p in problems]
    for n in sizes:
        router.choose(n)
    calls = 200
    t0 = clock()
    for _ in range(calls):
        for n in sizes:
            router.choose(n)
    choose_us = 1e6 * (clock() - t0) / (calls * len(sizes))
    chosen_total = best_total = 0.0
    for p, lst in zip(problems, _lists(problems)):
        times = {alg: _best(lambda alg=alg: list_scan(lst, p.op, algorithm=alg, rng=0),
                            1 if p.n >= (1 << 18) else 3)
                 for alg in ("serial", "wyllie", "sublist")}
        chosen_total += times[router.choose(p.n)]
        best_total += min(times.values())
    return {"router.choose_us": choose_us, "router.regret": chosen_total / best_total}


def batch_layers(problems: list[Problem]) -> dict[str, float]:
    """``FusedBatch.fuse``/``unfuse`` slopes and lists per shard."""
    from repro.engine import FusedBatch, ScanRequest, shard_requests

    groups = _groups(problems)
    reqs = [[ScanRequest(lst=lst, op=p.op) for p, lst in zip(g, _lists(g))] for g in groups]
    ns = [float(sum(p.n for p in g)) for g in groups]
    fused = [FusedBatch.fuse(r) for r in reqs]
    fuse_s = [_best(lambda r=r: FusedBatch.fuse(r)) for r in reqs]
    unfuse_s = [_best(lambda f=f: f.unfuse(f.values)) for f in fused]
    all_reqs = [ScanRequest(lst=lst, op=p.op) for p, lst in zip(problems, _lists(problems))]
    shards = shard_requests(all_reqs)
    metrics = {"batch.lists_per_shard": len(all_reqs) / len(shards)}
    if len(set(ns)) > 1:
        metrics["batch.fuse_a"] = fit_linear(ns, fuse_s)[0]
        metrics["batch.unfuse_a"] = fit_linear(ns, unfuse_s)[0]
    else:  # one list: the slope through the origin
        metrics["batch.fuse_a"] = 1e9 * fuse_s[0] / ns[0]
        metrics["batch.unfuse_a"] = 1e9 * unfuse_s[0] / ns[0]
    return metrics


KERNEL_PHASES = ("initialize", "phase1", "phase2", "phase3", "restore")


def kernel_layers(problems: list[Problem], seed: int) -> dict[str, float]:
    """Phase spans and work counts of ``list_scan`` (default algorithm)."""
    from repro import ScanStats, list_scan
    from repro.trace import Tracer

    total_n = sum(p.n for p in problems)
    phase_s = dict.fromkeys(KERNEL_PHASES, 0.0)
    ops = packs = rounds = 0
    for k, (p, lst) in enumerate(zip(problems, _lists(problems))):
        best: dict[str, float] | None = None
        for _ in range(_reps(p.n)):
            tracer, stats = Tracer(), ScanStats()
            list_scan(lst, p.op, rng=np.random.default_rng([seed, 3, k]), stats=stats,
                      trace=tracer)
            root = tracer.last_root()
            spans = {name: sum(s.duration for s in root.find_all(name)) for name in KERNEL_PHASES}
            if best is None or sum(spans.values()) < sum(best.values()):
                best = spans
        assert best is not None
        for name in KERNEL_PHASES:
            phase_s[name] += best[name]
        ops, packs, rounds = ops + stats.element_ops, packs + stats.packs, rounds + stats.rounds
    metrics = {f"kernel.{name.replace('initialize', 'init')}_ns_per_elem": 1e9 * s / total_n
               for name, s in phase_s.items()}
    metrics.update({"kernel.element_ops_per_elem": ops / total_n,
                    "kernel.packs": float(packs), "kernel.rounds": float(rounds)})
    return metrics


def worker_layers(problems: list[Problem], backend: Any, seed: int) -> dict[str, float]:
    """Inline fused kernel slope, and process transport over the same shard."""
    from repro import ScanStats, get_operator
    from repro.engine import FusedBatch, ScanRequest, run_fused_kernel

    groups = _groups(problems)
    ns, inline_s, shipped_s = [], [], []
    for g in groups:
        fb = FusedBatch.fuse([ScanRequest(lst=lst, op=p.op) for p, lst in zip(g, _lists(g))])
        op = get_operator(g[0].op)
        out = np.empty_like(fb.values)

        def inline(fb: Any = fb, op: Any = op, out: np.ndarray = out) -> object:
            return run_fused_kernel(fb.nxt, fb.values, fb.heads, op, False, "sublist",
                                    np.random.default_rng(seed), ScanStats(), out)

        def shipped(fb: Any = fb, op: Any = op) -> object:
            return backend.run_fused(fb.nxt, fb.values, fb.heads, op.name, False, "sublist",
                                     seed, False)

        shipped()  # first dispatch to a worker imports the kernels there
        ns.append(float(fb.n_nodes))
        inline_s.append(_best(inline))
        shipped_s.append(_best(shipped))
    total = sum(ns)
    kernel_a = fit_linear(ns, inline_s)[0] if len(set(ns)) > 1 else 1e9 * inline_s[0] / ns[0]
    transport = 1e9 * (sum(shipped_s) - sum(inline_s)) / total
    return {"workers.kernel_a": kernel_a, "workers.transport_ns_per_elem": transport}


def protocol_layers(problems: list[Problem]) -> dict[str, float]:
    """Wire decode (request) and encode (response) per element, and bytes."""
    from repro import list_scan
    from repro.engine import ScanResponse
    from repro.serve.protocol import decode_message, encode_frame, parse_request, response_to_wire

    total_n = sum(p.n for p in problems)
    decode_s = encode_s = 0.0
    wire_bytes = 0
    for i, p in enumerate(problems):
        payload = wire.frame(i, p.nxt, p.head, p.values, p.op)[4:]
        result = np.asarray(list_scan(_lists([p])[0], p.op))
        resp = ScanResponse(request_id=i, result=result, algorithm="sublist", n=p.n)
        decode_s += _best(lambda payload=payload: parse_request(decode_message(payload)),
                          _reps(p.n))
        encode_s += _best(lambda resp=resp, i=i: encode_frame(response_to_wire(i, resp)),
                          _reps(p.n))
        wire_bytes += len(payload) + 4 + len(encode_frame(response_to_wire(i, resp)))
    return {"protocol.decode_ns_per_elem": 1e9 * decode_s / total_n,
            "protocol.encode_ns_per_elem": 1e9 * encode_s / total_n,
            "protocol.bytes_per_elem": wire_bytes / total_n}


SHARDED_PHASES = ("plan", "contract", "reduce", "expand")


def sharded_layers(reports: list[dict[str, Any]], roots: list[Any], n: int) -> dict[str, float]:
    """Phase spans and partition counts of ``sharded_forest_scan`` calls."""
    metrics = {}
    for name in SHARDED_PHASES:
        per_call = [sum(s.duration for s in root.find_all(name)) for root in roots]
        metrics[f"sharded.{name}_ns_per_elem"] = 1e9 * median(per_call) / n
    rep = reports[-1]
    metrics.update({
        "sharded.reduced_frac": rep["n_reduced"] / n,
        "sharded.chunks": float(rep["num_chunks"]),
        "sharded.lease_peak_mb": rep["gate_peak_bytes"] / float(1 << 20),
    })
    return metrics


#: budget for the in-memory sharded probe: small enough that the sample
#: forest of every workload splits into several chunks
SHARDED_PROBE_BUDGET = 4 << 20


def sharded_probe(problems: list[Problem], backend: Any, seed: int) -> dict[str, float]:
    """``sharded_forest_scan`` of the sample problems fused into one forest."""
    from repro.distribute import DistributedConfig, sharded_forest_scan
    from repro.engine import FusedBatch, ScanRequest
    from repro.trace import Tracer

    group = _groups(problems)[-1]
    fb = FusedBatch.fuse([ScanRequest(lst=lst, op=p.op) for p, lst in zip(group, _lists(group))])
    config = DistributedConfig(memory_budget_bytes=SHARDED_PROBE_BUDGET)
    reports, roots = [], []
    for _ in range(3):
        report: dict[str, Any] = {}
        tracer = Tracer()
        sharded_forest_scan(fb.nxt, fb.values, fb.heads, group[0].op, config=config,
                            backend=backend, rng=seed, report=report, trace=tracer)
        reports.append(report)
        roots.append(tracer.last_root())
    return sharded_layers(reports, roots, fb.n_nodes)


#: the per-layer figures that are counts: they must repeat exactly
COUNT_METRICS = (
    "kernel.element_ops_per_elem", "kernel.packs", "kernel.rounds", "protocol.bytes_per_elem",
    "sharded.reduced_frac", "sharded.chunks", "batch.lists_per_shard",
)


def _server_figures(stats: dict[str, Any]) -> dict[str, float]:
    snap = stats.get("stats", stats)  # a server's stats reply, or an engine snapshot
    engine = snap.get("engine", snap)
    return {
        "window.requests_per_batch": engine["requests"] / max(1, engine["batches"]),
        "window.queue_wait_ms_p50": 1e3 * engine["latency"]["queue_wait"]["p50"],
        "server.shed": float(engine["shed"]),
        "cache.hit_ratio": engine["cache_hits"] / max(1, engine["cache_hits"] + engine["cache_misses"]),
        "execute_ms_p50": 1e3 * engine["latency"]["execute"]["p50"],
    }


#: share of ``--seconds`` for each of the untraced and traced passes
PASS_SHARE = 0.4


def per_layer(wl: Workload, seconds: float, out: Outcome) -> tuple[dict[str, Any], list[str]]:
    """Untraced and traced passes, then the layer probes."""
    from repro.engine import create_backend

    # untraced and traced passes alternate, so drift over the run
    # does not read as tracing overhead
    base, traced = Outcome(), Outcome()
    for on in (False, True, False, True):
        wl.set_trace(on)
        wl.measure(seconds * PASS_SHARE / 2, traced if on else base)
    wl.set_trace(False)
    for o in (base, traced):
        out.attempted += o.attempted
        out.failed += o.failed
    op_p50 = percentile(base.op_seconds, 50)
    problems = wl.sample_problems()

    m: dict[str, float] = {
        "kernel.scan_ns_per_elem_min": min(
            1e9 * t / n for t, n in zip(base.kernel_seconds, base.kernel_elems)
        ),
    }
    m.update(admission_layers(problems))
    m.update(router_layers(problems))
    m.update(batch_layers(problems))
    m.update(kernel_layers(problems, wl.seed))
    m.update(protocol_layers(problems))
    own_backend = wl.name != "out-of-core"
    backend = create_backend("processes", 2) if own_backend else wl.backend
    try:
        m.update(worker_layers(problems, backend, wl.seed))
        if own_backend:
            m.update(sharded_probe(problems, backend, wl.seed))
        else:
            roots = [s for s in wl.trace_log.roots if s.name == "sharded_scan"]
            m.update(sharded_layers(traced.notes["reports"], roots, wl.N))
    finally:
        if own_backend:
            backend.close()

    server = {"window.requests_per_batch": 0.0, "window.queue_wait_ms_p50": 0.0,
              "server.shed": 0.0, "cache.hit_ratio": 0.0}
    if "stats" in base.notes:
        server.update(_server_figures(base.notes["stats"]))
    execute_ms = server.pop("execute_ms_p50", 0.0)
    if wl.name != "serve-wire":
        # no batch window: these read the engine's own batches, no queue
        server["window.queue_wait_ms_p50"] = 0.0
    m.update(server)

    attributed = _attributed(wl, m, base, execute_ms)
    m["engine.unattributed_frac"] = 1.0 - attributed / op_p50
    m["trace.overhead_frac"] = percentile(traced.op_seconds, 50) / op_p50 - 1.0

    metrics = {name: _metric(m[name], unit) for name, unit in PER_LAYER}
    summary = [f"# workload {wl.name}: traced run, {len(base.op_seconds)} untraced and "
               f"{len(traced.op_seconds)} traced operations"]
    coverage = attributed / op_p50
    summary.append(
        f"# engine.unattributed_frac {m['engine.unattributed_frac']:.3f}: named layers cover "
        f"{100 * coverage:.0f}% of the median operation"
        + ("" if coverage >= 0.8 else " -- LESS THAN 80%: the layer list misses time")
    )
    summary += [f"{name} {v['value']:.6g} {v['unit']}" for name, v in metrics.items()]
    return metrics, summary


def _attributed(wl: Workload, m: dict[str, float], base: Outcome, execute_ms: float) -> float:
    """Seconds of the median operation that the named layers account for."""
    n_op = float(np.median(base.op_elems))

    def lin(prefix: str, n: float, lists: float = 1.0) -> float:
        return 1e-9 * m[f"{prefix}_a"] * n + 1e-6 * m.get(f"{prefix}_b", 0.0) * lists

    kernel = 1e-9 * n_op * sum(m[f"kernel.{p}_ns_per_elem"]
                               for p in ("init", "phase1", "phase2", "phase3", "restore"))
    if wl.name == "single-large":
        return (lin("cache.fingerprint", n_op) + lin("errors.validate", n_op)
                + 1e-6 * m["router.choose_us"] + kernel)
    if wl.name == "mixed-batch":
        lists = float(getattr(wl, "LISTS", 1))
        admit = lin("cache.fingerprint", n_op, lists) + lin("errors.validate", n_op, lists)
        fuse = 1e-9 * n_op * (m["batch.fuse_a"] + m["batch.unfuse_a"])
        # two worker threads run the shards' kernels side by side
        return admit + fuse + 1e-9 * n_op * m["workers.kernel_a"] / 2
    if wl.name == "serve-wire":
        wire_ns = m["protocol.decode_ns_per_elem"] + m["protocol.encode_ns_per_elem"]
        n_req = float(np.mean(base.op_elems))
        return 1e-9 * n_req * wire_ns + 1e-3 * (m["window.queue_wait_ms_p50"] + execute_ms)
    return 1e-9 * n_op * sum(m[f"sharded.{p}_ns_per_elem"] for p in SHARDED_PHASES)


PER_LAYER: tuple[tuple[str, str], ...] = (
    ("cache.fingerprint_a", "ns/elem"),
    ("cache.fingerprint_b", "us"),
    ("errors.validate_a", "ns/elem"),
    ("errors.validate_b", "us"),
    ("cache.hit_ratio", "ratio"),
    ("router.choose_us", "us"),
    ("router.regret", "ratio"),
    ("batch.fuse_a", "ns/elem"),
    ("batch.unfuse_a", "ns/elem"),
    ("batch.lists_per_shard", "count"),
    ("kernel.scan_ns_per_elem_min", "ns/elem"),
    ("kernel.init_ns_per_elem", "ns/elem"),
    ("kernel.phase1_ns_per_elem", "ns/elem"),
    ("kernel.phase2_ns_per_elem", "ns/elem"),
    ("kernel.phase3_ns_per_elem", "ns/elem"),
    ("kernel.restore_ns_per_elem", "ns/elem"),
    ("kernel.element_ops_per_elem", "count"),
    ("kernel.packs", "count"),
    ("kernel.rounds", "count"),
    ("workers.kernel_a", "ns/elem"),
    ("workers.transport_ns_per_elem", "ns/elem"),
    ("protocol.decode_ns_per_elem", "ns/elem"),
    ("protocol.encode_ns_per_elem", "ns/elem"),
    ("protocol.bytes_per_elem", "B/elem"),
    ("window.requests_per_batch", "count"),
    ("window.queue_wait_ms_p50", "ms"),
    ("server.shed", "count"),
    ("sharded.plan_ns_per_elem", "ns/elem"),
    ("sharded.contract_ns_per_elem", "ns/elem"),
    ("sharded.reduce_ns_per_elem", "ns/elem"),
    ("sharded.expand_ns_per_elem", "ns/elem"),
    ("sharded.reduced_frac", "ratio"),
    ("sharded.chunks", "count"),
    ("sharded.lease_peak_mb", "MB"),
    ("engine.unattributed_frac", "ratio"),
    ("trace.overhead_frac", "ratio"),
)
