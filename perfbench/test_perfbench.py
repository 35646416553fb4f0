"""Self-checks of the benchmark: its correctness and leak checks can fire.

Run from the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import contextlib
import json
import os
import shutil
import subprocess
import sys
import tempfile
from collections.abc import Iterator
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import perfkit  # noqa: E402

perfkit.bootstrap()

import layers  # noqa: E402
import run  # noqa: E402
import wire  # noqa: E402
from workloads import MixedBatch, Outcome, ServeWire, SingleLarge  # noqa: E402


@pytest.fixture
def tmpdir_in_checkout(monkeypatch: pytest.MonkeyPatch) -> Iterator[Path]:
    perfkit.TMP_PARENT.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix="test-", dir=perfkit.TMP_PARENT))
    monkeypatch.setenv("TMPDIR", str(path))
    monkeypatch.setattr(tempfile, "tempdir", str(path))
    yield path
    run._stop_helper_processes()  # multiprocessing's temp dir lives in path
    shutil.rmtree(path, ignore_errors=True)
    with contextlib.suppress(OSError):  # still in use by a concurrent run
        perfkit.TMP_PARENT.rmdir()


def test_oracle_matches_the_program_and_rejects_a_corrupted_result() -> None:
    from repro import LinkedList, list_scan

    rng = np.random.default_rng(0)
    for op in ("sum", "max"):
        p = perfkit.make_problem(rng, 1000, op)
        result = list_scan(LinkedList(p.nxt, p.head, p.values), op)
        assert perfkit.matches(p, result)
        bad = result.copy()
        bad[int(rng.integers(p.n))] += 1
        assert not perfkit.matches(p, bad)
        assert not perfkit.matches(p, result[:-1])


def test_corrupted_result_fails_the_run(monkeypatch: pytest.MonkeyPatch,
                                        tmpdir_in_checkout: Path,
                                        capsys: pytest.CaptureFixture[str]) -> None:
    from repro.engine import Engine

    real_scan, real_warm = Engine.scan, SingleLarge.warm
    armed = []

    def corrupt(self: Engine, *args: object, **kwargs: object) -> np.ndarray:
        out = real_scan(self, *args, **kwargs)
        if armed:  # set-up must succeed; every later call is wrong
            out = out.copy()
            out[-1] += 1
        return out

    def arm_then_warm(self: SingleLarge, out: Outcome) -> None:
        armed.append(True)
        real_warm(self, out)

    monkeypatch.setattr(Engine, "scan", corrupt)
    monkeypatch.setattr(SingleLarge, "warm", arm_then_warm)
    monkeypatch.setattr(run, "_setup_probes",
                        lambda args, tmpdir: [{"setup_s": 1.0, "peak_rss_mb": 1.0}])
    code = run.main(["--workload", "single-large", "--seed", "5", "--seconds", "1",
                     "--trace", "0"])
    assert code == 1
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] is False
    assert result["failed"] >= 1


def test_dropped_batch_response_counts_as_failed(monkeypatch: pytest.MonkeyPatch,
                                                 tmpdir_in_checkout: Path) -> None:
    from repro.engine import Engine

    wl = MixedBatch(5, tmpdir_in_checkout)
    wl.setup()
    try:
        real = Engine.run_batch
        monkeypatch.setattr(Engine, "run_batch",
                            lambda self, reqs, parallel=None: real(self, reqs, parallel)[:-1])
        out = Outcome()
        wl.run_batch(wl.previous, out)
    finally:
        monkeypatch.undo()
        wl.teardown()
    assert out.failed == out.attempted == MixedBatch.LISTS


def test_dropped_wire_response_raises_failed_frac(monkeypatch: pytest.MonkeyPatch,
                                                  tmpdir_in_checkout: Path) -> None:
    wl = ServeWire(5, tmpdir_in_checkout)
    wl.setup()
    real = wire.open_loop

    async def drop_first(*args: object, **kwargs: object) -> wire.PhaseResult:
        res = await real(*args, **kwargs)
        res.payloads[0] = None
        return res

    try:
        clean = Outcome()
        wl.open_phase(0.5, clean)
        monkeypatch.setattr(wire, "open_loop", drop_first)
        dropped = Outcome()
        wl.open_phase(0.5, dropped)
    finally:
        monkeypatch.undo()
        wl.teardown()
    assert clean.failed == 0 and clean.attempted > 0
    assert dropped.failed == 1
    assert dropped.failed / dropped.attempted > clean.failed / clean.attempted


def test_leak_check_reports_an_unlinked_segment() -> None:
    from multiprocessing import shared_memory

    with layers.leak_check() as leaks:
        seg = shared_memory.SharedMemory(create=True, size=4096)
        seg.close()
    seg.unlink()
    assert any("shm" in line for line in leaks)


def _count_metrics(seed: int, tmpdir: Path, backend: object) -> dict[str, float]:
    problems = ServeWire(seed, tmpdir).sample_problems()
    metrics = layers.kernel_layers(problems, seed)
    metrics.update(layers.protocol_layers(problems))
    metrics.update(layers.batch_layers(problems))
    metrics.update(layers.sharded_probe(problems, backend, seed))
    return {name: metrics[name] for name in layers.COUNT_METRICS}


def test_count_metrics_repeat_with_the_same_seed(tmpdir_in_checkout: Path) -> None:
    from repro.engine import create_backend

    backend = create_backend("processes", 2)
    try:
        first = _count_metrics(7, tmpdir_in_checkout, backend)
        second = _count_metrics(7, tmpdir_in_checkout, backend)
    finally:
        backend.close()
    assert first == second


def test_exits_nonzero_without_the_program(tmp_path: Path) -> None:
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "single-large", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180, env=env,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
