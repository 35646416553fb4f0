"""Benchmark entry point: one workload, one seed, one JSON result line.

Run from the repository root::

    python3 perfbench/run.py --workload single-large --seed 1 --seconds 15 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the
same workload with tracing and layer probes and prints the per-layer
metrics instead.  The last line of standard output is the JSON result;
the lines before it are a human summary and the provenance stamp.
Exit code 0 means every result matched the oracle, 1 means a wrong or
missing result, 2 means the benchmark could not run.
"""

from __future__ import annotations

import time

# set-up probes time the imports, so the clock starts before them
_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

SETUP_PROBES = 3


def _parse(argv: list[str] | None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--tmpdir", default=None, help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def _stop_helper_processes() -> None:
    """Stop the forkserver and resource tracker multiprocessing started.

    Both outlive every pool by design; stopping them here means the run
    ends with no process of its own still alive.
    """
    from multiprocessing import forkserver, resource_tracker, util

    for helper in (forkserver._forkserver, resource_tracker._resource_tracker):
        stop = getattr(helper, "_stop", None)
        if stop is not None:
            stop()
    # runs multiprocessing's exit hooks now, which remove its temp dir
    util._run_finalizers()


def _probe_setup(args: argparse.Namespace) -> int:
    """Child mode: set up once (import included), tear down, and report
    the set-up time and the peak RSS of this process and its children."""
    import perfkit
    from workloads import WORKLOADS

    perfkit.bootstrap()
    wl = WORKLOADS[args.workload](args.seed, Path(args.tmpdir))
    wl.setup()
    elapsed = time.perf_counter() - _T0
    wl.teardown()
    _stop_helper_processes()
    print(json.dumps({"setup_s": elapsed, "peak_rss_mb": perfkit.peak_rss_mb()}))
    return 0


def _setup_probes(args: argparse.Namespace, tmpdir: Path) -> list[dict[str, float]]:
    """Set up ``SETUP_PROBES`` times, each in a fresh process."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed), "--tmpdir", str(tmpdir)]
    samples = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(cmd, capture_output=True, timeout=120, check=False)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr.decode(errors="replace"))
            raise RuntimeError(f"set-up probe exited with code {proc.returncode}")
        samples.append(json.loads(proc.stdout.decode().strip().splitlines()[-1]))
    return samples


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import perfkit

    try:
        perfkit.bootstrap()
    except perfkit.BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"expected one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.setup_probe:
        return _probe_setup(args)

    tmpdir = perfkit.TMP_PARENT / f"run-{os.getpid()}"
    tmpdir.mkdir(parents=True, exist_ok=False)
    # multiprocessing's forkserver socket and every child's temp files
    # land inside the checkout, and go with tmpdir at the end
    os.environ["TMPDIR"] = str(tmpdir)
    tempfile.tempdir = str(tmpdir)
    try:
        return _run(args, tmpdir)
    finally:
        _stop_helper_processes()
        shutil.rmtree(tmpdir, ignore_errors=True)
        try:
            perfkit.TMP_PARENT.rmdir()
        except OSError:
            pass  # another run still uses it


def _run(args: argparse.Namespace, tmpdir: Path) -> int:
    import layers
    import perfkit
    from workloads import WORKLOADS, Outcome

    wl = WORKLOADS[args.workload](args.seed, tmpdir)
    wl.prepare()
    probes = _setup_probes(args, tmpdir)
    out = Outcome()
    with layers.leak_check() as leaks:
        wl.setup()
        try:
            wl.warm(out)
            if args.trace:
                metrics, summary = layers.per_layer(wl, args.seconds, out)
            else:
                wl.measure(args.seconds, out)
                metrics, summary = layers.end_to_end(wl, out, probes)
        finally:
            wl.teardown()
    _stop_helper_processes()
    leftovers = sorted(p.name for p in tmpdir.iterdir() if p.name != "oocore-list")
    problems = [*leaks, *(f"temp file left behind: {name}" for name in leftovers)]
    if problems:
        for line in problems:
            print(f"perfbench: {line}", file=sys.stderr)
        return 2
    for line in summary:
        print(line)
    print("# stamp " + json.dumps(perfkit.host_stamp(args.seed, args.workload)))
    correct = out.failed == 0 and out.attempted > 0
    print(json.dumps({"correct": correct, "attempted": out.attempted,
                      "failed": out.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
