"""Check that the per-layer count metrics repeat exactly for one seed.

Runs the traced benchmark twice per workload with the same seed and
compares every count metric (``layers.COUNT_METRICS``).  From the
repository root::

    python3 perfbench/check_repeat.py --seed 21 --seconds 6

Exit code 0 when every count repeats, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def traced(workload: str, seed: int, seconds: float) -> dict[str, float]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "1"],
        capture_output=True, text=True, check=True, timeout=600,
    )
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    return {name: m["value"] for name, m in metrics.items()}


def main() -> int:
    sys.path.insert(0, str(HERE))
    from layers import COUNT_METRICS
    from workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=6.0)
    ap.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    args = ap.parse_args()
    ok = True
    for workload in args.workload or list(WORKLOADS):
        first = traced(workload, args.seed, args.seconds)
        second = traced(workload, args.seed, args.seconds)
        for name in COUNT_METRICS:
            same = first[name] == second[name]
            ok &= same
            print(f"{workload:13s} {name:30s} {first[name]!r:>22} {second[name]!r:>22} "
                  f"{'same' if same else 'DIFFERENT'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
