"""Correctness smoke test of the wall-clock benchmark.

Runs every ``perfbench`` workload for one second, untraced, and fails
unless each run's result line (the last line of its standard output)
reports ``"correct": true`` and ``"failed": 0``.  ``perfbench/run.py``
itself exits 0 even when its oracle checks fail, so a wrong answer
would otherwise pass unnoticed.

Usage, from the root of a source checkout::

    python benchmarks/perfbench_smoke.py [workload ...]

With no arguments it runs all four workloads (about 40 s on a 2-vCPU
host).  Exits 1 if any run is incorrect, has a failed operation, or
prints no result.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("mine_unique", "mine_syndicated", "serve_read", "serve_ingest")


def check(workload: str) -> bool:
    """Run *workload* for one second; True when its result line is clean."""
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"),
         "--workload", workload, "--seconds", "1", "--trace", "0"],
        cwd=ROOT,
        capture_output=True,
        text=True,
    )
    lines = proc.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = {}
    ok = result.get("correct") is True and result.get("failed") == 0
    print(
        f"{workload}: exit={proc.returncode} correct={result.get('correct')} "
        f"failed={result.get('failed')} attempted={result.get('attempted')}"
        + ("" if ok else " FAIL")
    )
    if not ok and proc.stderr:
        print(proc.stderr[-2000:], file=sys.stderr)
    return ok


def main(argv: list[str]) -> int:
    results = [check(workload) for workload in (argv or WORKLOADS)]
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
