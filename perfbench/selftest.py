#!/usr/bin/env python3
"""Self-test of the benchmark's oracles: a wrong output must fail the run.

Run from the root of a checkout:

    python3 perfbench/selftest.py

For every workload it runs one short pass twice: as is, where every job must
pass and the exit code must be 0, and with ``--corrupt``, which drops the
last line of the first measured job's output before it is checked; that run
must report an ``error_rate`` above 0, ``"correct": false`` and a non-zero
exit code.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
RUN = HERE / "run.py"
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402


def bench(workload: str, *extra: str):
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", "0", *extra],
        capture_output=True, text=True, cwd=RUN.parent.parent, timeout=170)
    lines = proc.stdout.strip().splitlines()
    report = json.loads(lines[-2])
    return proc.returncode, report


def check(workload: str):
    """Problems found with one workload's oracles; empty if none."""
    problems = []
    code, report = bench(workload)
    rate = report["metrics"]["error_rate"]["value"]
    if code != 0 or rate != 0 or not report["correct"]:
        problems.append(f"{workload} clean run: exit {code}, error_rate {rate}, "
                        f"failures {report['failures']}")
    code, report = bench(workload, "--corrupt")
    rate = report["metrics"]["error_rate"]["value"]
    if code == 0 or rate <= 0 or report["correct"]:
        problems.append(f"{workload} corrupted run was not caught: exit {code}, "
                        f"error_rate {rate}")
    if not problems:
        print(f"ok: {workload} passes clean and fails when one output is "
              f"corrupted (error_rate {rate:.4f}: {report['failures'][0]})")
    return problems


def main() -> int:
    problems = [p for workload in sorted(WORKLOADS) for p in check(workload)]
    for problem in problems:
        print(f"FAIL {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
