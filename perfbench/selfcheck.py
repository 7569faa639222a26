"""Determinism self-check for the benchmark.

    python3 perfbench/selfcheck.py

For every workload: two runs with the same seed must print identical
output digests and counters, and a run on another seed must pass every
output check and print a different digest.  Exit status 0 when all hold.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("codec-large", "sample-stream", "index")


def run(workload: str, seed: int) -> tuple[int, dict, dict]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.splitlines()
    if len(lines) < 2:
        return proc.returncode, {}, {}
    return proc.returncode, json.loads(lines[-2])["facts"], json.loads(lines[-1])


def main() -> int:
    ok = True
    for workload in WORKLOADS:
        runs = [run(workload, seed) for seed in (101, 101, 202)]
        (code_a, facts_a, _), (code_b, facts_b, _), (code_c, facts_c, result_c) = runs
        problems = []
        if code_a or code_b or code_c:
            problems.append(f"exit codes {code_a}, {code_b}, {code_c}")
        elif facts_a["digest"] != facts_b["digest"] or facts_a["counters"] != facts_b["counters"]:
            problems.append("same seed, different digests or counters")
        elif not result_c["correct"]:
            problems.append("another seed failed an output check")
        elif facts_c["digest"] == facts_a["digest"]:
            problems.append("another seed gave the same outputs")
        ok = ok and not problems
        print(f"{workload}: {'; '.join(problems) or 'deterministic, seed-dependent, checks pass'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
