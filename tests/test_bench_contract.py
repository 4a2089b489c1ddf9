"""The benchmark's own correctness checks, on tiny inputs.

`perfbench/run.py --smoke` drives embed, extract, delete and compare in
both layouts through the CLI and ships files to a `recv` child, checks
every output with `perfbench/checks.py`, and with `--trace 1` also
checks that the traced self times add up. `hide-full` and `ship` each
run once. A change that breaks an output line or API the benchmark
reads fails here instead of only in a full benchmark run.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _assert_smoke_run_is_correct(workload: str):
    run = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", "1", "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert run.returncode == 0, run.stderr
    lines = run.stdout.splitlines()
    problems = json.loads(lines[0])["info"]["problems"]
    result = json.loads(lines[-1])
    assert result["correct"] is True, problems
    assert result["failed"] == 0, problems


def test_hide_full_smoke_run_is_correct():
    _assert_smoke_run_is_correct("hide-full")


def test_ship_smoke_run_is_correct():
    _assert_smoke_run_is_correct("ship")
