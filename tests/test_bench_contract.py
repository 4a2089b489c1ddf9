"""The benchmark's own correctness checks, on tiny inputs.

`perfbench/run.py --smoke` drives embed, extract, delete and compare in
both layouts through the CLI and ships files to a `recv` child, checks
every output with `perfbench/checks.py`, and with `--trace 1` also
checks that the traced self times add up. Each workload runs once. A
change that breaks an output line or API the benchmark reads fails here
instead of only in a full benchmark run.

The per-layer metrics are keyed on function names and argument sizes. A
change that routes the CLI around a traced function, or hands it a
buffer the tracer cannot size, turns its metric into 0 while every
output stays correct, so each workload also pins the metrics its smoke
mix drives and fails when one of them reads 0.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


# per-layer metrics that read non-zero in each workload's traced smoke run
_DRIVEN = {
    "hide-full": (29, lambda name: not name.startswith("transfer.")),
    "hide-sparse": (18, lambda name: ".excessive." not in name and not name.startswith(
        ("transfer.", "quality.", "container.samples_16."))),
    "ship": (7, lambda name: name.startswith(("transfer.", "cli.startup_s", "trace_overhead"))
             and not name.endswith(("acks_rejected", "io_errors"))),
}


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
    assert problems == []
    assert result["correct"] is True
    assert result["failed"] == 0
    count, driven = _DRIVEN[workload]
    metrics = {name: m["value"] for name, m in result["metrics"].items() if driven(name)}
    assert len(metrics) == count
    assert [name for name, value in metrics.items() if not value] == []


def test_hide_full_smoke_run_is_correct():
    _assert_smoke_run_is_correct("hide-full")


def test_hide_sparse_smoke_run_is_correct():
    _assert_smoke_run_is_correct("hide-sparse")


def test_ship_smoke_run_is_correct():
    _assert_smoke_run_is_correct("ship")
