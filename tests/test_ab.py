import importlib.util
import json
import math
import sys
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "ab.py"
_spec = importlib.util.spec_from_file_location("ab", TOOL)
ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab)

# prints the run's values from the checkout's values.json, one entry per
# run, and logs its checkout and arguments to runs.log beside the checkouts
STUB = """\
import json
import sys
from pathlib import Path

log = Path.cwd().parent / "runs.log"
lines = log.read_text().splitlines() if log.exists() else []
done = [line.split()[0] for line in lines].count(Path.cwd().name)
with log.open("a") as out:
    out.write(" ".join([Path.cwd().name, *sys.argv[1:]]) + "\\n")
values = json.loads(Path("values.json").read_text())[done]
print("progress noise")
print(json.dumps({"info": {"run": done}}))
print(json.dumps({"correct": True, "attempted": 9, "failed": 0,
                  "metrics": {name: {"value": value, "unit": "u"}
                              for name, value in values.items()}}))
"""

SPEC = {
    "command": [sys.executable, "perfbench/run.py"],
    "run_seconds": 7,
    "end_to_end": [{"name": "t_s", "unit": "s", "better": "lower", "bound": 0.25},
                   {"name": "rate", "unit": "MiB/s", "better": "higher", "bound": 0.1}],
    "per_layer": [],
}


def _checkout(root: Path, name: str, values: list[dict]) -> Path:
    checkout = root / name
    (checkout / "perfbench").mkdir(parents=True)
    (checkout / "perfbench" / "run.py").write_text(STUB)
    (checkout / "BENCHMARK.json").write_text(json.dumps(SPEC))
    (checkout / "values.json").write_text(json.dumps(values))
    return checkout


def _args(tmp_path, *extra):
    return ["--parent", str(tmp_path / "old"), "--change", str(tmp_path / "new"),
            "--workload", "ship", "--seed", "5", *extra]


def test_pairs_alternate_and_every_run_is_kept(tmp_path, capsys):
    _checkout(tmp_path, "old", [{"t_s": 1.0, "rate": 100.0}] * 3)
    new = _checkout(tmp_path, "new", [{"t_s": 0.5, "rate": 100.0}] * 3)
    (new / "perfbench" / "__pycache__").mkdir()
    (new / "perfbench" / "__pycache__" / "run.cpython.pyc").write_bytes(b"stale")
    out = tmp_path / "bench.json"
    assert ab.main(_args(tmp_path, "--pairs", "3", "--out", str(out))) == 0

    argv = "--workload ship --seed 5 --seconds 7 --trace 0"
    assert (tmp_path / "runs.log").read_text().splitlines() == [
        f"{name} {argv}" for name in ("old", "new", "new", "old", "old", "new")]
    written = json.loads(out.read_text())
    assert written["command"] == f"{sys.executable} perfbench/run.py {argv}"
    assert "parent = old, change = new" in written["note"]
    assert [(run["pair"], run["side"], run["commit"], run["info"]["run"])
            for run in written["runs"]] == [
        (1, "parent", "old", 0), (1, "change", "new", 0), (2, "change", "new", 1),
        (2, "parent", "old", 1), (3, "parent", "old", 2), (3, "change", "new", 2)]
    assert all(run["workload"] == "ship" and run["trace"] == 0
               and run["result"]["failed"] == 0 for run in written["runs"])
    printed = capsys.readouterr().out.splitlines()
    assert printed.count("pair=2 side=change correct=true failed=0 attempted=9") == 1
    assert printed[-2].split()[0] == "t_s" and printed[-2].endswith("3/3    gain")
    assert printed[-1].split()[0] == "rate" and printed[-1].endswith("0/3    same")


def test_smoke_and_seconds_reach_every_run(tmp_path):
    for name in ("old", "new"):
        _checkout(tmp_path, name, [{"t_s": 1.0, "rate": 1.0}] * 2)
    assert ab.main(_args(tmp_path, "--pairs", "2", "--seconds", "1.5", "--trace", "1",
                         "--smoke")) == 0
    assert set((tmp_path / "runs.log").read_text().split("\n")[:-1]) == {
        f"{name} --workload ship --seed 5 --seconds 1.5 --trace 1 --smoke"
        for name in ("old", "new")}


@pytest.mark.parametrize("edited", ["perfbench/run.py", "perfbench/extra.py", "BENCHMARK.json"])
def test_refuses_checkouts_whose_benchmark_files_differ(tmp_path, capsys, edited):
    _checkout(tmp_path, "old", [])
    new = _checkout(tmp_path, "new", [])
    with (new / edited).open("a") as out:
        out.write(" ")
    assert ab.main(_args(tmp_path, "--pairs", "2")) == 1
    assert capsys.readouterr().err == f"ab: the checkouts' benchmark files differ: {edited}\n"
    assert not (tmp_path / "runs.log").exists()


@pytest.mark.parametrize("parent, change, better, bound, expected", [
    # quartiles of 1..5 are 2 and 4; the change wins every pair but its
    # median beats the parent's by 0.5, within the spread of 2
    ([1, 2, 3, 4, 5], [0.5, 1.5, 2.5, 3.5, 4.5], "lower", 0.25,
     (3, 2, 4, 2.5, 5, "unresolved")),
    # the spread fits the bound, and 9 wins in 10 beat it: a gain
    ([10.0] * 5 + [10.2] * 5, [9.0] * 9 + [10.5], "lower", 0.25,
     (10.1, 10.0, 10.2, 9.0, 9, "gain")),
    # 8 wins in 10 are not enough
    ([10.0] * 5 + [10.2] * 5, [9.0] * 8 + [10.5] * 2, "lower", 0.25,
     (10.1, 10.0, 10.2, 9.0, 8, "same")),
    # a median 30% higher is past a 25% bound, whatever the wins
    ([1.0, 1.0, 1.0, 1.0], [1.3, 1.3, 1.3, 0.9], "lower", 0.25,
     (1.0, 1.0, 1.0, 1.3, 1, "worse")),
    # higher is better; ties count for neither side
    ([100, 100, 100, 100], [100, 100, 95, 120], "higher", 0.1,
     (100, 100, 100, 100, 1, "same")),
    ([100, 100, 100, 100], [85, 89, 90, 90], "higher", 0.1,
     (100, 100, 100, 89.5, 0, "worse")),
    # a wide spread is resolved when every change run beats every parent run
    ([1.0, 2.0, 3.0, 4.0], [0.5, 0.6, 0.7, 0.8], "lower", 0.25,
     (2.5, 1.75, 3.25, 0.65, 4, "gain")),
    ([1.0, 1.1, 3.0, 4.0], [0.9, 0.95, 0.97, 0.99], "lower", 0.25,
     (2.05, 1.075, 3.25, 0.96, 4, "same")),
    # no bound: only a gain is named
    ([1.0, 1.0], [2.0, 2.0], "lower", None, (1.0, 1.0, 1.0, 2.0, 0, "-")),
], ids=["within-spread", "gain", "eight-of-ten", "worse", "ties", "worse-higher",
        "wide-but-all-better-gain", "wide-but-all-better-same", "no-bound"])
def test_summary_arithmetic(parent, change, better, bound, expected):
    row = ab.summarize(parent, change, better, bound)
    got = tuple(row[key] for key in ("parent_median", "parent_q1", "parent_q3",
                                     "change_median", "wins", "verdict"))
    assert got[-2:] == expected[-2:]
    assert all(math.isclose(a, b) for a, b in zip(got[:4], expected[:4]))
    assert row["pairs"] == len(parent)
    assert math.isclose(row["ratio"], expected[3] / expected[0])
