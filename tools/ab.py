"""Run the benchmark from two checkouts in alternating pairs and compare
each metric's runs.

    python3 tools/ab.py --parent DIR --change DIR --workload W --pairs N --seed S \\
        [--seconds T] [--trace 0|1] [--smoke] [--out FILE]

Both checkouts must hold byte-identical `perfbench/` trees (`__pycache__`
aside) and `BENCHMARK.json`, or nothing runs. The command is that file's
`command` plus the arguments above, run from the root of each checkout,
one run at a time: the parent first in odd pairs and the change first in
even pairs. `--seconds` defaults to the file's `run_seconds`.

Each run's `correct` and `failed` are printed as it ends. Then, for each
metric that BENCHMARK.json lists (`end_to_end` with `--trace 0`,
`per_layer` with `--trace 1`): the parent's median and quartiles, the
change's median, its ratio to the parent's, the pairs the change won
(ties count for neither side) and a verdict, the first that holds of:

    worse       the change's median is worse than the parent's by more than
                the metric's bound, a share of the parent's median
    gain        the change wins at least 9 pairs in 10 and its median is
                better by more than the parent's interquartile range
    unresolved  either side's interquartile range is wider than the bound,
                relative to its median, and some change run is not better
                than every parent run
    same        otherwise, for a metric with a bound; `-` for one without

Quartiles are `statistics.quantiles(..., n=4, method="inclusive")`, so
they stay within the runs. `--out FILE` writes every run as JSON,
`{"command", "note", "runs"}` with each run's side, commit, workload,
trace, pair, info line and result line, as the repository's BENCH_*.json
files hold them; the info line's `package_file` is given relative to the
run's checkout, and its `environment.executable` by file name.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path

GAIN_SHARE = 0.9  # of the pairs, that the change must win for a gain


def _bench_files(checkout: Path) -> dict[str, bytes]:
    """The files that decide what the benchmark runs, by path in the checkout."""
    paths = [checkout / "BENCHMARK.json", *(checkout / "perfbench").rglob("*")]
    return {path.relative_to(checkout).as_posix(): path.read_bytes() for path in paths
            if path.is_file() and "__pycache__" not in path.parts}


def _commit(checkout: Path) -> str:
    """The checkout's abbreviated commit, marked `-dirty` when it has edits,
    or its directory name outside git."""
    described = subprocess.run(["git", "describe", "--always", "--dirty", "--abbrev=7",
                                "--exclude=*"], cwd=checkout, capture_output=True, text=True)
    return described.stdout.strip() or checkout.resolve().name


def _run(checkout: Path, command: list[str], side: str, pair: int) -> dict:
    done = subprocess.run(command, cwd=checkout, capture_output=True, text=True)
    lines = done.stdout.splitlines()
    if done.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"ab: the {side} run of pair {pair} exited {done.returncode}:\n"
                         f"{done.stderr}")
    info = json.loads(lines[-2])["info"]
    # where the checkout and the interpreter lie says nothing about the run
    info["package_file"] = Path(info["package_file"]).resolve().relative_to(
        checkout.resolve()).as_posix()
    info["environment"]["executable"] = Path(info["environment"]["executable"]).name
    return {"info": info, "result": json.loads(lines[-1])}


def _spread(values: list[float]) -> float:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return (q3 - q1) / abs(median) if median else (0.0 if q3 == q1 else math.inf)


def summarize(parent: list[float], change: list[float], better: str,
              bound: float | None) -> dict:
    """Compare one metric's runs, given pair by pair in the same order."""
    q1, median, q3 = statistics.quantiles(parent, n=4, method="inclusive")
    change_median = statistics.median(change)
    sign = 1 if better == "lower" else -1  # sign * (a - b) < 0: a is better than b
    wins = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
    worse_by = sign * (change_median - median)
    if bound is not None and worse_by > bound * abs(median):
        verdict = "worse"
    elif wins >= GAIN_SHARE * len(parent) and -worse_by > q3 - q1:
        verdict = "gain"
    elif bound is None:
        verdict = "-"
    elif (max(_spread(parent), _spread(change)) > bound
          and not all(sign * (c - p) < 0 for c in change for p in parent)):
        verdict = "unresolved"
    else:
        verdict = "same"
    return {"parent_median": median, "parent_q1": q1, "parent_q3": q3,
            "change_median": change_median,
            "ratio": change_median / median if median else math.nan,
            "wins": wins, "pairs": len(parent), "verdict": verdict}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True, help="the parent's checkout")
    parser.add_argument("--change", type=Path, required=True, help="the change's checkout")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, help="run length (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="pass --smoke on to each run")
    parser.add_argument("--out", type=Path, help="write every run to this JSON file")
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2, to give quartiles")
    sides = {"parent": args.parent, "change": args.change}
    files = {side: _bench_files(path) for side, path in sides.items()}
    differ = sorted(name for name in files["parent"].keys() | files["change"].keys()
                    if files["parent"].get(name) != files["change"].get(name))
    if differ:
        print(f"ab: the checkouts' benchmark files differ: {', '.join(differ)}", file=sys.stderr)
        return 1

    spec = json.loads(files["parent"]["BENCHMARK.json"])
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    command = [*spec["command"], "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", f"{seconds:g}", "--trace", str(args.trace),
               *(["--smoke"] if args.smoke else [])]
    commits = {side: _commit(path) for side, path in sides.items()}
    print(f"command: {' '.join(command)}\nparent: {commits['parent']}\n"
          f"change: {commits['change']}", flush=True)
    runs = []
    for pair in range(1, args.pairs + 1):
        for side in ("parent", "change") if pair % 2 else ("change", "parent"):
            run = {"side": side, "commit": commits[side], "workload": args.workload,
                   "trace": args.trace, "pair": pair,
                   **_run(sides[side], command, side, pair)}
            runs.append(run)
            result = run["result"]
            print(f"pair={pair} side={side} correct={json.dumps(result['correct'])} "
                  f"failed={result['failed']} attempted={result['attempted']}", flush=True)

    print(f"{'metric':<38} {'parent median [q1, q3]':<30} {'change':>10} {'ratio':>7} "
          f"{'wins':>7}  verdict")
    for metric in spec["per_layer" if args.trace else "end_to_end"]:
        values = {side: [run["result"]["metrics"][metric["name"]]["value"]
                         for run in runs if run["side"] == side] for side in sides}
        row = summarize(values["parent"], values["change"], metric["better"],
                        metric.get("bound"))
        parent = f"{row['parent_median']:.4g} [{row['parent_q1']:.4g}, {row['parent_q3']:.4g}]"
        print(f"{metric['name']:<38} {parent:<30} {row['change_median']:>10.4g} "
              f"{row['ratio']:>7.3f} {row['wins']:>3}/{row['pairs']:<3}  {row['verdict']}")

    if args.out:
        note = (f"every run of {args.pairs} alternating pairs from tools/ab.py, in the order "
                f"run: the parent first in odd pairs and the change first in even ones, one "
                f"run at a time from two checkouts with identical perfbench/ files and "
                f"BENCHMARK.json; parent = {commits['parent']}, change = {commits['change']}")
        args.out.write_text(json.dumps({"command": " ".join(command), "note": note,
                                        "runs": runs}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
