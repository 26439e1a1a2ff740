#!/usr/bin/env python3
"""Compare two trees on one benchmark workload by alternating paired runs.

Usage: python scripts/bench_pairs.py PARENT CHANGE --workload W --pairs N --seconds S --seed K

PARENT and CHANGE are checkouts of this repository.  Each pair runs
`perfbench/run.py --workload W --seed K --seconds S` once in each tree, with
that tree's own perfbench/ and source; PARENT runs first in even pairs and
CHANGE in odd ones, so a drift of the host's speed falls on both sides alike.
The last line of a run is its result line, the JSON object run.py prints.  The
script stops at the first run whose result line reads `correct: false` or that
ends without one (exit code 1).  Then, for each end-to-end metric of CHANGE's
BENCHMARK.json, it prints both sides' median and Q1-Q3 and how many pairs
CHANGE won in that metric's `better` direction (a tie is no win).
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from statistics import median, quantiles


class BenchPairsError(RuntimeError):
    """A run failed, or its result line is missing or reads `correct: false`."""


def read_result(line: str) -> dict:
    """The metrics {name: value} of one result line; BenchPairsError unless it reads `correct: true`."""
    try:
        result = json.loads(line)
    except json.JSONDecodeError:
        raise BenchPairsError(f"not a result line: {line[:200]!r}") from None
    if not isinstance(result, dict) or result.get("correct") is not True:
        raise BenchPairsError(f"run is not correct: {line[:200]}")
    return {name: metric["value"] for name, metric in result["metrics"].items()}


def _spread(values: list[float]) -> str:
    q1, _, q3 = quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    return f"{median(values):.6g} [{q1:.6g}, {q3:.6g}]"


def summarize(end_to_end: list[dict], parent_lines: list[str], change_lines: list[str]) -> list[str]:
    """One line per end-to-end metric: both sides' median [Q1, Q3] over the paired runs, and how many pairs
    CHANGE won.  The i-th lines of the two lists are one pair."""
    if len(parent_lines) != len(change_lines) or not parent_lines:
        raise BenchPairsError(f"need equal, nonzero run counts, got {len(parent_lines)} and {len(change_lines)}")
    parent = [read_result(line) for line in parent_lines]
    change = [read_result(line) for line in change_lines]
    out = [f"{'metric':<16} {'better':<6}  {'parent median [Q1, Q3]':<30}  {'change median [Q1, Q3]':<30}  won"]
    for spec in end_to_end:
        name, sign = spec["name"], 1 if spec["better"] == "higher" else -1
        before, after = [run[name] for run in parent], [run[name] for run in change]
        won = sum(sign * (b - a) > 0 for a, b in zip(before, after))
        out.append(f"{name:<16} {spec['better']:<6}  {_spread(before):<30}  {_spread(after):<30}  "
                   f"{won}/{len(before)}")
    return out


def run_tree(tree: Path, workload: str, seed: int, seconds: float) -> str:
    """The result line of one benchmark run in `tree`; BenchPairsError unless it reads `correct: true`."""
    cmd = [sys.executable, str(tree / "perfbench" / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds)]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchPairsError(f"{tree}: no result line, exit {proc.returncode}:\n{proc.stderr[-2000:]}")
    read_result(lines[-1])
    if proc.returncode != 0:
        raise BenchPairsError(f"{tree}: exit {proc.returncode}:\n{proc.stderr[-2000:]}")
    return lines[-1]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, help="run length (default: BENCHMARK.json's run_seconds)")
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args(argv)
    benchmark = json.loads((args.change / "BENCHMARK.json").read_text())
    end_to_end = benchmark["end_to_end"]
    seconds = benchmark["run_seconds"] if args.seconds is None else args.seconds
    sides = {"parent": (args.parent.resolve(), []), "change": (args.change.resolve(), [])}
    try:
        for i in range(args.pairs):
            for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
                tree, lines = sides[side]
                lines.append(run_tree(tree, args.workload, args.seed, seconds))
                values = read_result(lines[-1])
                shown = " ".join(f"{spec['name']} {values[spec['name']]:.6g}" for spec in end_to_end)
                print(f"pair {i + 1}/{args.pairs} {side}: {shown}", file=sys.stderr, flush=True)
        summary = summarize(end_to_end, sides["parent"][1], sides["change"][1])
    except BenchPairsError as err:
        print(f"bench_pairs.py: {err}", file=sys.stderr)
        return 1
    print(f"{args.workload}, seed {args.seed}, {args.pairs} alternating pairs of {seconds:g} s runs")
    print("\n".join(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
