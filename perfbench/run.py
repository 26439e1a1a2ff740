"""Time-to-verdict benchmark for tensorcomplex.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Each workload run is a fresh interpreter (child.py) that imports the library,
runs the workload's suites through ``suites.run_suite`` and serialises the
reports. Runs go one at a time: a closed loop with one client. The metric
names, units and workloads are those of BENCHMARK.json at the repository root.

``--trace 0`` measures the end-to-end metrics. It alternates set-up-only runs
with full runs until the next pair would end after ``--seconds``, runs at least
one full run and enough set-up runs to have MIN_SETUPS set-up times, and
reports medians. Each printed metric carries its sample count n. Run times are
given in thousands of reference loops timed inside the same run (see
child.ReferenceTimer) and, for people, in plain seconds.

``--trace 1`` makes four full runs, traced and untraced in turn, and reports
the per-layer metrics of the two traced runs (median times; counts and ratios,
which must be equal in both) and the tracing overhead against the untraced
runs.

Every run is checked: every case must pass, every run's report bytes must equal
the first run's, the two traced runs must give equal counts, and for a seed
listed in BASELINE.json the reports must hash to the recorded digest. Any
difference sets ``correct`` to false and the exit code to 1. The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MIN_SETUPS = 5
NOMINAL_REFERENCE_MS = 1.0  # setup_s is given in seconds on a host where one reference loop takes this long
# Raw timings, printed for people; too host-dependent for BENCHMARK.json on a shared host.
PRINTED_ONLY = {"setup_wall_s": "s", "verdict_s": "s", "cpu_s": "s", "checks_per_s": "1/s", "reference_ms": "ms"}
TIME_LIMIT_S = 170.0  # a run must end within 180 s


class BenchError(RuntimeError):
    """The benchmark could not run; no result is printed."""


def spawn(workload: str, seed: int, mode: str, started: float) -> tuple[float, dict]:
    """Run child.py once; return the clock reading just before the start, and its output."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload, "--seed", str(seed), "--mode", mode]
    timeout = max(1.0, TIME_LIMIT_S - (time.perf_counter() - started))
    t_spawn = time.perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as err:
        raise BenchError(f"{workload} {mode} run did not end within {timeout:.0f} s") from err
    if proc.returncode != 0:
        raise BenchError(f"{workload} {mode} run exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return t_spawn, json.loads(proc.stdout.splitlines()[-1])


class Verdicts:
    """Compares every run's reports with the first run's and with the recorded digest."""

    def __init__(self, workload: str, seed: int, digests: dict):
        self.expected_digest = digests.get(str(seed), {}).get(workload)
        self.reference: list[dict] | None = None
        self.digest = ""
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def add(self, reports: list[str]) -> None:
        cases = [case for text in reports for case in json.loads(text)["cases"]]
        digest = hashlib.sha256("".join(reports).encode()).hexdigest()
        if self.reference is None:
            self.reference, self.digest = cases, digest
        self.attempted += len(cases)
        if self.expected_digest not in (None, digest):
            self.problems.append(f"report digest {digest} differs from the recorded {self.expected_digest}")
            self.failed += len(cases)
            return
        bad = sum(
            1
            for i, case in enumerate(cases)
            if case["status"] != "pass" or i >= len(self.reference) or case != self.reference[i]
        )
        bad += max(0, len(self.reference) - len(cases))
        if bad:
            self.problems.append(f"{bad} cases failed or differ from the first run")
        self.failed += bad


def reference_ms(workload: str, out: dict) -> float:
    """Mean milliseconds of one reference loop in a child's run."""
    if not out["reference_samples"]:
        raise BenchError(f"{workload} ended before the reference loop was timed once")
    return out["reference_s"] / out["reference_samples"] * 1000


def measure(workload: str, seed: int, seconds: float, verdicts: Verdicts) -> dict[str, tuple[float, int]]:
    """End-to-end metrics as {name: (median, sample count)}."""
    started = time.perf_counter()
    spawn(workload, seed, "setup", started)  # warm-up: byte-compiles the library, fills the file cache
    setups: list[tuple[float, float]] = []  # (wall seconds, reference ms)

    def setup_run():
        t, out = spawn(workload, seed, "setup", started)
        setups.append((out["t_first"] - t, reference_ms(workload, out)))

    full: list[dict] = []
    while True:
        setup_run()
        t, out = spawn(workload, seed, "full", started)
        verdicts.add(out["reports"])
        kref = reference_ms(workload, out)  # also seconds per 1000 reference loops
        setups.append((out["t_first"] - t, kref))
        work_s = out["t_end"] - t - out["reference_s"]
        full.append(
            {
                "verdict_kref": work_s / kref,
                "checks_per_kref": out["checks"] / ((out["t_end"] - out["t_first"] - out["reference_s"]) / kref),
                "peak_rss_mb": out["peak_rss_mb"],
                "verdict_s": work_s,
                "cpu_s": out["cpu_s"] - out["reference_s"],
                "checks_per_s": out["checks"] / (out["t_end"] - out["t_first"] - out["reference_s"]),
                "reference_ms": kref,
            }
        )
        next_pair = median(r["verdict_s"] for r in full) + median(wall for wall, _ in setups)
        if time.perf_counter() - started + next_pair > seconds:
            break
    while len(setups) < MIN_SETUPS:
        setup_run()
    setup_s = [wall * NOMINAL_REFERENCE_MS / ref for wall, ref in setups]
    for name in ("verdict_s", "verdict_kref"):
        print(f"{workload}: every run: {name} {' '.join(f'{r[name]:.4f}' for r in full)}")
    print(f"{workload}: every run: setup_wall_s {' '.join(f'{wall:.4f}' for wall, _ in setups)}")
    print(f"{workload}: every run: setup_s {' '.join(f'{s:.4f}' for s in setup_s)}")
    metrics = {"setup_s": (median(setup_s), len(setups)), "setup_wall_s": (median(w for w, _ in setups), len(setups))}
    for name in full[0]:
        metrics[name] = (median(r[name] for r in full), len(full))
    return metrics


def measure_traced(workload: str, seed: int, per_layer: list[dict], verdicts: Verdicts):
    """Per-layer metrics as {name: (value, sample count)}, plus notes for the output."""
    started = time.perf_counter()
    spawn(workload, seed, "setup", started)
    runs: dict[str, list[dict]] = {"traced": [], "full": []}
    for mode in ("traced", "full", "traced", "full"):
        t, out = spawn(workload, seed, mode, started)
        verdicts.add(out["reports"])
        out["verdict_s"] = out["t_end"] - t - out["reference_s"]
        runs[mode].append(out)
    first, second = (r["layers"] for r in runs["traced"])
    untraced = median(r["verdict_s"] for r in runs["full"])
    metrics = {"trace.overhead_frac": ((median(r["verdict_s"] for r in runs["traced"]) - untraced) / untraced, 2)}
    for spec in per_layer:
        name = spec["name"]
        if name in metrics:
            continue
        if name not in first:
            raise BenchError(f"the traced run produced no metric {name}")
        if spec["unit"] == "s":
            metrics[name] = (median([first[name], second[name]]), 2)
            continue
        if first[name] != second[name]:  # counts and ratios depend only on the inputs
            verdicts.problems.append(f"{name} differs between traced runs: {first[name]} vs {second[name]}")
        metrics[name] = (first[name], 2)
    cases_per_call = [r["cases_per_call"] for r in runs["traced"]]
    if cases_per_call[0] != cases_per_call[1]:
        verdicts.problems.append("cases per verify call differ between traced runs")
    notes = ["suites.case_s is timed per public verify call, not per case"]
    notes += [f"{fn} covers {n} cases in one call" for fn, n in sorted(cases_per_call[0].items()) if n > 1]
    return metrics, notes


def run_workload(workload: str, seed: int, seconds: float, trace: bool, spec: dict, digests: dict):
    verdicts = Verdicts(workload, seed, digests)
    if trace:
        values, notes = measure_traced(workload, seed, spec["per_layer"], verdicts)
        wanted = spec["per_layer"]
    else:
        values = measure(workload, seed, seconds, verdicts)
        notes = []
        wanted = spec["end_to_end"]
    print(f"{workload}: seed {seed}, {verdicts.attempted} cases attempted, {verdicts.failed} failed")
    print(f"{workload}: report_sha256 {verdicts.digest}")
    print(f"{workload}: failed_case_frac {verdicts.failed / verdicts.attempted} ratio")
    units = {**PRINTED_ONLY, **{m["name"]: m["unit"] for m in wanted}}
    for name, (value, n) in values.items():
        print(f"{workload}: {name} {value:.6g} {units[name]} (n={n})")
    for note in notes:
        print(f"{workload}: note: {note}")
    for problem in verdicts.problems:
        print(f"{workload}: INCORRECT: {problem}", file=sys.stderr)
    metrics = {m["name"]: {"value": values[m["name"]][0], "unit": m["unit"]} for m in wanted}
    return not verdicts.problems, verdicts.attempted, verdicts.failed, metrics


def main(argv=None) -> int:
    if not (ROOT / "src" / "tensorcomplex" / "__init__.py").is_file() or not (ROOT / "BENCHMARK.json").is_file():
        print(f"error: {ROOT} needs src/tensorcomplex/ and BENCHMARK.json", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=names + ["all"])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, default=0, choices=[0, 1])
    args = parser.parse_args(argv)
    baseline = HERE / "BASELINE.json"
    digests = json.loads(baseline.read_text()).get("report_sha256", {}) if baseline.is_file() else {}

    workloads = names if args.workload == "all" else [args.workload]
    correct, attempted, failed, metrics = True, 0, 0, {}
    try:
        for workload in workloads:
            ok, n, bad, values = run_workload(workload, args.seed, args.seconds, bool(args.trace), spec, digests)
            correct, attempted, failed = correct and ok, attempted + n, failed + bad
            if args.workload == "all":
                values = {f"{workload}.{k}": v for k, v in values.items()}
            metrics.update(values)
    except BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
