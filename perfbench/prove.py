"""Check that the benchmark is steady, and record its baseline.

    python3 perfbench/prove.py [--seeds 1-10] [--workloads a,b] [--record]

Runs ``run.py --trace 0`` once per workload and seed, one run at a time, and
prints for each end-to-end metric the median, the quartiles and the spread
(Q3 - Q1) / median next to the metric's bound from BENCHMARK.json. A spread
above a third of its bound is flagged; ``setup_s`` is exempt from the spread
rule but listed.

``--record`` also runs the held-out seed and ``--trace 1`` on seeds 7 and the
held-out seed, then writes BASELINE.json beside this file: the host, the
medians, every run's values, the per-layer metrics and the report digests that
run.py checks on those seeds.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEFAULT_SEED = 7
HELD_OUT_SEED = 11  # never used while tuning the benchmark


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def bench(workload: str, seed: int, trace: int) -> tuple[dict, str]:
    """One run.py invocation; returns its result object and report digest."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stdout}\n{proc.stderr}")
    digest = next(ln.split()[-1] for ln in lines if " report_sha256 " in ln)
    return json.loads(lines[-1]), digest


def spread(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0}


def host() -> dict:
    cpu = "unknown"
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.is_file():
        cpu = next((ln.split(":", 1)[1].strip() for ln in cpuinfo.read_text().splitlines()
                    if ln.startswith("model name")), cpu)
    return {"python": platform.python_version(), "nproc": os.cpu_count(), "cpu_model": cpu,
            "platform": platform.platform()}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10", type=parse_seeds)
    parser.add_argument("--workloads", default=",".join(names), type=lambda s: s.split(","))
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args(argv)

    runs: dict[str, list[dict]] = {w: [] for w in args.workloads}
    for seed in args.seeds:  # seeds outermost, so slow spells of the host spread over workloads
        for w in args.workloads:
            result, _ = bench(w, seed, 0)
            values = {m: v["value"] for m, v in result["metrics"].items()}
            runs[w].append({"seed": seed, **values})
            print(f"seed {seed} {w}: " + " ".join(f"{m}={v:.4g}" for m, v in values.items()), flush=True)

    steady = True
    summary: dict[str, dict] = {}
    for w in args.workloads:
        summary[w] = {}
        for m in spec["end_to_end"]:
            st = spread([r[m["name"]] for r in runs[w]])
            summary[w][m["name"]] = st
            flag = "ok" if st["spread"] <= m["bound"] / 3 else ("exempt" if m["name"] == "setup_s" else "WIDE")
            steady = steady and flag != "WIDE"
            print(f"{w:12s} {m['name']:14s} median {st['median']:.5g} {m['unit']:5s} "
                  f"q1 {st['q1']:.5g} q3 {st['q3']:.5g} spread {st['spread']:.3f} "
                  f"(bound {m['bound']}, third {m['bound'] / 3:.3f}) {flag}")

    if args.record:
        baseline = {"host": host(), "run_seconds": spec["run_seconds"], "seed": DEFAULT_SEED,
                    "held_out_seed": HELD_OUT_SEED, "spread_seeds": args.seeds, "workloads": {},
                    "report_sha256": {}}
        for w in args.workloads:
            held_out, _ = bench(w, HELD_OUT_SEED, 0)
            entry = {
                "why": next(x["why"] for x in spec["workloads"] if x["name"] == w),
                "end_to_end": summary[w],
                "end_to_end_held_out_seed": {m: v["value"] for m, v in held_out["metrics"].items()},
                "runs": runs[w],
                "per_layer": {},
            }
            for seed in (DEFAULT_SEED, HELD_OUT_SEED):
                traced, digest = bench(w, seed, 1)
                entry["per_layer"][str(seed)] = {m: v["value"] for m, v in traced["metrics"].items()}
                baseline["report_sha256"].setdefault(str(seed), {})[w] = digest
            baseline["workloads"][w] = entry
        (HERE / "BASELINE.json").write_text(json.dumps(baseline, indent=2, sort_keys=True) + "\n")
        print(f"wrote {HERE / 'BASELINE.json'}")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
