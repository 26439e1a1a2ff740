"""One workload run in a fresh interpreter, started by run.py.

    python3 perfbench/child.py --workload NAME --seed N --mode {setup,full,traced}

Prints one JSON object on stdout. Times are ``time.perf_counter`` readings,
which on Linux come from the system-wide monotonic clock, so the parent can
subtract the moment it started this process.

- ``setup``: import the library and fill the kernel cache the workload uses,
  then stop. ``t_first`` is the moment the first case would start; the
  reference loop is then timed REFERENCE_REPEATS times.
- ``full``: the same, then run every suite of the workload and serialise its
  report. ``t_end`` is the moment the last report is serialised. Meanwhile a
  timer times a fixed reference loop REFERENCE_HZ times a second, so the parent
  can express the run in units of that loop and take out the host's speed swings.
- ``traced``: ``full`` with the layer tracer installed instead of the reference
  timer, plus per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import resource
import signal
import sys
import time
from fractions import Fraction
from typing import NamedTuple

SAMPLES = 10
REFERENCE_HZ = 20
REFERENCE_REPEATS = 20

# Cases that check one closed form instead of drawing SAMPLES inputs.
SINGLE_SHOT_CASES = frozenset(
    {
        "unit ball volume = 4/3*pi",
        "integral of x1^2 = 4/15*pi",
        "negative control: constant vs P1 detected",
        "Ddd(1) = x x^T / 12, div div = 1",
    }
)


def reference_loop() -> dict:
    """Fixed pure-Python work like the library's: Fraction sums stored by monomial."""
    terms = {}
    total = Fraction(0)
    for i in range(1, 250):
        total += Fraction(i % 7 - 3, i % 11 + 1)
        terms[(i, i % 5, 0)] = total
    return terms


class ReferenceTimer:
    """Times reference_loop: on SIGALRM while the workload runs, or on direct tick() calls.

    The host's speed swings by up to 2x within a minute; the loop, timed on the
    same core at the same moments, swings with it.
    """

    def __init__(self):
        self.seconds = 0.0
        self.samples = 0

    def tick(self, *_signal_args):
        t0 = time.perf_counter()
        reference_loop()
        self.seconds += time.perf_counter() - t0
        self.samples += 1

    def start(self):
        signal.signal(signal.SIGALRM, self.tick)
        signal.setitimer(signal.ITIMER_REAL, 1 / REFERENCE_HZ, 1 / REFERENCE_HZ)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)


class Workload(NamedTuple):
    degree: int
    suites: tuple[str, ...]


WORKLOADS = {
    "pairings-d3": Workload(3, ("pairings",)),
    "chains-d3": Workload(3, ("right-inverses", "decompositions")),
    "diagram-d4": Workload(4, ("identities", "cells", "two-complex", "derived-complexes")),
}


def fill_kernel_cache(workload: Workload) -> None:
    """Build every kernel basis the right-inverse suite samples from.

    CLI users pay this on every run, so it belongs to set-up time.
    """
    if "right-inverses" not in workload.suites:
        return
    from tensorcomplex import koszul

    for spec in koszul.RIGHT_INVERSES.values():
        if spec.kernel_ops:
            koszul.kernel_basis(spec.kernel_ops, spec.input_kind, workload.degree)


def run(workload_name: str, seed: int, mode: str) -> dict:
    workload = WORKLOADS[workload_name]
    from tensorcomplex import suites

    tracer = None
    reference = ReferenceTimer()
    if mode == "traced":
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    try:
        fill_kernel_cache(workload)
        t_first = time.perf_counter()
        if mode == "setup":
            for _ in range(REFERENCE_REPEATS):
                reference.tick()
            return {"t_first": t_first, "reference_s": reference.seconds, "reference_samples": reference.samples}
        if mode == "full":
            reference.start()
        reports, checks = [], 0
        for suite in workload.suites:
            cfg = suites.SuiteConfig(suite=suite, seed=seed, degree=workload.degree, samples=SAMPLES)
            report = suites.run_suite(cfg)
            checks += sum(1 if c.name in SINGLE_SHOT_CASES else SAMPLES for c in report.cases)
            reports.append(report.to_json())
        reference.stop()
        t_end = time.perf_counter()
        cpu_s = time.process_time()
    finally:
        reference.stop()
        if tracer is not None:
            tracer.restore()
    out = {
        "t_first": t_first,
        "t_end": t_end,
        "cpu_s": cpu_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "checks": checks,
        "reports": reports,
        "reference_s": reference.seconds,
        "reference_samples": reference.samples,
    }
    if tracer is not None:
        out["layers"] = tracer.metrics()
        out["cases_per_call"] = tracer.cases_per_call
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", required=True, choices=["setup", "full", "traced"])
    args = parser.parse_args(argv)
    json.dump(run(args.workload, args.seed, args.mode), sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
