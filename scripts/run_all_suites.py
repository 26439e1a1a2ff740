#!/usr/bin/env python3
"""Run every verification suite and write JSON + markdown reports.

Usage: python scripts/run_all_suites.py [seed] [outdir]

An argument past the output directory, a seed that is not an integer
(-?[0-9]+), an output directory that cannot be created, or a report file that
cannot be written is reported on one line with exit code 2.
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from tensorcomplex.cli import integer  # noqa: E402
from tensorcomplex.suites import SUITE_NAMES, SuiteConfig, run_suite  # noqa: E402


def main() -> int:
    if len(sys.argv) > 3:
        print(f"run_all_suites.py: unexpected argument {sys.argv[3]!r}", file=sys.stderr)
        return 2
    try:
        seed = integer(sys.argv[1]) if len(sys.argv) > 1 else 7
    except ValueError:
        print(f"run_all_suites.py: seed must be an integer, got {sys.argv[1]!r}", file=sys.stderr)
        return 2
    outdir = Path(sys.argv[2]) if len(sys.argv) > 2 else Path("reports")
    try:
        outdir.mkdir(parents=True, exist_ok=True)
    except OSError as err:
        print(f"run_all_suites.py: cannot create {outdir}: {err.strerror}", file=sys.stderr)
        return 2

    failures = 0
    for suite in SUITE_NAMES:
        cfg = SuiteConfig(suite=suite, seed=seed)
        t0 = time.monotonic()
        report = run_suite(cfg)
        elapsed = time.monotonic() - t0
        for path, text in ((outdir / f"{suite}.json", report.to_json()), (outdir / f"{suite}.md", report.to_markdown())):
            try:
                path.write_text(text, encoding="utf-8")
            except OSError as err:
                print(f"run_all_suites.py: cannot write {path}: {err.strerror}", file=sys.stderr)
                return 2
        s = report.counts
        failures += s["fail"] + s["error"]
        print(
            f"{suite:20s} {s['pass']:3d} pass {s['fail']:2d} fail {s['error']:2d} error"
            f"   ({elapsed:5.1f}s)"
        )
    print(f"reports written to {outdir}/")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
