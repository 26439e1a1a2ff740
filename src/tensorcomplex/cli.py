"""Command-line runner for the verification suites.

Exit codes: 0 all cases pass, 1 any case fails or errors, 2 bad usage/config,
an unwritable --out path or a failed write of the output.
The default seed comes from TENSORCOMPLEX_SEED when set.  Every integer, in a
flag or in that variable, is read only as -?[0-9]+.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from contextlib import AbstractContextManager, nullcontext
from typing import TextIO

from . import diagram
from .suites import SUITE_NAMES, SuiteConfig, check_config, run_suite


_INTEGER = re.compile(r"-?[0-9]+")


def integer(text: str) -> int:
    """The integer written -?[0-9]+, the form field text uses; ValueError on any
    other text, such as 1_0, +7, " 7 " or non-ASCII digits, which int() reads."""
    if not _INTEGER.fullmatch(text):
        raise ValueError(f"not an integer: {text!r}")
    return int(text)


def _default_seed(parser: argparse.ArgumentParser) -> int:
    raw = os.environ.get("TENSORCOMPLEX_SEED", "0")
    try:
        return integer(raw)
    except ValueError:
        parser.error(f"TENSORCOMPLEX_SEED must be an integer, got {raw!r}")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="tensorcomplex", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a verification suite")
    run.add_argument("--suite", default="all", choices=list(SUITE_NAMES) + ["all"])
    run.add_argument("--seed", type=integer, default=None, help="64-bit seed (default: TENSORCOMPLEX_SEED or 0)")
    run.add_argument("--degree", type=integer, default=3)
    run.add_argument("--samples", type=integer, default=10)
    run.add_argument("--format", default="json", choices=["json", "markdown"])
    run.add_argument("--strict-preconditions", action="store_true")
    run.add_argument("--timings", action="store_true", help="include per-case timings (breaks byte-determinism)")
    run.add_argument("--out", default=None, help="write the report to this path instead of stdout")

    dump = sub.add_parser("dump-diagram", help="emit the space/operator diagram")
    dump.add_argument("--flavor", default="with-bc", choices=["with-bc", "no-bc"])
    dump.add_argument("--format", default="json", choices=["json", "markdown"])
    dump.add_argument("--out", default=None)
    return parser


def _open_out(out: str | None) -> AbstractContextManager[TextIO] | None:
    """The stream to write to, UTF-8 whatever the locale: `out`, opened before any work, or stdout.
    An unwritable path is reported on one line and gives None."""
    if not out:
        if reconfigure := getattr(sys.stdout, "reconfigure", None):
            reconfigure(encoding="utf-8")
        return nullcontext(sys.stdout)
    try:
        return open(out, "w", encoding="utf-8")
    except OSError as err:
        print(f"error: cannot write {out}: {err.strerror}", file=sys.stderr)
        return None


def _write(stream: AbstractContextManager[TextIO], out: str | None, text: str) -> int:
    """Write, flush and close: 0, or 2 after one line when the write fails (a full disk, say)."""
    try:
        with stream as fh:
            fh.write(text)
            fh.flush()
    except OSError as err:
        print(f"error: cannot write {out or 'stdout'}: {err.strerror}", file=sys.stderr)
        return 2
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)

    if args.command == "dump-diagram":
        stream = _open_out(args.out)
        if stream is None:
            return 2
        if args.format == "json":
            import json

            text = json.dumps(diagram.to_dict(args.flavor), indent=2, sort_keys=True)
        else:
            text = diagram.to_markdown(args.flavor)
        return _write(stream, args.out, text + "\n")

    cfg = SuiteConfig(
        suite=args.suite,
        seed=args.seed if args.seed is not None else _default_seed(parser),
        degree=args.degree,
        samples=args.samples,
        format=args.format,
        strict_preconditions=args.strict_preconditions,
        timings=args.timings,
    )
    try:
        check_config(cfg)  # before --out is opened, so a bad config leaves no file behind
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    stream = _open_out(args.out)
    if stream is None:
        return 2
    report = run_suite(cfg)
    code = _write(stream, args.out, report.to_json() if cfg.format == "json" else report.to_markdown())
    return code or (0 if report.all_passed else 1)


if __name__ == "__main__":
    sys.exit(main())
