"""Command-line front end: the verification suites, the diagram and the regular decompositions.

Exit codes: 0 all cases pass or the reconstruction is exact; 1 any case fails or errors, the
reconstruction is not exact or a step inside a decomposition chain breaks its kind or its lemma;
2 bad usage, config or input, an unwritable --out path, a closed stdout or stdin or a failed write of
the output, each reported on one line.
The default seed comes from TENSORCOMPLEX_SEED when set.  Every integer, in a
flag or in that variable, is read only as -?[0-9]+.
"""

from __future__ import annotations

import argparse
import errno
import os
import re
import sys
from contextlib import AbstractContextManager, nullcontext
from pathlib import Path
from typing import TextIO

from . import diagram
from .fields import KindError, field_from_text
from .poly import ExponentLimitError
from .suites import SUITE_NAMES, SuiteConfig, check_config, run_suite


_INTEGER = re.compile(r"-?[0-9]+")
_CLOSED = os.strerror(errno.EBADF)  # the reason given for a standard stream closed at start-up


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

    dec = sub.add_parser("decompose", help="print the parts of a regular decomposition of a field")
    dec.add_argument("name", nargs="?", metavar="NAME", help="the decomposition (a bad or missing one lists them)")
    dec.add_argument("file", nargs="?", metavar="FILE", help="field text, UTF-8 (default: stdin)")
    return parser


def _error(message: str, code: int = 2) -> int:
    """Report one line on stderr, unless it is closed, and give the exit code."""
    if sys.stderr is not None:
        print(f"error: {message}", file=sys.stderr)
    return code


def _open_out(out: str | None) -> AbstractContextManager[TextIO] | None:
    """The stream to write to, UTF-8 whatever the locale: `out`, opened before any work, or stdout.
    An unwritable path or a closed stdout is reported on one line and gives None."""
    if not out:
        if sys.stdout is None:
            _error(f"cannot write stdout: {_CLOSED}")
            return None
        if reconfigure := getattr(sys.stdout, "reconfigure", None):
            reconfigure(encoding="utf-8")
        return nullcontext(sys.stdout)
    try:
        return open(out, "w", encoding="utf-8")
    except OSError as err:
        _error(f"cannot write {out}: {err.strerror}")
        return None


def _write(stream: AbstractContextManager[TextIO], out: str | None, text: str) -> int:
    """Write, flush and close: 0, or 2 after one line when the write fails (a full disk, say)."""
    try:
        with stream as fh:
            fh.write(text)
            fh.flush()
    except OSError as err:
        return _error(f"cannot write {out or 'stdout'}: {err.strerror}")
    return 0


def _read_text(path: str | None) -> str | None:
    """The text of `path`, or of stdin, as strict UTF-8 with a leading byte-order mark dropped;
    None after one line when it cannot be read."""
    source = "stdin" if path is None else path
    try:
        if path is None and sys.stdin is None:
            raise OSError(errno.EBADF, _CLOSED)
        data = sys.stdin.buffer.read() if path is None else Path(path).read_bytes()
        return data.decode("utf-8-sig")
    except OSError as err:
        _error(f"cannot read {source}: {err.strerror}")
    except UnicodeDecodeError as err:  # err.object is what follows a dropped mark
        _error(f"cannot read {source}: not UTF-8 text (byte {err.start + len(data) - len(err.object)})")
    return None


def _decompose(name: str | None, path: str | None) -> int:
    """Print the parts of the named decomposition of the field read from `path`, or stdin, and whether they
    sum back to it exactly."""
    from .decompose import _DECOMPOSERS, DECOMPOSITION_NAMES, decompose

    if name not in DECOMPOSITION_NAMES:
        what = "missing decomposition name" if name is None else f"unknown decomposition {name!r}"
        return _error(f"{what} (one of {', '.join(DECOMPOSITION_NAMES)})")
    stream = _open_out(None)
    if stream is None:
        return 2
    text = _read_text(path)
    if text is None:
        return 2
    try:
        field = field_from_text(text)
    except ValueError as err:
        return _error(f"bad field text: {err}")
    kind = _DECOMPOSERS[name].input_kind
    if field.kind is not kind:
        return _error(f"regdec {name} needs a {kind.value} field, got a {field.kind.value} field")
    try:
        dec = decompose(name, field)
    except KindError as err:  # a broken operator, not bad input
        return _error(f"decomposition failed: {err}", 1)
    except ExponentLimitError as err:
        return _error(f"cannot decompose this field: {err}")
    code = _write(stream, None, f"{dec.to_text()}\n\nexact reconstruction: {dec.is_exact}\n")
    return code or (0 if dec.is_exact else 1)


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)

    if args.command == "decompose":
        return _decompose(args.name, args.file)

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
        return _error(str(err))
    stream = _open_out(args.out)
    if stream is None:
        return 2
    report = run_suite(cfg)
    code = _write(stream, args.out, report.to_json() if cfg.format == "json" else report.to_markdown())
    return code or (0 if report.all_passed else 1)


if __name__ == "__main__":
    sys.exit(main())
