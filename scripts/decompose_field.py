#!/usr/bin/env python3
"""Decompose a field read from a text file (or stdin) and print the parts.

Usage: python scripts/decompose_field.py {cc,dd,cd,short-cc,short-dd,short-cd} [file]

The input uses the plain-text field format, e.g.

    kind: symmetric
    1 1 : 1 * x1^2 x2^0 x3^0
    ...

The input must be UTF-8.  A missing or unknown decomposition name, an
argument past the file, an unreadable or undecodable file or stdin,
malformed field text (an exponent past 255 included), a field of a kind the
decomposition does not take, or one whose decomposition would need an
exponent past 255 is reported on one line with exit code 2, and so is a
failed write of the parts to stdout (a full disk, say).  A step inside the
decomposition that breaks a kind predicate or that its lemma makes zero,
found nonzero, means a broken operator, not bad input: it is reported on
one line as a failed decomposition, with exit code 1.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from tensorcomplex.decompose import _DECOMPOSERS, DECOMPOSITION_NAMES, decompose  # noqa: E402
from tensorcomplex.fields import KindError, field_from_text  # noqa: E402
from tensorcomplex.poly import ExponentLimitError  # noqa: E402


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if not argv or argv[0] not in DECOMPOSITION_NAMES:
        what = f"unknown decomposition {argv[0]!r}" if argv else "missing decomposition name"
        print(f"decompose_field.py: {what} (one of {', '.join(DECOMPOSITION_NAMES)})", file=sys.stderr)
        return 2
    name = argv[0]
    if len(argv) > 2:
        print(f"decompose_field.py: unexpected argument {argv[2]!r}", file=sys.stderr)
        return 2
    source = argv[1] if len(argv) > 1 else "stdin"
    try:
        if len(argv) > 1:
            text = Path(source).read_text(encoding="utf-8")
        else:
            sys.stdin.reconfigure(encoding="utf-8")  # strict, whatever the locale
            text = sys.stdin.read()
    except OSError as err:
        print(f"decompose_field.py: cannot read {source}: {err.strerror}", file=sys.stderr)
        return 2
    except UnicodeDecodeError as err:
        print(f"decompose_field.py: cannot read {source}: not UTF-8 text (byte {err.start})", file=sys.stderr)
        return 2
    try:
        field = field_from_text(text)
    except ValueError as err:
        print(f"decompose_field.py: bad field text: {err}", file=sys.stderr)
        return 2
    kind = _DECOMPOSERS[name].input_kind
    if field.kind is not kind:
        print(f"decompose_field.py: regdec {name} needs a {kind.value} field, got a {field.kind.value} field",
              file=sys.stderr)
        return 2
    try:
        dec = decompose(name, field)
    except KindError as err:
        print(f"decompose_field.py: decomposition failed: {err}", file=sys.stderr)
        return 1
    except ExponentLimitError as err:
        print(f"decompose_field.py: cannot decompose this field: {err}", file=sys.stderr)
        return 2
    try:
        sys.stdout.write(f"{dec.to_text()}\n\nexact reconstruction: {dec.is_exact}\n")
        sys.stdout.flush()
    except OSError as err:
        print(f"decompose_field.py: cannot write stdout: {err.strerror}", file=sys.stderr)
        return 2
    return 0 if dec.is_exact else 1


if __name__ == "__main__":
    sys.exit(main())
