#!/usr/bin/env python3
"""Decompose a field read from a text file (or stdin) and print the parts.

Usage: python scripts/decompose_field.py {cc,dd,cd,short-cc,short-dd,short-cd} [file]

The input uses the plain-text field format, e.g.

    kind: symmetric
    1 1 : 1 * x1^2 x2^0 x3^0
    ...

The input must be UTF-8.  An unreadable or undecodable file or stdin,
malformed field text (an exponent past 255 included), a field of a kind the
decomposition does not take, or one whose decomposition would need an
exponent past 255 is reported on one line with exit code 2.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from tensorcomplex.decompose import DECOMPOSITION_NAMES, decompose  # noqa: E402
from tensorcomplex.fields import KindError, field_from_text  # noqa: E402
from tensorcomplex.poly import ExponentLimitError  # noqa: E402


def main() -> int:
    if len(sys.argv) < 2 or sys.argv[1] not in DECOMPOSITION_NAMES:
        print(__doc__, file=sys.stderr)
        return 2
    source = sys.argv[2] if len(sys.argv) > 2 else "stdin"
    try:
        if len(sys.argv) > 2:
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
    try:
        dec = decompose(sys.argv[1], field)
    except KindError as err:
        print(f"decompose_field.py: {err}, got a {field.kind.value} field", file=sys.stderr)
        return 2
    except ExponentLimitError as err:
        print(f"decompose_field.py: cannot decompose this field: {err}", file=sys.stderr)
        return 2
    print(dec.to_text())
    print(f"\nexact reconstruction: {dec.is_exact}")
    return 0 if dec.is_exact else 1


if __name__ == "__main__":
    sys.exit(main())
