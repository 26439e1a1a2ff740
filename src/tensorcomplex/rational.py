"""Exact arithmetic foundations: rationals, pi-multiples, rational matrices.

Single rationals (matrix entries, pi coefficients, pairing values) are
`fractions.Fraction`: arbitrary precision, lowest terms, positive denominator.
Polynomials do not store a Fraction per term; `poly.Poly3` keeps integer
numerators over one shared denominator and builds Fractions only when a
coefficient is read.  Long operator chains multiply denominators like
(k+1)(k+2)(k+3), so fixed-width rationals are not an option.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping

ZERO = Fraction(0)
ONE = Fraction(1)


@dataclass(frozen=True)
class PiScalar:
    """An exact value q*pi with q rational.

    Closed under addition and rational scaling.  The product of two
    PiScalars is pi^2-valued and deliberately not representable.
    """

    coeff: Fraction

    def __add__(self, other: "PiScalar") -> "PiScalar":
        return PiScalar(self.coeff + other.coeff)

    def __sub__(self, other: "PiScalar") -> "PiScalar":
        return PiScalar(self.coeff - other.coeff)

    def __neg__(self) -> "PiScalar":
        return PiScalar(-self.coeff)

    def __mul__(self, other) -> "PiScalar":
        if isinstance(other, PiScalar):
            raise TypeError("product of two pi-multiples is not a rational multiple of pi")
        return PiScalar(self.coeff * Fraction(other))

    __rmul__ = __mul__

    @property
    def is_zero(self) -> bool:
        return self.coeff == 0

    def __str__(self) -> str:
        return f"{self.coeff.numerator}/{self.coeff.denominator}*pi"


class RatMatrix:
    """Sparse exact-rational matrix: `cols` columns, each row a map from a
    column index to its nonzero entry."""

    def __init__(self, cols: int, rows: Iterable[Mapping[int, Fraction]]):
        self.cols = cols
        self.rows = [{c: Fraction(x) for c, x in row.items() if x} for row in rows]

    def nullspace(self) -> list[dict[int, Fraction]]:
        """Basis of the kernel, one sparse vector per free column.

        Each row is reduced against the pivot rows found so far, which are
        kept fully reduced, so only nonzero entries are ever touched and the
        pivot rows end as the reduced row echelon form.  Vectors come out in
        ascending free-column order, the same whatever the row order; each
        maps its nonzero entries' columns, in ascending order, to the entries.
        """
        pivots: dict[int, dict[int, Fraction]] = {}
        for row in self.rows:
            row = dict(row)
            for p in [c for c in row if c in pivots]:
                _subtract(row, row[p], pivots[p])
            if not row:
                continue
            p = min(row)
            inv = ONE / row[p]
            row = {c: x * inv for c, x in row.items()}
            for other in pivots.values():
                if p in other:
                    _subtract(other, other[p], row)
            pivots[p] = row
        basis = {fc: {fc: ONE} for fc in range(self.cols) if fc not in pivots}
        for p, row in pivots.items():
            for c, x in row.items():
                if c != p:
                    basis[c][p] = -x
        return [dict(sorted(v.items())) for v in basis.values()]


def _subtract(row: dict[int, Fraction], f: Fraction, pivot_row: dict[int, Fraction]) -> None:
    """row -= f * pivot_row in place, dropping entries that cancel."""
    for c, x in pivot_row.items():
        y = row.get(c, ZERO) - f * x
        if y:
            row[c] = y
        else:
            del row[c]
