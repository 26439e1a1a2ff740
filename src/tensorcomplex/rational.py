"""Exact arithmetic foundations: rationals, pi-multiples, rational matrices.

Single rationals (pi coefficients, pairing values, nullspace entries) are
`fractions.Fraction`: arbitrary precision, lowest terms.  Polynomials
(`poly.Poly3`) and matrix rows keep int numerators and build a Fraction only
where one value is read.  Long operator chains multiply denominators like
(k+1)(k+2)(k+3), so fixed-width rationals are not an option.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Mapping


class PiScalar:
    """An exact value q*pi with q rational; immutable, compared and hashed by value.

    Closed under addition and scaling on the right by a rational.  The
    product of two PiScalars is pi^2-valued and deliberately not
    representable; a number on the left (2 * x) is refused too, where a
    tuple would silently repeat itself.
    """

    __slots__ = ("coeff",)

    def __init__(self, coeff: Fraction):
        object.__setattr__(self, "coeff", coeff)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r} of a PiScalar")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r} of a PiScalar")

    def __eq__(self, other) -> bool:
        return self.coeff == other.coeff if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self) -> int:
        return hash(self.coeff)

    def __repr__(self) -> str:
        return f"PiScalar(coeff={self.coeff!r})"

    def __add__(self, other: "PiScalar") -> "PiScalar":
        return PiScalar(self.coeff + other.coeff)

    def __sub__(self, other: "PiScalar") -> "PiScalar":
        return PiScalar(self.coeff - other.coeff)

    def __mul__(self, other) -> "PiScalar":
        if isinstance(other, PiScalar):
            raise TypeError("product of two pi-multiples is not a rational multiple of pi")
        return PiScalar(self.coeff * Fraction(other))

    @property
    def is_zero(self) -> bool:
        return self.coeff == 0

    def __str__(self) -> str:
        return f"{self.coeff.numerator}/{self.coeff.denominator}*pi"


class RatMatrix:
    """Sparse exact-rational matrix: `cols` columns, each row a map from a
    column index to its nonzero entry, kept as ints over the row's lcm denominator."""

    def __init__(self, cols: int, rows: Iterable[Mapping[int, Fraction | int]]):
        self.cols = cols
        self.rows = [_int_row(row) for row in rows]

    def nullspace(self) -> list[dict[int, Fraction]]:
        """Basis of the kernel: one sparse vector per free column, ascending,
        whatever the row order, mapping its nonzero entries' columns, ascending,
        to the entries.  Integer Gauss-Jordan, fraction-free as in Bareiss (1968):
        pivot rows stay fully reduced, primitive, with a positive pivot."""
        pivots: dict[int, dict[int, int]] = {}
        for row in self.rows:
            hit = [p for p in row if p in pivots]
            a = lcm(*(pivots[p][p] for p in hit))
            row = _combine(row, a, [(row[p] * (a // pivots[p][p]), pivots[p]) for p in hit])
            if not row:
                continue
            p = min(row)
            if row[p] < 0:
                row = {c: -x for c, x in row.items()}
            for q, other in pivots.items():
                if p in other:
                    pivots[q] = _combine(other, row[p], [(other[p], row)])
            pivots[p] = row
        basis = {fc: {fc: Fraction(1)} for fc in range(self.cols) if fc not in pivots}
        for p, row in pivots.items():
            for c, x in row.items():
                if c != p:
                    basis[c][p] = Fraction(-x, row[p])
        return [dict(sorted(v.items())) for v in basis.values()]


def _int_row(row: Mapping[int, Fraction | int]) -> dict[int, int]:
    """The nonzero entries of the row, ints or Fractions, as int numerators over the lcm of their denominators."""
    d = lcm(*(x.denominator for x in row.values()))
    return {c: x.numerator * (d // x.denominator) for c, x in row.items() if x}


def _combine(row: dict[int, int], a: int, pairs: list) -> dict[int, int]:
    """(a * row - the sum of f * pivot_row over pairs) / gcd, zeros dropped."""
    out = {c: a * x for c, x in row.items()}
    for f, pivot_row in pairs:
        for c, x in pivot_row.items():
            out[c] = out.get(c, 0) - f * x
    g = gcd(*out.values())
    return {c: x // g for c, x in out.items() if x}
