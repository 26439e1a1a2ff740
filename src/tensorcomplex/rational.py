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
from typing import Sequence

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
    """Dense exact-rational matrix, row-major."""

    def __init__(self, rows: int, cols: int, entries: Sequence[Fraction]):
        if len(entries) != rows * cols:
            raise ValueError(f"need {rows * cols} entries, got {len(entries)}")
        self.rows = rows
        self.cols = cols
        self.entries = [e if type(e) is Fraction else Fraction(e) for e in entries]

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence]) -> "RatMatrix":
        r = len(rows)
        c = len(rows[0]) if r else 0
        return cls(r, c, [x for row in rows for x in row])

    def row(self, i: int) -> list[Fraction]:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def rref(self) -> tuple[list[list[Fraction]], list[int]]:
        """Reduced row echelon form; returns (rows, pivot column indices)."""
        m = [self.row(i) for i in range(self.rows)]
        pivots: list[int] = []
        r = 0
        for c in range(self.cols):
            piv = next((i for i in range(r, self.rows) if m[i][c] != 0), None)
            if piv is None:
                continue
            m[r], m[piv] = m[piv], m[r]
            inv = ONE / m[r][c]
            m[r] = [x * inv for x in m[r]]
            for i in range(self.rows):
                if i != r and m[i][c] != 0:
                    f = m[i][c]
                    m[i] = [a - f * b for a, b in zip(m[i], m[r])]
            pivots.append(c)
            r += 1
            if r == self.rows:
                break
        return m, pivots

    def nullspace(self) -> list[list[Fraction]]:
        """Basis of the kernel, one vector per free column.

        Vectors come out in ascending free-column order (reduced-echelon
        pivot order), so results are deterministic.
        """
        m, pivots = self.rref()
        pivot_set = set(pivots)
        free = [c for c in range(self.cols) if c not in pivot_set]
        basis = []
        for fc in free:
            v = [ZERO] * self.cols
            v[fc] = ONE
            for r, pc in enumerate(pivots):
                v[pc] = -m[r][fc]
            basis.append(v)
        return basis
