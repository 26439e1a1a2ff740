"""Reference polynomials: one reduced Fraction per term.

`FractionPoly3` is the representation that `tensorcomplex.poly.Poly3` replaced
with integer numerators over one shared denominator.  It is kept, unoptimised,
as the slow reference the fast core is tested against in
`test_poly_reference.py`: every operation here works coefficient by
coefficient in `Fraction`, and a term map holds no zero coefficient.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping

Monomial = tuple[int, int, int]

_MONO_ZERO: Monomial = (0, 0, 0)


def _term_key(m: Monomial) -> tuple:
    return (sum(m), m)


class FractionPoly3:
    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[Monomial, Fraction] | None = None):
        t: dict[Monomial, Fraction] = {}
        if terms:
            for m, c in terms.items():
                c = Fraction(c)
                if c != 0:
                    a, b, cc = m
                    if a < 0 or b < 0 or cc < 0:
                        raise ValueError(f"negative exponent in monomial {m}")
                    t[(a, b, cc)] = c
        self.terms = t

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls) -> "FractionPoly3":
        return cls()

    @classmethod
    def const(cls, c) -> "FractionPoly3":
        return cls({_MONO_ZERO: Fraction(c)})

    @classmethod
    def variable(cls, i: int) -> "FractionPoly3":
        """x_i for i in {1, 2, 3}."""
        e = [0, 0, 0]
        e[i - 1] = 1
        return cls({tuple(e): Fraction(1)})

    @classmethod
    def monomial(cls, exponents: Monomial, coeff=1) -> "FractionPoly3":
        return cls({exponents: Fraction(coeff)})

    # -- predicates / inspection --------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        return max((sum(m) for m in self.terms), default=-1)

    def constant_term(self) -> Fraction:
        return self.terms.get(_MONO_ZERO, Fraction(0))

    def coeff(self, m: Monomial) -> Fraction:
        return self.terms.get(m, Fraction(0))

    def __eq__(self, other) -> bool:
        return isinstance(other, FractionPoly3) and self.terms == other.terms

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other: "FractionPoly3") -> "FractionPoly3":
        t = dict(self.terms)
        for m, c in other.terms.items():
            s = t.get(m, Fraction(0)) + c
            if s == 0:
                t.pop(m, None)
            else:
                t[m] = s
        out = FractionPoly3.__new__(FractionPoly3)
        out.terms = t
        return out

    def __neg__(self) -> "FractionPoly3":
        out = FractionPoly3.__new__(FractionPoly3)
        out.terms = {m: -c for m, c in self.terms.items()}
        return out

    def __sub__(self, other: "FractionPoly3") -> "FractionPoly3":
        return self + (-other)

    def __mul__(self, other: "FractionPoly3") -> "FractionPoly3":
        t: dict[Monomial, Fraction] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = (m1[0] + m2[0], m1[1] + m2[1], m1[2] + m2[2])
                s = t.get(m, Fraction(0)) + c1 * c2
                if s == 0:
                    t.pop(m, None)
                else:
                    t[m] = s
        out = FractionPoly3.__new__(FractionPoly3)
        out.terms = t
        return out

    def scale(self, c) -> "FractionPoly3":
        c = Fraction(c)
        out = FractionPoly3.__new__(FractionPoly3)
        out.terms = {} if c == 0 else {m: c * v for m, v in self.terms.items()}
        return out

    def partial(self, i: int) -> "FractionPoly3":
        """Formal derivative with respect to x_i, i in {1, 2, 3}."""
        k = i - 1
        t: dict[Monomial, Fraction] = {}
        for m, c in self.terms.items():
            e = m[k]
            if e == 0:
                continue
            n = list(m)
            n[k] = e - 1
            t[tuple(n)] = c * e
        out = FractionPoly3.__new__(FractionPoly3)
        out.terms = t
        return out

    # -- text form ----------------------------------------------------

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for m in sorted(self.terms, key=_term_key):
            c = self.terms[m]
            cs = str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"
            parts.append(f"{cs} * x1^{m[0]} x2^{m[1]} x3^{m[2]}")
        return " + ".join(parts)

    __repr__ = __str__

    @classmethod
    def parse(cls, text: str) -> "FractionPoly3":
        text = text.strip()
        if text == "0":
            return cls.zero()
        terms: dict[Monomial, Fraction] = {}
        for chunk in text.split(" + "):
            coeff_part, _, mono_part = chunk.partition("*")
            c = Fraction(coeff_part.strip())
            exps = []
            for factor in mono_part.split():
                name, _, e = factor.partition("^")
                if name not in ("x1", "x2", "x3"):
                    raise ValueError(f"bad monomial factor {factor!r}")
                exps.append((int(name[1]), int(e)))
            if [v for v, _ in exps] != [1, 2, 3]:
                raise ValueError(f"bad monomial {mono_part!r}")
            m = (exps[0][1], exps[1][1], exps[2][1])
            terms[m] = terms.get(m, Fraction(0)) + c
        return cls(terms)


def partial_sum(pieces) -> FractionPoly3:
    """Sum of sign * dp/dx_i over (sign, i, p), one reference partial and sum at a time."""
    out = FractionPoly3()
    for sign, i, p in pieces:
        d = p.partial(i)
        out = out + d if sign == 1 else out - d
    return out


def shift_sum(pieces, offset: int) -> FractionPoly3:
    """Sum of sign * x_i * p over (sign, i, p), each term of degree k divided by k + offset."""
    t: dict[Monomial, Fraction] = {}
    for sign, i, p in pieces:
        for (a, b, c), coeff in p.terms.items():
            m = (a + (i == 1), b + (i == 2), c + (i == 3))
            t[m] = t.get(m, Fraction(0)) + coeff / (sign * (a + b + c + offset))
    return FractionPoly3(t)
