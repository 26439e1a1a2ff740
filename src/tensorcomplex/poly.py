"""Sparse trivariate polynomials over exact rationals.

A monomial is an exponent triple (a, b, c) meaning x1^a x2^b x3^c.  A Poly3
stores integer numerators over one shared positive denominator, the layout
of FLINT's fmpq_poly: `terms` maps monomials to nonzero ints and `den` is
the denominator.  The form is canonical, so equal polynomials have equal
(terms, den):

    gcd(den, every numerator) = 1,  no zero numerator,  zero has den = 1.

Arithmetic runs on Python ints with one gcd normalisation per result; a
`Fraction` is built only where a single coefficient is read (`coeff`,
`coefficients`, the text form).  The many-term sums are int operations
too, each one pass and one normalisation: `partial_sum` (signed first
derivatives, for curl and div), `shift_sum` (signed x_i shifts, for the
Koszul operators) and `combination` (weighted sums).  All operations are
exact.  Only this module reads `terms` and `den`; other modules go through
the methods.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import gcd, lcm
from typing import Iterable, Mapping

Monomial = tuple[int, int, int]

_MONO_ZERO: Monomial = (0, 0, 0)


def _term_key(m: Monomial) -> tuple:
    return (sum(m), m)


def _new(terms: dict[Monomial, int], den: int) -> "Poly3":
    """A Poly3 from numerators and denominator that are already in canonical form."""
    out = object.__new__(Poly3)
    out.terms = terms
    out.den = den
    return out


def _make(terms: dict[Monomial, int], den: int) -> "Poly3":
    """A Poly3 from nonzero numerators over a positive den, reduced to canonical form."""
    if den != 1:
        if not terms:
            den = 1
        else:
            g = gcd(den, *terms.values())
            if g != 1:
                terms = {m: n // g for m, n in terms.items()}
                den //= g
    return _new(terms, den)


def _signed_sum(a: "Poly3", b: "Poly3", sign: int) -> "Poly3":
    """a + sign * b for sign 1 or -1, in one pass over the terms of b."""
    if not b.terms:
        return a
    if not a.terms:
        return b if sign == 1 else -b
    den, db = a.den, b.den
    if den == db:
        t = a.terms.copy()
        fb = sign
    else:
        g = gcd(den, db)
        fa, fb = db // g, sign * (den // g)
        t = {m: n * fa for m, n in a.terms.items()}
        den *= fa
    get = t.get
    if fb == 1:
        for m, n in b.terms.items():
            t[m] = get(m, 0) + n
    else:
        for m, n in b.terms.items():
            t[m] = get(m, 0) + n * fb
    if not all(t.values()):
        t = {m: n for m, n in t.items() if n}
    return _make(t, den)


class Poly3:
    __slots__ = ("terms", "den")

    def __init__(self, terms: Mapping[Monomial, Fraction] | None = None):
        coeffs: dict[Monomial, Fraction] = {}
        if terms:
            for m, c in terms.items():
                c = Fraction(c)
                if c != 0:
                    a, b, cc = m
                    if a < 0 or b < 0 or cc < 0:
                        raise ValueError(f"negative exponent in monomial {m}")
                    coeffs[(a, b, cc)] = c
        # Over the lcm of reduced denominators the numerators are already coprime to it.
        den = lcm(*(c.denominator for c in coeffs.values()))
        self.terms = {m: c.numerator * (den // c.denominator) for m, c in coeffs.items()}
        self.den = den

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls) -> "Poly3":
        return cls()

    @classmethod
    def const(cls, c) -> "Poly3":
        return cls({_MONO_ZERO: Fraction(c)})

    @classmethod
    def variable(cls, i: int) -> "Poly3":
        """x_i for i in {1, 2, 3}."""
        e = [0, 0, 0]
        e[i - 1] = 1
        return cls({tuple(e): Fraction(1)})

    @classmethod
    def monomial(cls, exponents: Monomial, coeff=1) -> "Poly3":
        return cls({exponents: Fraction(coeff)})

    @staticmethod
    def from_numerators(numerators: Mapping[Monomial, int], den: int = 1) -> "Poly3":
        """The polynomial sum of n/den * m over the (monomial, int) pairs; zero entries are dropped."""
        if den < 1:
            raise ValueError(f"denominator must be positive, got {den}")
        return _make({m: n for m, n in numerators.items() if n}, den)

    @staticmethod
    def shift_sum(pieces: Iterable[tuple[int, int, "Poly3"]], offset: int) -> "Poly3":
        """Sum of sign * x_i * p over (sign, i, p), each term of degree k divided by k + offset.

        Multiplying by x_i only shifts an exponent, so the result is built term
        by term, as integer numerators over lcm(den of each p) * lcm(k + offset).
        """
        pieces = [piece for piece in pieces if piece[2].terms]
        den = lcm(*(p.den for _, _, p in pieces))
        degrees = {k for _, _, p in pieces for k in map(sum, p.terms)}
        shift_den = lcm(*(k + offset for k in degrees))
        factor = {k: shift_den // (k + offset) for k in degrees}
        t: dict[Monomial, int] = {}
        for sign, i, p in pieces:
            w = sign * (den // p.den)
            da, db, dc = int(i == 1), int(i == 2), int(i == 3)
            for (a, b, c), n in p.terms.items():
                m = (a + da, b + db, c + dc)
                t[m] = t.get(m, 0) + n * w * factor[a + b + c]
        if not all(t.values()):
            t = {m: n for m, n in t.items() if n}
        return _make(t, den * shift_den)

    # -- predicates / inspection --------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def denominator(self) -> int:
        """The shared positive denominator of the canonical form."""
        return self.den

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        return max(map(sum, self.terms), default=-1)

    def constant_term(self) -> Fraction:
        return self.coeff(_MONO_ZERO)

    def coeff(self, m: Monomial) -> Fraction:
        n = self.terms.get(m)
        return Fraction(n, self.den) if n else Fraction(0)

    def coefficients(self) -> dict[Monomial, Fraction]:
        """Each nonzero coefficient as its own reduced Fraction."""
        den = self.den
        return {m: Fraction(n, den) for m, n in self.terms.items()}

    def numerators(self, den: int) -> Iterable[tuple[Monomial, int]]:
        """(monomial, numerator) pairs with every coefficient written over den, a multiple of `denominator`."""
        f, r = divmod(den, self.den)
        if r:
            raise ValueError(f"{den} is not a multiple of the denominator {self.den}")
        items = self.terms.items()
        return items if f == 1 else ((m, n * f) for m, n in items)

    def __eq__(self, other) -> bool:
        return isinstance(other, Poly3) and self.den == other.den and self.terms == other.terms

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other: "Poly3") -> "Poly3":
        return _signed_sum(self, other, 1)

    def __neg__(self) -> "Poly3":
        return _new({m: -n for m, n in self.terms.items()}, self.den)

    def __sub__(self, other: "Poly3") -> "Poly3":
        return _signed_sum(self, other, -1)

    def __mul__(self, other: "Poly3") -> "Poly3":
        t: dict[Monomial, int] = {}
        get = t.get
        right = other.terms.items()
        for (a1, b1, c1), n1 in self.terms.items():
            for (a2, b2, c2), n2 in right:
                m = (a1 + a2, b1 + b2, c1 + c2)
                t[m] = get(m, 0) + n1 * n2
        if not all(t.values()):
            t = {m: n for m, n in t.items() if n}
        return _make(t, self.den * other.den)

    def scale(self, c) -> "Poly3":
        if type(c) is int:
            cn, cd = c, 1
        else:
            c = c if isinstance(c, Fraction) else Fraction(c)
            cn, cd = c.numerator, c.denominator
        if not cn or not self.terms:
            return _new({}, 1)
        # self is canonical and cn/cd is reduced, so cancelling cn against den
        # and cd against the content of the numerators leaves a canonical result.
        den = self.den
        g = gcd(cn, den)
        cn, den = cn // g, den // g
        g = gcd(cd, *self.terms.values()) if cd != 1 else 1
        cd //= g
        if g == 1 and cn == 1:
            t = self.terms
        else:
            t = {m: n // g * cn for m, n in self.terms.items()}
        return _new(t, den * cd)

    @staticmethod
    def combination(pairs: Iterable[tuple[int | Fraction, "Poly3"]]) -> "Poly3":
        """Sum of w * p over the (weight, polynomial) pairs, with int or Fraction weights.

        The weighted numerators are summed over the lcm of the denominators
        den(p) * den(w) in one pass, and the result is normalised once.
        """
        scaled = [(w.numerator, w.denominator * p.den, p.terms) for w, p in pairs if w and p.terms]
        den = lcm(*(d for _, d, _ in scaled))
        t: dict[Monomial, int] = {}
        get = t.get
        for n, d, terms in scaled:
            f = n * (den // d)
            for m, c in terms.items():
                t[m] = get(m, 0) + c * f
        if not all(t.values()):
            t = {m: n for m, n in t.items() if n}
        return _make(t, den)

    def partial(self, i: int) -> "Poly3":
        """Formal derivative with respect to x_i, i in {1, 2, 3}."""
        items = self.terms.items()
        if i == 1:
            t = {(a - 1, b, c): n * a for (a, b, c), n in items if a}
        elif i == 2:
            t = {(a, b - 1, c): n * b for (a, b, c), n in items if b}
        elif i == 3:
            t = {(a, b, c - 1): n * c for (a, b, c), n in items if c}
        else:
            raise ValueError(f"no variable x{i}")
        return _make(t, self.den)

    @staticmethod
    def partial_sum(pieces: Iterable[tuple[int, int, "Poly3"]]) -> "Poly3":
        """Sum of sign * dp/dx_i over (sign, i, p), i in {1, 2, 3}.

        The derivative twin of `shift_sum`: every term is differentiated and
        added as an integer numerator over lcm(den of each p), and the result
        is normalised once.
        """
        pieces = [piece for piece in pieces if piece[2].terms]
        den = lcm(*(p.den for _, _, p in pieces))
        t: dict[Monomial, int] = {}
        get = t.get
        for sign, i, p in pieces:
            w = sign * (den // p.den)
            items = p.terms.items()
            if i == 1:
                for (a, b, c), n in items:
                    if a:
                        m = (a - 1, b, c)
                        t[m] = get(m, 0) + n * a * w
            elif i == 2:
                for (a, b, c), n in items:
                    if b:
                        m = (a, b - 1, c)
                        t[m] = get(m, 0) + n * b * w
            elif i == 3:
                for (a, b, c), n in items:
                    if c:
                        m = (a, b, c - 1)
                        t[m] = get(m, 0) + n * c * w
            else:
                raise ValueError(f"no variable x{i}")
        if not all(t.values()):
            t = {m: n for m, n in t.items() if n}
        return _make(t, den)

    # -- text form ----------------------------------------------------

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for m in sorted(self.terms, key=_term_key):
            n = self.terms[m]
            g = gcd(n, self.den)
            n, d = n // g, self.den // g
            cs = str(n) if d == 1 else f"{n}/{d}"
            parts.append(f"{cs} * x1^{m[0]} x2^{m[1]} x3^{m[2]}")
        return " + ".join(parts)

    __repr__ = __str__

    @classmethod
    def parse(cls, text: str) -> "Poly3":
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


P_ZERO = Poly3.zero()
P_ONE = Poly3.const(1)
X1 = Poly3.variable(1)
X2 = Poly3.variable(2)
X3 = Poly3.variable(3)


@cache
def monomials_up_to(degree: int) -> tuple[Monomial, ...]:
    """All exponent triples of total degree <= degree, graded-lex order."""
    return tuple(
        (a, b, d - a - b)
        for d in range(degree + 1)
        for a in range(d, -1, -1)
        for b in range(d - a, -1, -1)
    )
