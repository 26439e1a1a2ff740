"""Sparse trivariate polynomials over exact rationals.

A monomial x1^a x2^b x3^c is named by its exponent triple (a, b, c) in every
method's arguments and results.  Inside a Poly3 it is packed into one int,
its code

    S << 24 | a << 16 | b << 8 | c,   S = a + b + c,

with each exponent in 0..MAX_EXPONENT (8 bits).  Codes are additive: the
code of a product monomial is the sum of the codes, multiplying by x_i adds
the unit code of x_i, and d/dx_i subtracts it.  Ordering codes as ints is
the graded (S, a, b, c) order of the text form.  A monomial or result that
would need an exponent past MAX_EXPONENT raises ExponentLimitError, a
ValueError; a code never wraps.  Total degree is not limited.

A Poly3 stores integer numerators over one shared positive denominator, the
layout of FLINT's fmpq_poly: `_codes` maps monomial codes to nonzero ints
and `den` is the denominator.  The form is canonical, so equal polynomials
have equal (_codes, den):

    gcd(den, every numerator) = 1,  no zero numerator,  zero has den = 1.

Arithmetic runs on Python ints with one gcd normalisation per result; a
`Fraction` is built only where a single coefficient is read (`coeff`,
`coefficients`, the text form).  The many-term sums are int operations
too, each one pass and one normalisation: `partial_sum` (signed first
derivatives, for curl and div), `shift_sum` (signed x_i shifts, for the
Koszul operators) and `combination` (weighted sums).  All operations are
exact.  In the package only this module reads `_codes`, `terms` and `den`,
and only this module decodes a code; other modules go through the methods,
and through `monomial_code`, `parity_classes` and `check_product` where they
pair terms themselves.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import gcd, lcm
from typing import Iterable, Mapping

Monomial = tuple[int, int, int]

MAX_EXPONENT = 255  # each exponent has 8 bits; `k >> shift & 255` reads one
# For i in {1, 2, 3}: the code of x_i and the bit offset of its exponent.
_VARIABLES = {1: (1 << 24 | 1 << 16, 16), 2: (1 << 24 | 1 << 8, 8), 3: (1 << 24 | 1, 0)}
# The low bit of each exponent: equal for two codes exactly when their sum has only even exponents.
_PARITY = 1 << 16 | 1 << 8 | 1


class ExponentLimitError(ValueError):
    """A monomial, or the result of an operation, needs an exponent past MAX_EXPONENT."""


def monomial_code(m: Monomial) -> int:
    """The code of the monomial with exponent triple m; ValueError if an exponent is out of range."""
    a, b, c = m
    if a < 0 or b < 0 or c < 0:
        raise ValueError(f"negative exponent in monomial {m}")
    if a > MAX_EXPONENT or b > MAX_EXPONENT or c > MAX_EXPONENT:
        raise ExponentLimitError(f"exponent past {MAX_EXPONENT} in monomial {m}")
    return (a + b + c) << 24 | a << 16 | b << 8 | c


# Seeded fields repeat the few monomials up to their degree, so `from_numerators` packs each once.
_cached_code = cache(monomial_code)


def _decode(k: int) -> Monomial:
    return k >> 16 & 255, k >> 8 & 255, k & 255


def check_product(p: "Poly3", q: "Poly3") -> None:
    """Raise ExponentLimitError if some exponent of p * q would pass MAX_EXPONENT."""
    left, right = p._codes, q._codes
    if left and right and (max(left) >> 24) + (max(right) >> 24) > MAX_EXPONENT:
        # The leading terms in x_i order multiply to a nonzero term, so the largest sum is reached.
        for i, (_, shift) in _VARIABLES.items():
            top = max(k >> shift & 255 for k in left) + max(k >> shift & 255 for k in right)
            if top > MAX_EXPONENT:
                raise ExponentLimitError(f"a product has exponent {top} of x{i}, past {MAX_EXPONENT}")


def _new(codes: dict[int, int], den: int) -> "Poly3":
    """A Poly3 from numerators and denominator that are already in canonical form."""
    out = object.__new__(Poly3)
    out._codes = codes
    out.den = den
    return out


def _make(codes: dict[int, int], den: int) -> "Poly3":
    """A Poly3 from nonzero numerators over a positive den, reduced to canonical form."""
    if den != 1:
        if not codes:
            den = 1
        else:
            g = gcd(den, *codes.values())
            if g != 1:
                codes = {k: n // g for k, n in codes.items()}
                den //= g
    return _new(codes, den)


def _signed_sum(a: "Poly3", b: "Poly3", sign: int) -> "Poly3":
    """a + sign * b for sign 1 or -1, in one pass over the terms of b."""
    if not b._codes:
        return a
    if not a._codes:
        return b if sign == 1 else -b
    den, db = a.den, b.den
    if den == db:
        t = a._codes.copy()
        fb = sign
    else:
        g = gcd(den, db)
        fa, fb = db // g, sign * (den // g)
        t = {k: n * fa for k, n in a._codes.items()}
        den *= fa
    get = t.get
    if fb == 1:
        for k, n in b._codes.items():
            t[k] = get(k, 0) + n
    else:
        for k, n in b._codes.items():
            t[k] = get(k, 0) + n * fb
    if not all(t.values()):
        t = {k: n for k, n in t.items() if n}
    return _make(t, den)


def _variable(i: int) -> tuple[int, int]:
    """(code of x_i, bit offset of its exponent); ValueError unless i is 1, 2 or 3."""
    try:
        return _VARIABLES[i]
    except KeyError:
        raise ValueError(f"no variable x{i}") from None


class Poly3:
    __slots__ = ("_codes", "den")

    def __init__(self, terms: Mapping[Monomial, Fraction] | None = None):
        coeffs: dict[int, Fraction] = {}
        if terms:
            for m, c in terms.items():
                c = Fraction(c)
                if c != 0:
                    coeffs[monomial_code(m)] = c
        # Over the lcm of reduced denominators the numerators are already coprime to it.
        den = lcm(*(c.denominator for c in coeffs.values()))
        self._codes = {k: c.numerator * (den // c.denominator) for k, c in coeffs.items()}
        self.den = den

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls) -> "Poly3":
        return cls()

    @classmethod
    def const(cls, c) -> "Poly3":
        return cls({(0, 0, 0): Fraction(c)})

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
        return _make({_cached_code(m): n for m, n in numerators.items() if n}, den)

    @staticmethod
    def shift_sum(pieces: Iterable[tuple[int, int, "Poly3"]], offset: int) -> "Poly3":
        """Sum of sign * x_i * p over (sign, i, p), each term of degree k divided by k + offset.

        Multiplying by x_i only adds its code, so the result is built term by
        term, as integer numerators over lcm(den of each p) * lcm(k + offset).
        Every piece's i is checked, a zero piece's too.
        """
        pieces = [(sign, i, _variable(i), p) for sign, i, p in pieces]
        den = lcm(*(p.den for *_, p in pieces))
        degrees = {k >> 24 for *_, p in pieces for k in p._codes}
        if max(degrees, default=0) >= MAX_EXPONENT:
            for _, i, (_, shift), p in pieces:
                if any(k >> shift & 255 == MAX_EXPONENT for k in p._codes):
                    raise ExponentLimitError(f"x{i} * p has an exponent of x{i} past {MAX_EXPONENT}")
        shift_den = lcm(*(k + offset for k in degrees))
        factor = {k: shift_den // (k + offset) for k in degrees}
        t: dict[int, int] = {}
        get = t.get
        for sign, _, (unit, _), p in pieces:
            w = sign * (den // p.den)
            for k, n in p._codes.items():
                m = k + unit
                t[m] = get(m, 0) + n * w * factor[k >> 24]
        if not all(t.values()):
            t = {k: n for k, n in t.items() if n}
        return _make(t, den * shift_den)

    # -- predicates / inspection --------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self._codes

    @property
    def denominator(self) -> int:
        """The shared positive denominator of the canonical form."""
        return self.den

    @property
    def terms(self) -> "_Terms":
        """A read-only view of the terms as {exponent triple: numerator over `denominator`}.

        For the layer tracer in perfbench/tracing.py, which counts terms
        through it; nothing in the package reads it.
        """
        return _Terms(self._codes)

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        return max(self._codes, default=-1) >> 24

    def constant_term(self) -> Fraction:
        return Fraction(self._codes.get(0, 0), self.den)

    def coeff(self, m: Monomial) -> Fraction:
        n = self._codes.get(monomial_code(m)) if 0 <= min(m) and max(m) <= MAX_EXPONENT else None
        return Fraction(n, self.den) if n else Fraction(0)

    def coefficients(self) -> dict[Monomial, Fraction]:
        """Each nonzero coefficient as its own reduced Fraction."""
        den = self.den
        return {(k >> 16 & 255, k >> 8 & 255, k & 255): Fraction(n, den) for k, n in self._codes.items()}

    def parity_classes(self) -> dict[int, list[tuple[int, int]]]:
        """The (monomial code, numerator over `denominator`) pairs of the terms, by exponent parity.

        Two monomials multiply to one with only even exponents exactly when
        they are in the same class, and the code of that product is the sum
        of their codes, as `monomial_code` gives it.
        """
        out: dict[int, list[tuple[int, int]]] = {}
        for k, n in self._codes.items():
            parity = k & _PARITY
            if parity in out:
                out[parity].append((k, n))
            else:
                out[parity] = [(k, n)]
        return out

    def __eq__(self, other) -> bool:
        return isinstance(other, Poly3) and self.den == other.den and self._codes == other._codes

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other: "Poly3") -> "Poly3":
        return _signed_sum(self, other, 1)

    def __neg__(self) -> "Poly3":
        return _new({k: -n for k, n in self._codes.items()}, self.den)

    def __sub__(self, other: "Poly3") -> "Poly3":
        return _signed_sum(self, other, -1)

    def __mul__(self, other: "Poly3") -> "Poly3":
        left, right = self._codes, other._codes
        if not left or not right:
            return _new({}, 1)
        check_product(self, other)
        t: dict[int, int] = {}
        get = t.get
        right = right.items()
        for k1, n1 in left.items():
            for k2, n2 in right:
                k = k1 + k2
                t[k] = get(k, 0) + n1 * n2
        if not all(t.values()):
            t = {k: n for k, n in t.items() if n}
        return _make(t, self.den * other.den)

    def scale(self, c) -> "Poly3":
        if type(c) is int:
            cn, cd = c, 1
        else:
            c = c if isinstance(c, Fraction) else Fraction(c)
            cn, cd = c.numerator, c.denominator
        if not cn or not self._codes:
            return _new({}, 1)
        # self is canonical and cn/cd is reduced, so cancelling cn against den
        # and cd against the content of the numerators leaves a canonical result.
        den = self.den
        g = gcd(cn, den)
        cn, den = cn // g, den // g
        g = gcd(cd, *self._codes.values()) if cd != 1 else 1
        cd //= g
        if g == 1 and cn == 1:
            t = self._codes
        else:
            t = {k: n // g * cn for k, n in self._codes.items()}
        return _new(t, den * cd)

    @staticmethod
    def combination(pairs: Iterable[tuple[int | Fraction, "Poly3"]]) -> "Poly3":
        """Sum of w * p over the (weight, polynomial) pairs, with int or Fraction weights.

        The weighted numerators are summed over the lcm of the denominators
        den(p) * den(w) in one pass, and the result is normalised once.
        """
        scaled = [(w.numerator, w.denominator * p.den, p._codes) for w, p in pairs if w and p._codes]
        den = lcm(*(d for _, d, _ in scaled))
        t: dict[int, int] = {}
        get = t.get
        for n, d, codes in scaled:
            f = n * (den // d)
            for k, c in codes.items():
                t[k] = get(k, 0) + c * f
        if not all(t.values()):
            t = {k: n for k, n in t.items() if n}
        return _make(t, den)

    def partial(self, i: int) -> "Poly3":
        """Formal derivative with respect to x_i, i in {1, 2, 3}."""
        unit, shift = _variable(i)
        t: dict[int, int] = {}
        for k, n in self._codes.items():
            e = k >> shift & 255
            if e:
                t[k - unit] = n * e
        return _make(t, self.den)

    @staticmethod
    def partial_sum(pieces: Iterable[tuple[int, int, "Poly3"]]) -> "Poly3":
        """Sum of sign * dp/dx_i over (sign, i, p), i in {1, 2, 3}.

        The derivative twin of `shift_sum`: every term is differentiated and
        added as an integer numerator over lcm(den of each p), and the result
        is normalised once.  Every piece's i is checked, a zero piece's too.
        """
        pieces = tuple(pieces)
        den = lcm(*(p.den for _, _, p in pieces))
        t: dict[int, int] = {}
        get = t.get
        for sign, i, p in pieces:
            unit, shift = _variable(i)
            w = sign * (den // p.den)
            for k, n in p._codes.items():
                e = k >> shift & 255
                if e:
                    m = k - unit
                    t[m] = get(m, 0) + n * e * w
        if not all(t.values()):
            t = {k: n for k, n in t.items() if n}
        return _make(t, den)

    # -- text form ----------------------------------------------------

    def __str__(self) -> str:
        if not self._codes:
            return "0"
        parts = []
        for k in sorted(self._codes):
            n = self._codes[k]
            g = gcd(n, self.den)
            n, d = n // g, self.den // g
            cs = str(n) if d == 1 else f"{n}/{d}"
            parts.append(f"{cs} * x1^{k >> 16 & 255} x2^{k >> 8 & 255} x3^{k & 255}")
        return " + ".join(parts)

    __repr__ = __str__

    @classmethod
    def parse(cls, text: str) -> "Poly3":
        """The polynomial of the text form; ValueError names a malformed or out-of-range monomial."""
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


class _Terms:
    """The {exponent triple: numerator} view of `Poly3.terms`; a code is decoded only when iterated."""

    __slots__ = ("_codes",)

    def __init__(self, codes: dict[int, int]):
        self._codes = codes

    def __len__(self) -> int:
        return len(self._codes)

    def __iter__(self):
        return map(_decode, self._codes)

    def items(self):
        return zip(self, self._codes.values())
