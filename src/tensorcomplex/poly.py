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
and `_den` is the denominator.  The form is canonical, so equal polynomials
have equal (_codes, _den):

    gcd(_den, every numerator) = 1,  no zero numerator,  zero has _den = 1.

Arithmetic runs on Python ints with one gcd normalisation per result; a
`Fraction` is built only where a coefficient is read (`constant_term`,
`coefficients`, the text form).  The many-term sums are int operations too,
each result normalised once: `partial_sum` (signed first derivatives, for
curl and div) and `shift_rows` (signed x_i shifts, for the Koszul operators,
each input scaled once by cached per-degree factors) and `pair_sum` (the
term pairs of two polynomials weighted by a moment table, for the ball
pairings).  All are exact.  In the package only this module reads `_codes`,
`terms` and `_den`, decodes a code, and calls `parity_classes` and
`check_product`; other modules go through the methods and `monomial_code`.
"""

from __future__ import annotations

import re
from collections import Counter
from fractions import Fraction
from functools import cache
from math import gcd, lcm
from typing import Iterable, Mapping, Sequence

Monomial = tuple[int, int, int]

MAX_EXPONENT = 255  # each exponent has 8 bits; `k >> shift & 255` reads one
# For i in {1, 2, 3}: the code of x_i and the bit offset of its exponent.
_VARIABLES = {1: (1 << 24 | 1 << 16, 16), 2: (1 << 24 | 1 << 8, 8), 3: (1 << 24 | 1, 0)}
# The low bit of each exponent: equal for two codes exactly when their sum has only even exponents.
_PARITY = 1 << 16 | 1 << 8 | 1
# A coefficient and an exponent as `__str__` writes them, with no leading zero; `parse`
# accepts no other form.  A coefficient is nonzero, and a fraction is reduced with d > 1.
_COEFFICIENT = re.compile(r"(-?[1-9][0-9]*)(?:/([1-9][0-9]*))?")
_EXPONENT = re.compile(r"0|[1-9][0-9]*")


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


def _decode(k: int) -> Monomial:
    return k >> 16 & 255, k >> 8 & 255, k & 255


def check_product(p: "Poly3", q: "Poly3") -> int:
    """The total degree of p * q, -1 if p or q is zero; ExponentLimitError if some exponent of p * q would
    pass MAX_EXPONENT."""
    left, right = p._codes, q._codes
    if not left or not right:
        return -1
    degree = (max(left) >> 24) + (max(right) >> 24)
    if degree > MAX_EXPONENT:
        # The leading terms in x_i order multiply to a nonzero term, so the largest sum is reached.
        for i, (_, shift) in _VARIABLES.items():
            top = max(k >> shift & 255 for k in left) + max(k >> shift & 255 for k in right)
            if top > MAX_EXPONENT:
                raise ExponentLimitError(f"a product has exponent {top} of x{i}, past {MAX_EXPONENT}")
    return degree


def _new(codes: dict[int, int], den: int) -> "Poly3":
    """A Poly3 from numerators and denominator that are already in canonical form."""
    out = object.__new__(Poly3)
    out._codes = codes
    out._den = den
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
    den, db = a._den, b._den
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
    __slots__ = ("_codes", "_den")

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
        self._den = den

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
        return _new({_variable(i)[0]: 1}, 1)

    @classmethod
    def monomial(cls, exponents: Monomial, coeff=1) -> "Poly3":
        return cls({exponents: Fraction(coeff)})

    @staticmethod
    def from_row(degree: int, numerators: Iterable[int], den: int = 1) -> "Poly3":
        """Sum of n/den * m over the int row n and the monomials m of `monomials_up_to(degree)`."""
        if den < 1:
            raise ValueError(f"denominator must be positive, got {den}")
        return _make({k: n for k, n in zip(_row_codes(degree), numerators, strict=True) if n}, den)

    @staticmethod
    def shift_rows(components: Sequence["Poly3"], rows: tuple[tuple, ...], offset: int) -> tuple["Poly3", ...]:
        """Per row, the sum of sign * x_i * components[c] over its (sign, c, i) triples, each term of
        degree k divided by k + offset.  Each component is scaled once, to integer numerators over
        lcm(den of each component) * lcm(k + offset over the degrees they span), by per-degree factors
        cached per (lowest, highest degree, offset), and shifted into each row that reads it, which only
        adds the code of x_i: in the same pass when one triple reads it.  The rows, a tuple of tuples,
        are planned once per table.  Every triple's i is checked, one on a zero component too."""
        rows, readers = _shift_plan(tuple(rows))
        low = min((min(p._codes) for p in components if p._codes), default=0) >> 24
        high = max((max(p._codes) for p in components if p._codes), default=0) >> 24
        if high >= MAX_EXPONENT:
            for _, c, (_, shift), i in (triple for row in rows for triple in row):
                if any(k >> shift & 255 == MAX_EXPONENT for k in components[c]._codes):
                    raise ExponentLimitError(f"x{i} * p has an exponent of x{i} past {MAX_EXPONENT}")
        shift_den, factor = _shift_factors(low, high, offset)
        den = lcm(*(p._den for p in components))
        scaled = [None if readers[c] < 2 else [(k, n * w * factor[k >> 24]) for k, n in p._codes.items()]
                  if (w := den // p._den) != 1 else [(k, n * factor[k >> 24]) for k, n in p._codes.items()]
                  for c, p in enumerate(components)]
        out = []
        for row in rows:
            (sign, c, (unit, _), _), *rest = row
            if (terms := scaled[c]) is None:
                w = sign * (den // components[c]._den)
                t = {k + unit: n * w * factor[k >> 24] for k, n in components[c]._codes.items()}
            else:
                t = {k + unit: n for k, n in terms} if sign == 1 else {k + unit: n * sign for k, n in terms}
            get = t.get
            for sign, c, (unit, _), _ in rest:
                if (terms := scaled[c]) is None:
                    w = sign * (den // components[c]._den)
                    for k, n in components[c]._codes.items():
                        m = k + unit
                        t[m] = get(m, 0) + n * w * factor[k >> 24]
                else:
                    for k, n in terms:
                        m = k + unit
                        t[m] = get(m, 0) + n * sign
            if not all(t.values()):
                t = {k: n for k, n in t.items() if n}
            out.append(_make(t, den * shift_den))
        return tuple(out)

    # -- predicates / inspection --------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self._codes

    @property
    def denominator(self) -> int:
        """The shared positive denominator of the canonical form."""
        return self._den

    @property
    def terms(self) -> "_Terms":
        """A read-only {exponent triple: numerator over `denominator`} view, for perfbench/tracing.py only."""
        return _Terms(self._codes)

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        return max(self._codes, default=-1) >> 24

    def constant_term(self) -> Fraction:
        return Fraction(self._codes.get(0, 0), self._den)

    def coefficients(self) -> dict[Monomial, Fraction]:
        """Each nonzero coefficient as its own reduced Fraction."""
        den = self._den
        return {(k >> 16 & 255, k >> 8 & 255, k & 255): Fraction(n, den) for k, n in self._codes.items()}

    def product_degree(self, other: "Poly3") -> int:
        """The total degree of self * other, without forming it; -1 if either is zero.  ExponentLimitError,
        as for `__mul__`, if some exponent of the product would pass MAX_EXPONENT."""
        return check_product(self, other)

    def pair_sum(self, other: "Poly3", table: Mapping[int, int]) -> int:
        """Sum of n1 * n2 * table[k1 + k2] over the terms n1 x^k1 of self and n2 x^k2 of other (numerators
        over `denominator`) whose product x^(k1 + k2) has only even exponents.

        `table` maps monomial codes to ints and must hold every such product.  Only `other` is sorted
        into `parity_classes`; each term of self is paired with its one class in a plain int loop.  No
        exponent of the product may pass MAX_EXPONENT (ExponentLimitError, as for `__mul__`): a code
        sum must not carry from one exponent into the next.
        """
        check_product(self, other)
        classes = other.parity_classes()
        total = 0
        for k1, n1 in self._codes.items():
            if right := classes.get(k1 & _PARITY):
                pair_total = 0
                for k2, n2 in right:
                    pair_total += n2 * table[k1 + k2]
                total += n1 * pair_total
        return total

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
        return isinstance(other, Poly3) and self._den == other._den and self._codes == other._codes

    def __hash__(self) -> int:
        return hash((self._den, frozenset(self._codes.items())))

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other: "Poly3") -> "Poly3":
        return _signed_sum(self, other, 1)

    def __neg__(self) -> "Poly3":
        return _new({k: -n for k, n in self._codes.items()}, self._den)

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
        return _make(t, self._den * other._den)

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
        den = self._den
        g = gcd(cn, den)
        cn, den = cn // g, den // g
        g = gcd(cd, *self._codes.values()) if cd != 1 else 1
        cd //= g
        if g == 1 and cn == 1:
            t = self._codes
        else:
            t = {k: n // g * cn for k, n in self._codes.items()}
        return _new(t, den * cd)

    def partial(self, i: int) -> "Poly3":
        """Formal derivative with respect to x_i, i in {1, 2, 3}."""
        unit, shift = _variable(i)
        t: dict[int, int] = {}
        for k, n in self._codes.items():
            e = k >> shift & 255
            if e:
                t[k - unit] = n * e
        return _make(t, self._den)

    @staticmethod
    def partial_sum(pieces: Iterable[tuple[int, int, "Poly3"]]) -> "Poly3":
        """Sum of sign * dp/dx_i over (sign, i, p), i in {1, 2, 3}.

        The derivative counterpart of one `shift_rows` row: every term is differentiated and
        added as an integer numerator over lcm(den of each p), and the result
        is normalised once.  Every piece's i is checked, a zero piece's too.
        """
        pieces = tuple(pieces)
        den = lcm(*(p._den for _, _, p in pieces))
        t: dict[int, int] = {}
        get = t.get
        for sign, i, p in pieces:
            unit, shift = _variable(i)
            w = sign * (den // p._den)
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
            g = gcd(n, self._den)
            n, d = n // g, self._den // g
            cs = str(n) if d == 1 else f"{n}/{d}"
            parts.append(f"{cs} * x1^{k >> 16 & 255} x2^{k >> 8 & 255} x3^{k & 255}")
        return " + ".join(parts)

    __repr__ = __str__

    @classmethod
    def parse(cls, text: str) -> "Poly3":
        """The polynomial of the text form; ValueError names a bad coefficient or a malformed,
        out-of-range or repeated monomial."""
        text = text.strip()
        if text == "0":
            return cls.zero()
        terms: dict[Monomial, Fraction] = {}
        for chunk in text.split(" + "):
            coeff_part, _, mono_part = chunk.partition("*")
            coeff = coeff_part.strip()
            n_d = _COEFFICIENT.fullmatch(coeff)  # refused before any Fraction is built
            if not n_d or n_d[2] and (n_d[2] == "1" or gcd(int(n_d[1]), int(n_d[2])) != 1):
                raise ValueError(f"bad coefficient {coeff!r}")
            c = Fraction(coeff)
            exps = []
            for factor in mono_part.split():
                name, _, e = factor.partition("^")
                if name not in ("x1", "x2", "x3") or not _EXPONENT.fullmatch(e):
                    raise ValueError(f"bad monomial factor {factor!r}")
                exps.append((int(name[1]), int(e)))
            if [v for v, _ in exps] != [1, 2, 3]:
                raise ValueError(f"bad monomial {mono_part!r}")
            m = (exps[0][1], exps[1][1], exps[2][1])
            if m in terms:
                raise ValueError(f"repeated monomial {mono_part.strip()!r}")
            terms[m] = c
        return cls(terms)


P_ZERO = Poly3.zero()
P_ONE = Poly3.const(1)
X1 = Poly3.variable(1)
X2 = Poly3.variable(2)
X3 = Poly3.variable(3)


@cache
def monomials_up_to(degree: int) -> tuple[Monomial, ...]:
    """All exponent triples of total degree <= degree, graded-lex order; ExponentLimitError past MAX_EXPONENT."""
    if degree > MAX_EXPONENT:
        raise ExponentLimitError(f"degree {degree} is past {MAX_EXPONENT}")
    return tuple(
        (a, b, d - a - b)
        for d in range(degree + 1)
        for a in range(d, -1, -1)
        for b in range(d - a, -1, -1)
    )


@cache
def _row_codes(degree: int) -> tuple[int, ...]:
    return tuple(map(monomial_code, monomials_up_to(degree)))


@cache
def _shift_plan(rows: tuple[tuple[tuple[int, int, int], ...], ...]) -> tuple[tuple, Counter]:
    """The rows with (code of x_i, bit offset) added to each triple, and how many triples read each component."""
    plan = tuple(tuple((sign, c, _variable(i), i) for sign, c, i in row) for row in rows)
    return plan, Counter(c for row in rows for _, c, _ in row)


@cache
def _shift_factors(low: int, high: int, offset: int) -> tuple[int, tuple[int, ...]]:
    """(L, f): L = lcm(k + offset) over low <= k <= high, and f[k] = L // (k + offset) for those k (0 below)."""
    den = lcm(*range(low + offset, high + offset + 1))
    return den, tuple(den // (k + offset) if k >= low else 0 for k in range(high + 1))


class _Terms:
    """The {exponent triple: numerator} view of `Poly3.terms`; a code is decoded only when iterated."""

    __slots__ = ("_codes",)

    def __init__(self, codes: dict[int, int]):
        self._codes = codes

    def __len__(self) -> int:
        return len(self._codes)

    def __iter__(self):
        return map(_decode, self._codes)
