"""The integer-numerator Poly3 core against the Fraction-per-term reference.

Every operation is run on both representations from the same Fraction
coefficients; the results must have equal coefficients and equal text, and
every Poly3 result must be in canonical form.  Denominators are mixed (up to
60) and many inputs are drawn so that terms cancel.
"""

import math
from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from tensorcomplex.ball import _pair_integral, integrate_ball
from tensorcomplex.fields import FieldKind, KindError, TypedField
from tensorcomplex.koszul import tc, td, tg
from tensorcomplex.operators import components_equal
from tensorcomplex.poly import MAX_EXPONENT, ExponentLimitError, Poly3, monomial_code

from conftest import fractions, monomials
from reference_poly import FractionPoly3, partial_sum, shift_sum

_X = [FractionPoly3.variable(i) for i in (1, 2, 3)]


def coeff_maps(max_degree=3, max_terms=6):
    return st.dictionaries(monomials(max_degree), fractions(max_num=40, max_den=60), max_size=max_terms)


@st.composite
def ref_polys(draw, max_degree=3):
    return FractionPoly3(draw(coeff_maps(max_degree)))


@st.composite
def ref_pairs(draw):
    """Two reference polys, often built so that their sum, difference or product cancels."""
    u, v = draw(ref_polys()), draw(ref_polys())
    mode = draw(st.sampled_from(["independent", "negated", "multiple", "squares", "partial"]))
    if mode == "negated":  # u + v - u cancels every term of u
        return u + v, v - u
    if mode == "multiple":  # u and c*u: u - c*u cancels when c = 1
        return u, u.scale(draw(st.sampled_from([1, -1, 2, Fraction(1, 3), Fraction(-5, 7)])))
    if mode == "squares":  # (u + v)(u - v): cross terms cancel
        return u + v, u - v
    if mode == "partial":  # shares some terms of u with opposite sign
        keep = draw(st.integers(0, len(u.terms)))
        return u, FractionPoly3({m: -c for m, c in list(u.terms.items())[:keep]}) + v
    return u, v


def scalars():
    return st.one_of(st.integers(-12, 12), fractions(max_num=40, max_den=60), st.just(Fraction(0)))


def fast(ref: FractionPoly3) -> Poly3:
    return Poly3(ref.terms)


def assert_canonical(p: Poly3):
    # Reads the packed layout: every key must be S << 24 | a << 16 | b << 8 | c with S = a + b + c.
    for k in p._codes:
        a, b, c = k >> 16 & 255, k >> 8 & 255, k & 255
        assert k == monomial_code((a, b, c))
    nums = list(p._codes.values())
    assert type(p.den) is int and p.den >= 1
    assert all(type(n) is int and n != 0 for n in nums)
    assert math.gcd(p.den, *nums) == 1
    if p.is_zero:
        assert p.den == 1


def assert_same(p: Poly3, ref: FractionPoly3):
    assert_canonical(p)
    assert p.coefficients() == ref.terms
    assert str(p) == str(ref)


@settings(max_examples=200)
@given(ref_pairs(), scalars(), st.sampled_from([1, 2, 3]))
def test_arithmetic_matches_fraction_reference(pair, c, i):
    r, s = pair
    p, q = fast(r), fast(s)
    assert_same(p + q, r + s)
    assert_same(p - q, r - s)
    assert_same(q - p, s - r)
    assert_same(p * q, r * s)
    assert_same(-p, -r)
    assert_same(p.scale(c), r.scale(c))
    assert_same(q.scale(c), s.scale(c))
    assert_same(p.partial(i), r.partial(i))
    assert_same((p * q).partial(i), (r * s).partial(i))
    assert (p == q) == (r == s)
    for m in list(r.terms) + [(0, 0, 0), (9, 0, 0)]:
        assert p.coeff(m) == r.coeff(m)
    assert p.constant_term() == r.constant_term()
    assert p.degree() == r.degree()


@st.composite
def weighted_refs(draw):
    """(weight, reference poly) pairs; some lists repeat every pair with the opposite weight, so the sum cancels."""
    pairs = draw(st.lists(st.tuples(scalars(), ref_polys()), max_size=5))
    if draw(st.booleans()):
        pairs += [(-w, r) for w, r in pairs]
    return pairs


@settings(max_examples=200)
@given(weighted_refs())
def test_combination_matches_fraction_reference(pairs):
    expected = sum((r.scale(w) for w, r in pairs), FractionPoly3())
    assert_same(Poly3.combination((w, fast(r)) for w, r in pairs), expected)


def test_combination_of_nothing_zero_weights_and_cancelling_terms_is_zero():
    p = Poly3.parse("1/2 * x1^1 x2^0 x3^0 + -3/4 * x1^0 x2^2 x3^0")
    for pairs in ([], [(0, p)], [(Fraction(0), p), (3, Poly3.zero())], [(2, p), (Fraction(-4, 2), p)]):
        result = Poly3.combination(pairs)
        assert_canonical(result)
        assert result.is_zero
    assert Poly3.combination([(Fraction(6, 1), p), (-4, p)]) == p.scale(2)


@st.composite
def derivative_pieces(draw):
    """0-4 (sign, i, reference poly) pieces; some polys are zero and some lists cancel to zero."""
    poly = st.one_of(ref_polys(max_degree=4), st.just(FractionPoly3()))
    pieces = draw(st.lists(st.tuples(st.sampled_from([1, -1]), st.sampled_from([1, 2, 3]), poly), max_size=4))
    mode = draw(st.sampled_from(["random", "negated", "mixed"]))
    if mode == "negated":  # each piece again with the opposite sign
        pieces = pieces[:2] + [(-sign, i, r) for sign, i, r in pieces[:2]]
    elif mode == "mixed":  # d_i d_j u - d_j d_i u, as in curl grad u = 0
        u = draw(ref_polys(max_degree=4))
        i, j, _ = draw(st.permutations([1, 2, 3]))
        pieces = pieces[:2] + [(1, i, u.partial(j)), (-1, j, u.partial(i))]
    return pieces


@settings(max_examples=300)
@given(derivative_pieces())
def test_partial_sum_matches_fraction_reference(pieces):
    assert_same(Poly3.partial_sum((sign, i, fast(r)) for sign, i, r in pieces), partial_sum(pieces))


def test_partial_sum_of_nothing_and_cancelling_pieces_is_zero():
    p = Poly3.parse("1/2 * x1^2 x2^0 x3^0 + -3/4 * x1^0 x2^2 x3^1")
    for pieces in ([], [(1, 2, Poly3.zero())], [(1, 1, p), (-1, 1, p)], [(1, 1, Poly3.const(5))]):
        result = Poly3.partial_sum(pieces)
        assert_canonical(result)
        assert result.is_zero
    assert Poly3.partial_sum([(1, 3, p), (1, 3, p)]) == p.partial(3).scale(2)
    with pytest.raises(ValueError):
        Poly3.partial_sum([(1, 4, p)])


@settings(max_examples=200)
@given(ref_pairs(), scalars())
def test_components_equal_agrees_with_a_zero_difference(pair, c):
    r, s = pair
    p, q = fast(r), fast(s)
    a = TypedField.vector([p, q, p.scale(c)])
    others = [
        TypedField.vector([p + q - q, (q - p) + p, p.scale(Fraction(1, 3)).scale(3 * c)]),  # equal, built otherwise
        TypedField.vector([q, p, p.scale(c)]),
        TypedField.vector([p, q, q.scale(c)]),
        TypedField.vector([p, q.scale(Fraction(1, 2)) + q.scale(Fraction(1, 2)), p + q]),
    ]
    for b in others:
        expected = all((x - y).is_zero for x, y in zip(a.components, b.components))
        assert components_equal(a, b) == expected == components_equal(b, a)
    assert components_equal(a, others[0])
    assert not components_equal(a, TypedField.scalar(p))


@settings(max_examples=200)
@given(st.lists(st.tuples(monomials(), fractions(max_num=40, max_den=60)), min_size=1, max_size=6), st.booleans())
def test_parse_and_print_match_fraction_reference(chunks, cancel):
    if cancel:  # the same monomial again with the opposite coefficient
        chunks = chunks + [(chunks[0][0], -chunks[0][1])]
    text = " + ".join(f"{c} * x1^{a} x2^{b} x3^{e}" for (a, b, e), c in chunks)
    p, r = Poly3.parse(text), FractionPoly3.parse(text)
    assert_same(p, r)
    assert Poly3.parse(str(p)) == p
    assert str(Poly3.parse(str(r))) == str(r)


@st.composite
def ref_vectors(draw):
    """Three reference polys; some draws make the shifted terms of tg or tc cancel."""
    p, r = draw(ref_polys(max_degree=2)), draw(ref_polys(max_degree=2))
    mode = draw(st.sampled_from(["random", "tg-cancels", "tc-cancels"]))
    if mode == "tg-cancels":  # v . x loses every x1 x2 p term
        return [_X[1] * p, -(_X[0] * p), r]
    if mode == "tc-cancels":  # (q x x)_3 = q1 x2 - q2 x1 = 0
        return [_X[0] * p, _X[1] * p, r]
    return [p, r, draw(ref_polys())]


@settings(max_examples=100)
@given(ref_vectors(), ref_polys())
def test_koszul_operators_match_fraction_reference(refs, w):
    q1, q2, q3 = refs
    v = TypedField.vector([fast(r) for r in refs])
    expected_tg = [shift_sum(((1, 1, q1), (1, 2, q2), (1, 3, q3)), 1)]
    expected_tc = [
        shift_sum(((1, 3, q2), (-1, 2, q3)), 2),
        shift_sum(((1, 1, q3), (-1, 3, q1)), 2),
        shift_sum(((1, 2, q1), (-1, 1, q2)), 2),
    ]
    expected_td = [shift_sum(((1, j, w),), 3) for j in (1, 2, 3)]
    for got, expected in (
        (tg(v), expected_tg),
        (tc(v), expected_tc),
        (td(TypedField.scalar(fast(w))), expected_td),
    ):
        for p, r in zip(got.components, expected, strict=True):
            assert_same(p, r)


@settings(max_examples=100)
@given(st.lists(ref_pairs(), min_size=1, max_size=3))
def test_pair_integral_matches_fraction_reference(pairs):
    # Reference: integrate each product polynomial monomial by monomial.
    expected = sum(
        (c * integrate_ball(Poly3.monomial(m)).coeff for r, s in pairs for m, c in (r * s).terms.items()),
        Fraction(0),
    )
    assert _pair_integral([(fast(r), fast(s)) for r, s in pairs]).coeff == expected


@settings(max_examples=200)
@given(ref_pairs(), scalars(), st.sampled_from([1, 2, 3]), st.integers(1, 60))
def test_every_operation_returns_canonical_form(pair, c, i, den):
    # den is also the shift offset of shift_sum, as tg / tc / td use 1 / 2 / 3
    r, s = pair
    p, q = fast(r), fast(s)
    results = [
        Poly3(), Poly3.zero(), Poly3.const(c), Poly3.monomial((1, 2, 0), c), Poly3.variable(i),
        p, p + q, p - q, p * q, -p, p.scale(c), p.partial(i), Poly3.parse(str(p)),
        Poly3.from_numerators({m: int(c * p.denominator * den) for m, c in p.coefficients().items()}, p.denominator * den),
        Poly3.from_numerators({(0, 0, 0): 0, (1, 0, 0): den}, den),
        Poly3.shift_sum(((1, i, p), (-1, 4 - i, q)), den),
        Poly3.combination(((c, p), (Fraction(1, den), q), (-c, p))),
        Poly3.partial_sum(((1, i, p), (-1, 4 - i, q), (1, i, p * q), (-1, i, p))),
    ]
    v = TypedField.vector([p, q, p * q])
    results += tg(v).components + tc(v).components + td(TypedField.scalar(q)).components
    for result in results:
        assert_canonical(result)


@given(ref_polys(), st.integers(1, 60))
def test_from_numerators_over_a_multiple_of_the_denominator(r, k):
    p = fast(r)
    den = p.denominator * k
    nums = {m: c * den for m, c in r.terms.items()}
    assert all(n.denominator == 1 for n in nums.values())
    assert Poly3.from_numerators({m: int(n) for m, n in nums.items()}, den) == p


def test_from_numerators_rejects_bad_denominators_and_exponents():
    with pytest.raises(ValueError, match="denominator must be positive"):
        Poly3.from_numerators({(1, 0, 0): 1}, 0)
    for _ in range(2):  # a rejected monomial is rejected again: codes are memoised only when valid
        with pytest.raises(ValueError, match="negative exponent"):
            Poly3.from_numerators({(1, -1, 0): 1})
        with pytest.raises(ExponentLimitError, match="exponent past 255 in monomial"):
            Poly3.from_numerators({(1, 0, 0): 1, (0, 0, 256): 1})
    top = Poly3.from_numerators({(0, 0, MAX_EXPONENT): 3, (0, 0, 0): 0}, 6)
    assert top.coefficients() == {(0, 0, MAX_EXPONENT): Fraction(1, 2)}


def test_text_keeps_each_coefficient_reduced():
    # Over the shared denominator 6 the numerators are 3, 2 and 6; the text reduces each.
    p = Poly3.parse("1/2 * x1^1 x2^0 x3^0 + 1/3 * x1^0 x2^1 x3^0 + 1 * x1^0 x2^0 x3^1")
    assert p.denominator == 6
    assert str(p) == "1 * x1^0 x2^0 x3^1 + 1/3 * x1^0 x2^1 x3^0 + 1/2 * x1^1 x2^0 x3^0"


def test_symmetry_needs_equal_polynomials_not_equal_numerators():
    # x1 and x1/2 share the numerator map {x1: 1}; only the denominators differ.
    x1 = Poly3.variable(1)
    half = x1.scale(Fraction(1, 2))
    assert x1 != half
    z = Poly3.zero()
    with pytest.raises(KindError):
        TypedField.matrix([[z, x1, z], [half, z, z], [z, z, z]], FieldKind.SYMMETRIC)


def _top_exponent(r: FractionPoly3, j: int) -> int:
    return max((m[j - 1] for m in r.terms), default=0)


@st.composite
def ref_pairs_near_the_limit(draw):
    """Two reference polys with exponents near MAX_EXPONENT.  In half the draws
    the top exponents of the second complement the first's, so their product
    lands exactly at the limit in every variable; otherwise it may pass it."""
    exponent = st.one_of(st.integers(0, 2), st.integers(125, 130), st.integers(MAX_EXPONENT - 3, MAX_EXPONENT))
    coeff = fractions(max_num=40, max_den=60).filter(bool)
    r = FractionPoly3(draw(st.dictionaries(st.tuples(exponent, exponent, exponent), coeff, min_size=1, max_size=4)))
    if draw(st.booleans()):
        return r, FractionPoly3(draw(st.dictionaries(st.tuples(exponent, exponent, exponent), coeff, max_size=4)))
    caps = tuple(MAX_EXPONENT - _top_exponent(r, j) for j in (1, 2, 3))
    below = st.tuples(*(st.integers(max(0, cap - 2), cap) for cap in caps))
    terms = draw(st.dictionaries(below, coeff, max_size=3))
    terms[caps] = draw(coeff)
    return r, FractionPoly3(terms)


@settings(max_examples=300)
@given(ref_pairs_near_the_limit(), st.sampled_from([1, 2, 3]), st.integers(1, 3))
def test_exponents_near_the_limit_match_fraction_reference(pair, i, offset):
    r, s = pair
    p, q = fast(r), fast(s)
    assert_same(p, r)
    assert p.degree() == r.degree()
    # The leading terms in x_j order multiply to a nonzero term, so the product
    # reaches the sum of the top exponents of x_j exactly.
    if s.terms and any(_top_exponent(r, j) + _top_exponent(s, j) > MAX_EXPONENT for j in (1, 2, 3)):
        with pytest.raises(ExponentLimitError, match="past 255"):
            p * q
    else:
        assert_same(p * q, r * s)
        assert (p * q).degree() == (r * s).degree()
    pieces = [(1, i, r), (-1, 4 - i, s), (1, i, s)]
    if any(_top_exponent(ref, j) == MAX_EXPONENT for _, j, ref in pieces):
        with pytest.raises(ExponentLimitError, match="past 255"):
            Poly3.shift_sum(((sign, j, fast(ref)) for sign, j, ref in pieces), offset)
    else:
        assert_same(Poly3.shift_sum(((sign, j, fast(ref)) for sign, j, ref in pieces), offset), shift_sum(pieces, offset))
    assert_same(Poly3.partial_sum((sign, j, fast(ref)) for sign, j, ref in pieces), partial_sum(pieces))


@given(ref_polys())
def test_parity_classes_partition_the_terms_by_exponent_parity(r):
    p = fast(r)
    monomial_of = {monomial_code(m): m for m in r.terms}
    pairs = [(parity, k, n) for parity, members in p.parity_classes().items() for k, n in members]
    assert {monomial_of[k]: Fraction(n, p.denominator) for _, k, n in pairs} == r.terms
    assert len(pairs) == len(r.terms)
    for parity1, k1, _ in pairs:
        for parity2, k2, _ in pairs:
            m = tuple(x + y for x, y in zip(monomial_of[k1], monomial_of[k2]))
            assert (parity1 == parity2) == all(e % 2 == 0 for e in m)
            assert monomial_code(m) == k1 + k2


@pytest.mark.parametrize("i", [0, 4, -1])
def test_shift_sum_and_partial_sum_reject_a_missing_variable(i):
    # Every piece's index is checked, also on a zero piece and after a good piece.
    x1 = Poly3.variable(1)
    for pieces in ([(1, i, x1)], [(1, i, Poly3.zero())], [(1, 1, x1), (-1, i, Poly3.zero())]):
        with pytest.raises(ValueError, match=f"^no variable x{i}$"):
            Poly3.shift_sum(pieces, 1)
        with pytest.raises(ValueError, match=f"^no variable x{i}$"):
            Poly3.partial_sum(pieces)
    with pytest.raises(ValueError, match=f"^no variable x{i}$"):
        x1.partial(i)
