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
from tensorcomplex.poly import Poly3

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
    nums = list(p.terms.values())
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
        Poly3.from_numerators({m: n for m, n in p.numerators(p.denominator * den)}, p.denominator * den),
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
def test_numerators_over_a_multiple_of_the_denominator(r, k):
    p = fast(r)
    den = p.denominator * k
    nums = dict(p.numerators(den))
    assert {m: Fraction(n, den) for m, n in nums.items()} == r.terms
    assert Poly3.from_numerators(nums, den) == p


def test_numerators_and_from_numerators_reject_bad_denominators():
    p = Poly3({(1, 0, 0): Fraction(1, 6)})
    with pytest.raises(ValueError):
        p.numerators(4)
    with pytest.raises(ValueError):
        Poly3.from_numerators({(1, 0, 0): 1}, 0)


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
