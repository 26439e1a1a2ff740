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

from tensorcomplex.ball import _moments, _pair_integral, integrate_ball
from tensorcomplex.fields import FieldKind, KindError, TypedField
from tensorcomplex.koszul import tc, td, tg
from tensorcomplex.operators import components_equal
from tensorcomplex.poly import MAX_EXPONENT, ExponentLimitError, Poly3, _row_codes, monomial_code, monomials_up_to

from conftest import fractions, matrix, monomials
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
    assert type(p.denominator) is int and p.denominator >= 1
    assert all(type(n) is int and n != 0 for n in nums)
    assert math.gcd(p.denominator, *nums) == 1
    if p.is_zero:
        assert p.denominator == 1


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
        assert p.coefficients().get(m, 0) == r.coeff(m)
    assert p.constant_term() == r.constant_term()
    assert p.degree() == r.degree()


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
@given(st.dictionaries(monomials(), fractions(max_num=40, max_den=60).filter(bool), min_size=1, max_size=6),
       st.booleans())
def test_parse_and_print_match_fraction_reference(chunks, cancel):
    # each monomial once with a nonzero coefficient, as the printer writes it,
    # in any order; the same monomial again, with the opposite coefficient, is refused
    text = " + ".join(f"{c} * x1^{a} x2^{b} x3^{e}" for (a, b, e), c in chunks.items())
    if cancel:
        (a, b, e), c = next(iter(chunks.items()))
        with pytest.raises(ValueError, match="^repeated monomial"):
            Poly3.parse(f"{text} + {-c} * x1^{a} x2^{b} x3^{e}")
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


@st.composite
def shift_tables(draw):
    """Components, some zero, with mixed denominators, and 1-4 rows of (sign, component, i) triples;
    a row may read one component more than once."""
    comps = draw(st.lists(st.one_of(ref_polys(), st.just(FractionPoly3())), min_size=1, max_size=4))
    triple = st.tuples(st.sampled_from([1, -1]), st.integers(0, len(comps) - 1), st.sampled_from([1, 2, 3]))
    return comps, tuple(draw(st.lists(st.lists(triple, min_size=1, max_size=4).map(tuple), min_size=1, max_size=4)))


@settings(max_examples=200)
@given(shift_tables(), st.integers(1, 4))
def test_shift_rows_matches_the_reference_shift_sum_row_by_row(table, offset):
    comps, rows = table
    got = Poly3.shift_rows([fast(r) for r in comps], rows, offset)
    assert len(got) == len(rows)
    for p, row in zip(got, rows):
        assert_same(p, shift_sum([(sign, i, comps[c]) for sign, c, i in row], offset))


def test_shift_rows_reads_a_component_twice_a_zero_one_and_mixed_denominators():
    p = Poly3.parse("1/2 * x1^1 x2^0 x3^0 + -3/4 * x1^0 x2^2 x3^0")
    q = Poly3.parse("5/7 * x1^0 x2^0 x3^1 + 1/9 * x1^2 x2^1 x3^0")
    comps = (p, q, Poly3.zero())
    rows = (
        ((1, 0, 1), (1, 0, 2)),  # p read twice
        ((1, 0, 3), (-1, 0, 3)),  # p read twice, cancelling
        ((1, 2, 1),),  # the zero component
        ((1, 0, 2), (-1, 1, 1), (1, 2, 3)),  # denominators 4, 7 and 9
    )
    got = Poly3.shift_rows(comps, rows, 2)
    refs = [FractionPoly3(c.coefficients()) for c in comps]
    for out, row in zip(got, rows, strict=True):
        assert_same(out, shift_sum([(sign, i, refs[c]) for sign, c, i in row], 2))
    assert got[1].is_zero and got[2].is_zero
    assert got[3].denominator == 16 * 9 * 5 * 7  # lcm(21, 6, 16, 45) of its terms


@pytest.mark.parametrize("text, offset, expected", [
    ("2/5 * x1^2 x2^0 x3^0 + 4/5 * x1^0 x2^2 x3^0", 1, "4/15 * x1^1 x2^2 x3^0 + 2/15 * x1^3 x2^0 x3^0"),
    ("3 * x1^2 x2^0 x3^0", 1, "1 * x1^3 x2^0 x3^0"),  # the factor 1/3 cancels the numerator
    ("5/2 * x1^0 x2^0 x3^0", 3, "5/6 * x1^1 x2^0 x3^0"),
])
def test_shift_rows_of_a_single_degree_is_canonical_over_k_plus_offset(text, offset, expected):
    (out,) = Poly3.shift_rows([Poly3.parse(text)], (((1, 0, 1),),), offset)
    assert_canonical(out)
    assert str(out) == expected
    assert out.denominator == Poly3.parse(expected).denominator


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
    # den is also the shift offset of shift_rows, as tg / tc / td use 1 / 2 / 3
    r, s = pair
    p, q = fast(r), fast(s)
    results = [
        Poly3(), Poly3.zero(), Poly3.const(c), Poly3.monomial((1, 2, 0), c), Poly3.variable(i),
        p, p + q, p - q, p * q, -p, p.scale(c), p.partial(i), Poly3.parse(str(p)),
        Poly3.from_row(3, [int(p.coefficients().get(m, 0) * p.denominator * den) for m in monomials_up_to(3)],
                       p.denominator * den),
        Poly3.from_row(1, [0, den, 0, 0], den),
        *Poly3.shift_rows((p, q), (((1, 0, i), (-1, 1, 4 - i)), ((1, 1, i),), ((1, 0, i), (-1, 0, i))), den),
        Poly3.partial_sum(((1, i, p), (-1, 4 - i, q), (1, i, p * q), (-1, i, p))),
    ]
    v = TypedField.vector([p, q, p * q])
    results += tg(v).components + tc(v).components + td(TypedField.scalar(q)).components
    for result in results:
        assert_canonical(result)


@given(ref_polys(), st.integers(1, 60))
def test_from_row_over_a_multiple_of_the_denominator(r, k):
    p = fast(r)
    den = p.denominator * k
    nums = [r.coeff(m) * den for m in monomials_up_to(3)]
    assert all(n.denominator == 1 for n in nums)
    assert Poly3.from_row(3, [int(n) for n in nums], den) == p


@st.composite
def numerator_rows(draw):
    """(degree, row, den): all-zero rows, rows whose entries share a factor with den, and mixed rows."""
    degree, den = draw(st.integers(0, 6)), draw(st.integers(1, 12))
    size = len(monomials_up_to(degree))
    mode = draw(st.sampled_from(["zero", "shared", "mixed"]))
    if mode == "zero":
        return degree, [0] * size, den
    factor = draw(st.sampled_from([d for d in range(1, den + 1) if den % d == 0])) if mode == "shared" else 1
    entries = st.one_of(st.just(0), st.integers(-40, 40))
    return degree, [n * factor for n in draw(st.lists(entries, min_size=size, max_size=size))], den


@settings(max_examples=300)
@given(numerator_rows())
def test_from_row_matches_fraction_reference(case):
    degree, row, den = case
    ref = FractionPoly3({m: Fraction(n, den) for m, n in zip(monomials_up_to(degree), row)})
    assert_same(Poly3.from_row(degree, row, den), ref)
    assert_same(Poly3.from_row(degree, iter(row), den), ref)  # any iterable row


def test_from_row_rejects_bad_denominators_lengths_and_degrees():
    for den in (0, -3):
        with pytest.raises(ValueError, match="denominator must be positive"):
            Poly3.from_row(1, [0, 1, 0, 0], den)
    for row in ([1, 2, 3], [1, 2, 3, 4, 5]):
        with pytest.raises(ValueError):
            Poly3.from_row(1, row)
    tables = monomials_up_to.cache_info().currsize, _row_codes.cache_info().currsize
    for _ in range(2):  # a rejected degree is rejected again: nothing is memoised for it
        with pytest.raises(ExponentLimitError, match="degree 256 is past 255"):
            Poly3.from_row(MAX_EXPONENT + 1, iter(()))
        with pytest.raises(ExponentLimitError, match="degree 256 is past 255"):
            monomials_up_to(MAX_EXPONENT + 1)
    # No table of the 2.9 million monomials of degree <= 256 was built or kept.
    assert (monomials_up_to.cache_info().currsize, _row_codes.cache_info().currsize) == tables


def test_term_maps_reject_bad_exponents():
    for _ in range(2):  # a rejected monomial is rejected again
        with pytest.raises(ValueError, match="negative exponent"):
            Poly3({(1, -1, 0): 1})
        with pytest.raises(ExponentLimitError, match="exponent past 255 in monomial"):
            Poly3({(1, 0, 0): 1, (0, 0, 256): 1})
    top = Poly3({(0, 0, MAX_EXPONENT): Fraction(3, 6), (0, 0, 0): 0})
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
        matrix([[z, x1, z], [half, z, z], [z, z, z]], FieldKind.SYMMETRIC)


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
    row = ((1, 0, i), (-1, 1, 4 - i), (1, 1, i))
    if any(_top_exponent(ref, j) == MAX_EXPONENT for _, j, ref in pieces):
        with pytest.raises(ExponentLimitError, match="past 255"):
            Poly3.shift_rows((p, q), (row,), offset)
    else:
        assert_same(*Poly3.shift_rows((p, q), (row,), offset), shift_sum(pieces, offset))
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


@st.composite
def pair_sum_operands(draw):
    """Two operands of `pair_sum`: drawn, or one of them zero, a single monomial, a polynomial with only
    odd exponents (degree up to 9), or the same object as the other."""
    p = fast(draw(ref_polys()))
    shape = draw(st.sampled_from(["drawn", "zero", "monomial", "odd", "itself"]))
    if shape == "zero":
        return p, Poly3.zero()
    if shape == "monomial":
        return p, Poly3.monomial(draw(monomials()), draw(fractions(max_num=40, max_den=60)))
    if shape == "odd":
        odd = st.tuples(*[st.sampled_from([1, 3])] * 3)
        return p, Poly3(draw(st.dictionaries(odd, fractions(max_num=40, max_den=60), min_size=1, max_size=4)))
    return p, p if shape == "itself" else fast(draw(ref_polys()))


@settings(max_examples=100)
@given(pair_sum_operands(), st.integers(0, 3))
def test_pair_sum_is_the_plain_sum_over_term_pairs_in_the_table(operands, k):
    # Reference: every term pair, by exponent triples and Fractions, whose product is a key of the
    # table.  The table covers every even product: each operand has degree at most 9.
    p, q = operands
    _, table = _moments(9, k)
    expected = sum(
        (c1 * c2 * table[code]
         for m1, c1 in p.coefficients().items()
         for m2, c2 in q.coefficients().items()
         if (code := monomial_code(tuple(a + b for a, b in zip(m1, m2)))) in table),
        Fraction(0),
    )
    total = p.pair_sum(q, table)
    assert type(total) is int and Fraction(total, p.denominator * q.denominator) == expected
    assert q.pair_sum(p, table) == total
    assert p.product_degree(q) == q.product_degree(p) == (p * q).degree()


@pytest.mark.parametrize("left, right, exponent, i", [
    ((128, 0, 0), (128, 0, 2), 256, 1),
    ((0, 200, 0), (1, 57, 0), 257, 2),  # no term pair has an even product: refused all the same, as by *
    ((0, 0, MAX_EXPONENT), (0, 0, 1), 256, 3),
])
def test_pair_sum_refuses_a_product_past_the_exponent_limit(left, right, exponent, i):
    p, q = Poly3.monomial(left) + Poly3.variable(2), Poly3.monomial(right, Fraction(2, 3))
    message = f"^a product has exponent {exponent} of x{i}, past {MAX_EXPONENT}$"
    for a, b in ((p, q), (q, p)):
        with pytest.raises(ExponentLimitError, match=message):
            a.pair_sum(b, {})
        with pytest.raises(ExponentLimitError, match=message):
            a.product_degree(b)
        with pytest.raises(ExponentLimitError, match=message):
            a * b


@pytest.mark.parametrize("i", [0, 4, -1])
def test_shift_rows_and_partial_sum_reject_a_missing_variable(i):
    # Every piece's index is checked, also on a zero piece and after a good piece.
    x1 = Poly3.variable(1)
    for pieces in ([(1, i, x1)], [(1, i, Poly3.zero())], [(1, 1, x1), (-1, i, Poly3.zero())]):
        with pytest.raises(ValueError, match=f"^no variable x{i}$"):
            Poly3.shift_rows([p for *_, p in pieces], (tuple((sign, c, j) for c, (sign, j, _) in enumerate(pieces)),), 1)
        with pytest.raises(ValueError, match=f"^no variable x{i}$"):
            Poly3.partial_sum(pieces)
    with pytest.raises(ValueError, match=f"^no variable x{i}$"):  # in a later row, on all-zero components
        Poly3.shift_rows([Poly3.zero()], (((1, 0, 1),), ((1, 0, i),)), 2)
    with pytest.raises(ValueError, match=f"^no variable x{i}$"):
        x1.partial(i)
    with pytest.raises(ValueError, match=f"^no variable x{i}$"):
        Poly3.variable(i)  # not x3 for i = 0, as indexing from the end would give
