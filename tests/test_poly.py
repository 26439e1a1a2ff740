import ast
from fractions import Fraction
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import given

from tensorcomplex.fields import TypedField
from tensorcomplex.koszul import tc, td, tg
from tensorcomplex import ball
from tensorcomplex.ball import _odd_factorial, _pair_integral, integrate_ball
from tensorcomplex.poly import MAX_EXPONENT, P_ONE, ExponentLimitError, Poly3, X1, X2, X3, monomial_code, monomials_up_to

from conftest import fractions, polys


def test_partial_power_rule():
    p = X1 * X1 * X3
    assert p.partial(1) == X1.scale(2) * X3
    assert p.partial(3) == X1 * X1


def test_partial_absent_variable():
    assert (X1 * X2).partial(3).is_zero


def test_difference_of_squares():
    assert (X1 + X2) * (X1 - X2) == X1 * X1 - X2 * X2


def test_no_zero_coefficients_stored():
    p = X1 - X1
    assert p.is_zero and p.coefficients() == {}
    q = Poly3({(1, 0, 0): Fraction(0), (0, 1, 0): Fraction(2)})
    assert q.coeff((1, 0, 0)) == 0
    assert q.coefficients() == {(0, 1, 0): Fraction(2)}


@given(polys(), st.data())
def test_results_never_store_a_zero_coefficient(p, data):
    # Poly3 equality compares numerators and denominator, which is exact only if no
    # operation leaves a zero coefficient behind; q = -p and c = 0 force cancellation.
    q = data.draw(st.one_of(polys(), st.just(-p), st.just(p.scale(3))))
    c = data.draw(st.one_of(fractions(), st.just(Fraction(0))))
    u, v, w = (data.draw(polys()) for _ in range(3))
    results = [p + q, p - q, q - p.scale(3), p * q, (p + X1) * (p - X1), p.scale(c), p.partial(1), q.partial(3)]
    results += tg(TypedField.vector([u, v, w])).components + tg(TypedField.vector([X2 * p, -(X1 * p), w])).components
    results += tc(TypedField.vector([u, v, w])).components + tc(TypedField.vector([X1 * p, X2 * p, w])).components
    results += td(TypedField.scalar(q)).components
    for r in results:
        assert all(coeff != 0 for coeff in r.coefficients().values())


def test_negative_exponents_rejected():
    with pytest.raises(ValueError):
        Poly3({(-1, 0, 0): Fraction(1)})


def test_exponents_past_the_limit_raise_and_never_wrap():
    top = Poly3.monomial((MAX_EXPONENT, 0, 0), Fraction(1, 2))
    assert top.degree() == 255 and str(top) == "1/2 * x1^255 x2^0 x3^0"
    assert Poly3.parse(str(top)) == top
    assert (top * X2).coefficients() == {(255, 1, 0): Fraction(1, 2)}
    assert top.partial(1).coefficients() == {(254, 0, 0): Fraction(255, 2)}
    with pytest.raises(ExponentLimitError, match="^a product has exponent 256 of x1, past 255$"):
        top * X1
    with pytest.raises(ExponentLimitError, match="^a product has exponent 510 of x1, past 255$"):
        top * top
    assert Poly3.shift_sum([(1, 2, top)], 1) == (top * X2).scale(Fraction(1, 256))
    with pytest.raises(ExponentLimitError, match="^x1 \\* p has an exponent of x1 past 255$"):
        Poly3.shift_sum([(1, 2, top), (1, 1, top)], 1)
    with pytest.raises(ExponentLimitError, match="exponent past 255 in monomial"):
        Poly3.parse("1 * x1^0 x2^256 x3^0")
    with pytest.raises(ExponentLimitError, match="exponent past 255 in monomial"):
        Poly3.monomial((0, 0, 256))
    assert top.coeff((256, 0, 0)) == 0 and top.coeff((-1, 0, 0)) == 0
    # Only single exponents are limited: total degree may pass 255.
    wide = Poly3.monomial((200, 0, 0)) * Poly3.monomial((0, 200, 200))
    assert wide.degree() == 600 and wide.coefficients() == {(200, 200, 200): Fraction(1)}
    assert wide.partial(3).coefficients() == {(200, 200, 199): Fraction(200)}


def _ball_moment(m):
    """The closed form 4 (a-1)!! (b-1)!! (c-1)!! / (a+b+c+3)!! of the ball integral of x^m / pi, m even."""
    a, b, c = m
    return Fraction(4 * _odd_factorial(a - 1) * _odd_factorial(b - 1) * _odd_factorial(c - 1), _odd_factorial(a + b + c + 3))


def test_ball_integrals_near_the_exponent_limit(monkeypatch):
    # The real moment table past degree 250 holds over 300,000 entries (seconds and 100 MB to
    # build), so serve only the moments of the monomials these pairings form.  A code sum that
    # carried into the next exponent would miss the table and raise KeyError.
    formed = [(254, 0, 0), (128, 0, 0), (128, 128, 0), (128, 128, 2)]
    asked = []

    def moments(half):
        asked.append(half)
        scale = _odd_factorial(2 * half + 3)
        return scale, {monomial_code(m): int(_ball_moment(m) * scale) for m in formed}

    monkeypatch.setattr(ball, "_moments", moments)
    assert integrate_ball(Poly3.monomial((MAX_EXPONENT, 0, 0))).is_zero
    assert integrate_ball(Poly3.monomial((254, 0, 0))).coeff == Fraction(4, 255 * 257)
    pairs = [(Poly3.monomial((127, 0, 0)), Poly3.monomial((127, 0, 1)) + X1.scale(3))]
    assert _pair_integral(pairs).coeff == 3 * Fraction(4, 129 * 131)
    # Only single exponents are limited: a product of degree 258 pairs.
    pairs = [(Poly3.monomial((128, 128, 0)), P_ONE + Poly3.monomial((0, 0, 2), 3))]
    assert _pair_integral(pairs).coeff == _ball_moment((128, 128, 0)) + 3 * _ball_moment((128, 128, 2))
    assert asked == [127, 127, 127, 129]
    pairs = [(X2, X2), (Poly3.monomial((128, 0, 0)), Poly3.monomial((128, 0, 2)))]
    with pytest.raises(ExponentLimitError, match="^a product has exponent 256 of x1, past 255$"):
        _pair_integral(pairs)
    assert len(asked) == 4


def test_degree_and_homogeneous_parts():
    p = P_ONE + X1 * X2 + X3
    assert p.degree() == 2
    assert Poly3.zero().degree() == -1


@given(polys(), polys(), polys())
def test_ring_axioms(p, q, r):
    assert (p + q) * r == p * r + q * r
    assert p * q == q * p
    assert (p * q) * r == p * (q * r)


@given(polys(), polys())
def test_derivative_product_rule(p, q):
    for i in (1, 2, 3):
        assert (p * q).partial(i) == p.partial(i) * q + q.partial(i) * p


@given(polys())
def test_text_round_trip(p):
    assert Poly3.parse(str(p)) == p
    assert str(Poly3.parse(str(p))) == str(p)


def test_parse_fraction_forms():
    assert Poly3.parse("5/6 * x1^1 x2^0 x3^2") == Poly3({(1, 0, 2): Fraction(5, 6)})
    assert Poly3.parse("-3 * x1^0 x2^0 x3^0") == Poly3.const(-3)
    assert Poly3.parse("0").is_zero


def test_monomials_up_to_counts():
    # C(d+3, 3) monomials of degree <= d
    assert len(monomials_up_to(0)) == 1
    assert len(monomials_up_to(3)) == 20
    assert len(monomials_up_to(4)) == 35


def test_monomials_up_to_is_one_shared_immutable_tuple():
    # cached: every draw of a field reads the same tuple, which no caller can mutate
    assert type(monomials_up_to(2)) is tuple
    assert monomials_up_to(2) is monomials_up_to(2)


_PACKAGE = Path(__file__).resolve().parents[1] / "src" / "tensorcomplex"


def test_only_poly_reads_the_representation():
    # Poly3's packed monomial codes, numerators and shared denominator are
    # private to poly.py; every other module goes through ==, is_zero,
    # coefficients(), parity_classes() and the other Poly3 methods, so the
    # representation can change in one place.  `terms` is a decoded view of
    # the packed dict and is private too.
    readers = [
        f"{path.name}:{node.lineno} .{node.attr}"
        for path in sorted(_PACKAGE.rglob("*.py"))
        if path.name != "poly.py"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
        if isinstance(node, ast.Attribute) and node.attr in ("_codes", "terms", "den")
    ]
    assert readers == []
