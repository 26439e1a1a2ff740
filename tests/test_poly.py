import ast
from fractions import Fraction
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import given

from tensorcomplex.fields import TypedField
from tensorcomplex.koszul import tc, td, tg
from tensorcomplex.poly import P_ONE, Poly3, X1, X2, X3, monomials_up_to

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
    assert p.is_zero and p.terms == {}
    q = Poly3({(1, 0, 0): Fraction(0), (0, 1, 0): Fraction(2)})
    assert (1, 0, 0) not in q.terms


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
        assert all(coeff != 0 for coeff in r.terms.values())


def test_negative_exponents_rejected():
    with pytest.raises(ValueError):
        Poly3({(-1, 0, 0): Fraction(1)})


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
    # Poly3's numerators and shared denominator are private to poly.py; every
    # other module goes through ==, is_zero, coefficients(), numerators(den) and
    # the other Poly3 methods, so the representation can change in one place.
    readers = [
        f"{path.name}:{node.lineno} .{node.attr}"
        for path in sorted(_PACKAGE.rglob("*.py"))
        if path.name != "poly.py"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
        if isinstance(node, ast.Attribute) and node.attr in ("terms", "den")
    ]
    assert readers == []
