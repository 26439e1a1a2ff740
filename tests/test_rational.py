from fractions import Fraction

import pytest
import sympy
from hypothesis import given
import hypothesis.strategies as st

from tensorcomplex.rational import PiScalar, RatMatrix

from conftest import fractions


def test_fraction_is_canonical():
    assert Fraction(2, 4) == Fraction(1, 2)
    assert Fraction(2, 4).numerator == 1 and Fraction(2, 4).denominator == 2
    assert Fraction(3, -7).denominator == 7  # denominator normalized positive
    assert Fraction(0, 5) == Fraction(0, 1)


def test_exact_sum():
    assert Fraction(1, 2) + Fraction(1, 3) == Fraction(5, 6)


def test_division_by_zero_is_an_error():
    with pytest.raises(ZeroDivisionError):
        Fraction(3, 7) / Fraction(0)


@given(fractions(), fractions(), fractions())
def test_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a and a * b == b * a


def test_pi_scalar_arithmetic():
    x = PiScalar(Fraction(4, 3))
    y = PiScalar(Fraction(1, 3))
    assert (x + y).coeff == Fraction(5, 3)
    assert (x - y).coeff == 1
    assert (x * Fraction(1, 2)).coeff == Fraction(2, 3)
    assert str(x) == "4/3*pi"
    assert str(PiScalar(Fraction(0))) == "0/1*pi"


def test_pi_scalar_product_rejected():
    with pytest.raises(TypeError):
        PiScalar(Fraction(1)) * PiScalar(Fraction(1))


def test_nullspace_rank_one_row():
    m = RatMatrix.from_rows([[1, 1, 0]])
    basis = m.nullspace()
    assert basis == [
        [Fraction(-1), Fraction(1), Fraction(0)],
        [Fraction(0), Fraction(0), Fraction(1)],
    ]


def test_nullspace_identity_is_trivial():
    m = RatMatrix.from_rows([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert m.nullspace() == []


def test_nullspace_dependent_rows():
    # hand row reduction: [[1,2],[2,4]] ~ [[1,2],[0,0]], kernel spanned by (-2,1)
    m = RatMatrix.from_rows([[1, 2], [2, 4]])
    assert m.nullspace() == [[Fraction(-2), Fraction(1)]]


@given(
    st.lists(
        st.lists(st.integers(-5, 5), min_size=4, max_size=4),
        min_size=2,
        max_size=5,
    )
)
def test_nullspace_vectors_are_exact_kernel_elements(rows):
    m = RatMatrix.from_rows(rows)
    basis = m.nullspace()
    for v in basis:
        assert sympy.Matrix(rows) * sympy.Matrix(v) == sympy.zeros(len(rows), 1)
    # rank-nullity, with the rank computed by an independent implementation
    sym_rank = sympy.Matrix(rows).rank()
    assert len(basis) + sym_rank == m.cols
