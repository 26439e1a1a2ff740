from fractions import Fraction

import pytest
import sympy
from hypothesis import example, given, settings
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


def _dense(rows) -> RatMatrix:
    return RatMatrix(len(rows[0]), [dict(enumerate(row)) for row in rows])


def test_nullspace_rank_one_row():
    m = _dense([[1, 1, 0]])
    basis = m.nullspace()
    assert basis == [
        {0: Fraction(-1), 1: Fraction(1)},
        {2: Fraction(1)},
    ]


def test_nullspace_identity_is_trivial():
    m = _dense([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert m.nullspace() == []


def test_nullspace_dependent_rows():
    # hand row reduction: [[1,2],[2,4]] ~ [[1,2],[0,0]], kernel spanned by (-2,1)
    m = _dense([[1, 2], [2, 4]])
    assert m.nullspace() == [{0: Fraction(-2), 1: Fraction(1)}]


@st.composite
def sparse_matrices(draw):
    """(cols, rows): up to ten rows of up to ten columns, some rows empty, of
    mostly-zero entries: Fractions with denominators up to 12, or plain ints in
    a row of ints, so that the integer elimination scales rows and meets
    coefficient growth."""
    cols = draw(st.integers(1, 10))
    fraction = st.one_of(st.just(Fraction(0)), st.just(Fraction(0)), fractions(max_num=30, max_den=12))
    integer = st.one_of(st.just(0), st.just(0), st.integers(-30, 30))
    row = st.one_of(*(st.lists(entry, min_size=cols, max_size=cols) for entry in (fraction, integer)))
    rows = draw(st.lists(row, max_size=10))
    return cols, [{c: x for c, x in enumerate(row) if x} for row in rows]


@settings(max_examples=300)
@given(sparse_matrices())
@example((3, []))
@example((2, [{}, {0: Fraction(1, 2)}, {}]))
@example((4, [{0: 2, 1: -4, 3: 6}, {1: 3, 2: -9}, {0: 1, 1: 1, 2: 1, 3: 1}]))  # all-int rows, as kernel_basis hands them
@example((3, [{0: Fraction(2), 2: Fraction(-4)}, {0: 3, 1: 6}]))  # Fractions of denominator 1 beside an int row
def test_nullspace_equals_sympy_nullspace(matrix):
    cols, rows = matrix
    # every row is held as ints, whether it came as ints or as Fractions
    assert all(type(x) is int for row in RatMatrix(cols, rows).rows for x in row.values())
    dense = sympy.Matrix(len(rows), cols, lambda i, j: sympy.Rational(str(rows[i].get(j, 0))))
    expected = [[sympy.Rational(str(x)) for x in v] for v in dense.nullspace()]
    basis = RatMatrix(cols, rows).nullspace()
    # each sparse vector lists only its nonzero entries, by ascending column
    assert all(list(v) == sorted(v) and all(v.values()) for v in basis)
    assert [[sympy.Rational(str(v.get(c, 0))) for c in range(cols)] for v in basis] == expected
