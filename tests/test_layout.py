"""The row-major layout of matrix fields, against the nested-row code it replaced.

Each reference below is a test-local copy of the earlier implementation: it
reads entries through a 1-based (i, j) accessor, builds rows as nested
lists, and wraps each row in its own field.  The rewritten operations must
give the same field, tag included, on every kind they accept.
"""

import pytest

from tensorcomplex.fields import MATRIX_KINDS, FieldKind, TypedField, mskw
from tensorcomplex.koszul import kind_basis, tc, tc_rows, td, td_component_rows, tg, tg_rows
from tensorcomplex.operators import _vector_curl, curl, derived_rng, grad, random_field
from tensorcomplex.poly import P_ZERO, Poly3, monomials_up_to

from conftest import entry, matrix

_R = range(1, 4)


def _row(m: TypedField, i: int) -> TypedField:
    return TypedField.vector([entry(m, i, j) for j in _R])


def ref_mskw(v: TypedField) -> TypedField:
    v1, v2, v3 = v.components
    z = P_ZERO
    return matrix([[z, -v3, v2], [v3, z, -v1], [-v2, v1, z]], FieldKind.SKEW)


def ref_grad(f: TypedField) -> TypedField:
    if f.kind is FieldKind.SCALAR:
        p = f.comp(1)
        return TypedField.vector([p.partial(1), p.partial(2), p.partial(3)])
    return matrix([[f.comp(i).partial(j) for j in _R] for i in _R])


def ref_curl(f: TypedField) -> TypedField:
    if f.kind is FieldKind.VECTOR:
        return TypedField.vector(_vector_curl(f.comp(1), f.comp(2), f.comp(3)))
    rows = [_vector_curl(*[entry(f, i, j) for j in _R]) for i in _R]
    return matrix(rows, FieldKind.TRACEFREE if f.kind is FieldKind.SYMMETRIC else FieldKind.MATRIX)


def ref_tg_rows(m: TypedField) -> TypedField:
    return TypedField.vector([tg(_row(m, i)).comp(1) for i in _R])


def ref_tc_rows(m: TypedField) -> TypedField:
    return matrix([[p for p in tc(_row(m, i)).components] for i in _R])


def ref_td_component_rows(v: TypedField) -> TypedField:
    return matrix([[p for p in td(TypedField.scalar(v.comp(i))).components] for i in _R])


def ref_kind_basis(kind: FieldKind, degree: int) -> list[TypedField]:
    monos = monomials_up_to(degree)
    if kind is FieldKind.SCALAR:
        return [TypedField.scalar(Poly3.monomial(m)) for m in monos]
    if kind is FieldKind.VECTOR:
        return [
            TypedField.vector([Poly3.monomial(m) if i == j else P_ZERO for j in range(3)])
            for i in range(3)
            for m in monos
        ]
    if kind is FieldKind.MATRIX:
        slots = [(i, j) for i in _R for j in _R]
    elif kind is FieldKind.SYMMETRIC:
        slots = [(i, j) for i in _R for j in range(i, 4)]
    elif kind is FieldKind.SKEW:
        slots = [(i, j) for i in _R for j in range(i + 1, 4)]
    else:
        slots = [(i, j) for i in _R for j in _R if i != j] + [(1, 1), (2, 2)]
    out = []
    for i, j in slots:
        for m in monos:
            p = Poly3.monomial(m)
            rows = [[P_ZERO, P_ZERO, P_ZERO] for _ in range(3)]
            rows[i - 1][j - 1] = p
            if kind is FieldKind.SYMMETRIC and i != j:
                rows[j - 1][i - 1] = p
            elif kind is FieldKind.SKEW:
                rows[j - 1][i - 1] = -p
            elif kind is FieldKind.TRACEFREE and i == j:
                rows[2][2] = -p
            out.append(matrix(rows, kind))
    return out


_V = (FieldKind.VECTOR,)
_CASES = [
    ("mskw", mskw, ref_mskw, _V),
    ("grad", grad, ref_grad, (FieldKind.SCALAR, FieldKind.VECTOR)),
    ("curl", curl, ref_curl, _V + MATRIX_KINDS),
    ("tg_rows", tg_rows, ref_tg_rows, MATRIX_KINDS),
    ("tc_rows", tc_rows, ref_tc_rows, MATRIX_KINDS),
    ("td_component_rows", td_component_rows, ref_td_component_rows, _V),
]
_PARAMS = [(name, op, ref, kind) for name, op, ref, kinds in _CASES for kind in kinds]


@pytest.mark.parametrize("degree", range(5))
@pytest.mark.parametrize("name, op, ref, kind", _PARAMS, ids=[f"{p[0]}-{p[3].value}" for p in _PARAMS])
def test_row_major_operations_match_the_nested_row_code(name, op, ref, kind, degree):
    for sample in range(3):
        f = random_field(kind, degree, derived_rng(13, "layout", name, kind.value, degree, sample))
        assert op(f) == ref(f)


@pytest.mark.parametrize("degree", range(4))
@pytest.mark.parametrize("kind", list(FieldKind), ids=[k.value for k in FieldKind])
def test_kind_basis_matches_the_nested_row_builder(kind, degree):
    assert list(kind_basis(kind, degree)) == ref_kind_basis(kind, degree)


def test_row_maps_construct_one_field_each(monkeypatch):
    m = random_field(FieldKind.MATRIX, 2, derived_rng(17, "one-field", "matrix"))
    v = random_field(FieldKind.VECTOR, 2, derived_rng(17, "one-field", "vector"))
    built = []
    init = TypedField.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(TypedField, "__init__", counting_init)
    for op, f in ((tg_rows, m), (tc_rows, m), (td_component_rows, v)):
        built.clear()
        out = op(f)
        assert len(built) == 1 and built[0] is out, op.__name__
