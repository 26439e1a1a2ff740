import operator
import re
from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import given

from tensorcomplex.fields import (
    E1,
    E2,
    E3,
    FieldKind,
    ID_FIELD,
    KindError,
    MATRIX_KINDS,
    OFF_DIAGONAL,
    TypedField,
    X_FIELD,
    cross,
    field_from_text,
    field_to_text,
    mskw,
    pairing_product,
    vskw,
)
from tensorcomplex.operators import components_equal, curl, derived_rng, random_field
from tensorcomplex.poly import P_ONE, P_ZERO, Poly3, X1, X2

from conftest import entry, fractions, matrix, matrix_fields, polys, vector_fields


def test_component_count_enforced():
    with pytest.raises(KindError):
        TypedField(FieldKind.VECTOR, (P_ONE,))


def test_symmetric_tag_rejects_asymmetric_components():
    rows = [[P_ZERO, X1, P_ZERO], [P_ZERO, P_ZERO, P_ZERO], [P_ZERO, P_ZERO, P_ZERO]]
    with pytest.raises(KindError):
        matrix(rows, FieldKind.SYMMETRIC)
    rows[1][0] = X1.scale(Fraction(1, 2))  # same monomial, different coefficient
    with pytest.raises(KindError):
        matrix(rows, FieldKind.SYMMETRIC)


def test_tracefree_tag_rejects_nonzero_trace():
    with pytest.raises(KindError):
        ID_FIELD.retag(FieldKind.TRACEFREE)


_KIND_PAIRS = [(a, b) for a in FieldKind for b in FieldKind]


@pytest.mark.parametrize("op", [operator.add, operator.sub], ids=["add", "sub"])
@pytest.mark.parametrize("a, b", _KIND_PAIRS, ids=[f"{a.value}-{b.value}" for a, b in _KIND_PAIRS])
def test_kind_of_a_sum(a, b, op):
    """A shared tag is kept, two different matrix tags give MATRIX, and any other pair is a KindError."""
    f = random_field(a, 2, derived_rng(1, "sum", a.value))
    g = random_field(b, 2, derived_rng(2, "sum", b.value))
    if a is b:
        expected = a
    elif a in MATRIX_KINDS and b in MATRIX_KINDS:
        expected = FieldKind.MATRIX
    else:
        with pytest.raises(KindError, match=f"kind mismatch: {a.value} vs {b.value}"):
            op(f, g)
        return
    out = op(f, g)
    assert out.kind is expected
    assert out.components == tuple(op(p, q) for p, q in zip(f.components, g.components))


_PROJECTIONS = {FieldKind.SYMMETRIC: TypedField.sym, FieldKind.TRACEFREE: TypedField.dev, FieldKind.SKEW: TypedField.skw}


@given(st.sampled_from(list(_PROJECTIONS)), matrix_fields(max_degree=2), matrix_fields(max_degree=2), fractions(),
       st.integers(0, 99))
def test_fields_built_without_the_kind_check_pass_it(kind, m, n, c, seed):
    # These results have their kind whatever the values are, so they skip the
    # check; the public constructor, which checks, must accept every one.
    f, g = _PROJECTIONS[kind](m), _PROJECTIONS[kind](n)
    built = [f, g, f.transpose(), f.scale(c), -f, f + g, f - g, -(f.scale(c) - g.transpose()),
             random_field(kind, 2, derived_rng(seed, "of-kind", kind.value))]
    if kind is FieldKind.SYMMETRIC:
        built.append(TypedField.identity_scaled(m.components[0]))
    elif kind is FieldKind.SKEW:
        built.append(mskw(TypedField.vector(m.components[:3])))
    for out in built:
        assert out.kind is kind
        assert TypedField(kind, out.components) == out


def test_a_tag_that_claims_computed_values_is_still_checked(broken_curl):
    m = matrix([[X1, X2, P_ZERO], [P_ZERO, P_ONE, P_ZERO], [P_ZERO, P_ZERO, P_ZERO]])  # neither symmetric nor skew
    for kind, message in ((FieldKind.SYMMETRIC, "not symmetric"), (FieldKind.TRACEFREE, "nonzero trace"),
                          (FieldKind.SKEW, "not skew")):
        with pytest.raises(KindError, match=message):
            m.retag(kind)
        with pytest.raises(ValueError, match=f"kind header says {kind.value}, but the components .*{message}"):
            field_from_text(field_to_text(m).replace("kind: matrix", f"kind: {kind.value}"))
    # curl declares a trace-free output on symmetric input; the curl that drops
    # its -d3 c2 term breaks that claim on this field, and the check catches it
    g = TypedField.symmetric((P_ZERO, P_ZERO, P_ZERO), (Poly3.variable(3), P_ZERO, P_ZERO))
    with pytest.raises(KindError, match="nonzero trace"):
        curl(g)


def test_retag_to_the_same_kind_is_the_field_itself():
    for kind in FieldKind:
        f = random_field(kind, 1, derived_rng(3, "retag", kind.value))
        assert f.retag(kind) is f


def test_sym_example():
    rows = [[P_ZERO, X1, P_ZERO], [P_ZERO, P_ZERO, P_ZERO], [P_ZERO, P_ZERO, P_ZERO]]
    m = matrix(rows).sym()
    assert entry(m, 1, 2) == X1.scale(Fraction(1, 2))
    assert entry(m, 2, 1) == X1.scale(Fraction(1, 2))
    assert m.kind is FieldKind.SYMMETRIC


@given(matrix_fields())
def test_sym_plus_skw(m):
    assert components_equal(m.sym() + m.skw(), m)


@given(matrix_fields())
def test_dev_plus_trace_part(m):
    t = m.trace().comp(1).scale(Fraction(1, 3))
    assert components_equal(m.dev() + TypedField.identity_scaled(t), m)


# Entrywise reference formulas for the pointwise projections, written out one
# entry at a time, as sums, differences and scales of single entries read
# through the 1-based accessor `entry`.
_R = range(1, 4)


def _ref_trace(m):
    return entry(m, 1, 1) + entry(m, 2, 2) + entry(m, 3, 3)


_REFERENCE_PROJECTIONS = {
    "sym": lambda m: [(entry(m, i, j) + entry(m, j, i)).scale(Fraction(1, 2)) for i in _R for j in _R],
    "skw": lambda m: [(entry(m, i, j) - entry(m, j, i)).scale(Fraction(1, 2)) for i in _R for j in _R],
    "dev": lambda m: [
        entry(m, i, j) - _ref_trace(m).scale(Fraction(1, 3)) if i == j else entry(m, i, j) for i in _R for j in _R
    ],
    "s_op": lambda m: [entry(m, j, i) - _ref_trace(m) if i == j else entry(m, j, i) for i in _R for j in _R],
    "trace": lambda m: [_ref_trace(m)],
    "transpose": lambda m: [entry(m, j, i) for i in _R for j in _R],
    "vskw": lambda m: [
        (entry(m, 3, 2) - entry(m, 2, 3)).scale(Fraction(1, 2)),
        (entry(m, 1, 3) - entry(m, 3, 1)).scale(Fraction(1, 2)),
        (entry(m, 2, 1) - entry(m, 1, 2)).scale(Fraction(1, 2)),
    ],
}


@pytest.mark.parametrize("name", sorted(_REFERENCE_PROJECTIONS))
@pytest.mark.parametrize("kind", MATRIX_KINDS, ids=[k.value for k in MATRIX_KINDS])
@pytest.mark.parametrize("degree", range(5))
def test_projections_match_entrywise_formulas(name, kind, degree):
    op = vskw if name == "vskw" else getattr(TypedField, name)
    for sample in range(3):
        m = random_field(kind, degree, derived_rng(5, "projection", name, kind.value, degree, sample))
        assert list(op(m).components) == _REFERENCE_PROJECTIONS[name](m)


@pytest.mark.parametrize(
    "op, message",
    [
        (TypedField.sym, "sym needs"),
        (TypedField.skw, "skw needs"),
        (TypedField.dev, "dev needs"),
        (TypedField.s_op, "S needs"),
        (TypedField.trace, "tr needs"),
        (TypedField.transpose, "transpose needs"),
        (vskw, "vskw needs"),
    ],
)
def test_matrix_operations_on_a_vector_name_themselves(op, message):
    with pytest.raises(KindError, match=f"^{message} a matrix field$"):
        op(E1)


def _s_inv(m: TypedField) -> TypedField:
    """tau -> tau^T - (1/2) tr(tau) id, the closed-form inverse of s_op."""
    t = TypedField.identity_scaled(m.trace().comp(1).scale(Fraction(1, 2)))
    return m.transpose() - t


@given(matrix_fields())
def test_s_inv_of_s(m):
    assert components_equal(_s_inv(m.s_op()), m)


def test_s_of_identity():
    s = ID_FIELD.s_op()
    assert components_equal(s, ID_FIELD.scale(-2))


def test_dev_of_identity_vanishes():
    assert ID_FIELD.dev().is_zero


def test_mskw_of_e3():
    m = mskw(E3)
    assert entry(m, 1, 2) == Poly3.const(-1)
    assert entry(m, 2, 1) == P_ONE
    assert all(
        entry(m, i, j).is_zero for i in range(1, 4) for j in range(1, 4) if (i, j) not in ((1, 2), (2, 1))
    )
    assert m.kind is FieldKind.SKEW


@given(vector_fields())
def test_vskw_inverts_mskw(v):
    assert components_equal(vskw(mskw(v)), v)


@given(vector_fields(), vector_fields())
def test_mskw_is_linear(u, v):
    lhs = mskw(u.scale(Fraction(3, 2)) + v)
    rhs = mskw(u).scale(Fraction(3, 2)) + mskw(v)
    assert components_equal(lhs, rhs)


def test_vskw_of_symmetric_vanishes():
    sym = matrix([[X1, X2, P_ZERO], [X2, P_ONE, P_ZERO], [P_ZERO, P_ZERO, P_ZERO]], FieldKind.SYMMETRIC)
    assert vskw(sym).is_zero


def test_cross_right_handed():
    assert components_equal(cross(E1, E2), E3)


def test_frobenius_id_against_tracefree():
    tau = matrix([[X1, X2, P_ZERO], [P_ZERO, X1.scale(-1), P_ZERO], [P_ONE, P_ZERO, P_ZERO]]).dev()
    assert pairing_product(ID_FIELD, tau).is_zero


def test_dot_example():
    a = TypedField.vector([X1, P_ZERO, P_ZERO])
    b = TypedField.vector([X1, X2, P_ZERO])
    assert pairing_product(a, b) == X1 * X1


@given(matrix_fields())
def test_matrix_text_round_trip_is_bit_exact(m):
    text = field_to_text(m)
    back = field_from_text(text)
    assert components_equal(back, m)
    assert field_to_text(back) == text


def test_text_round_trip_all_kinds():
    fields = [
        TypedField.scalar(X1.scale(Fraction(-5, 6)) + P_ONE),
        TypedField.vector([X1 * X2, P_ZERO, Poly3.const(Fraction(7, 3))]),
        ID_FIELD,
        mskw(E2),
    ]
    for f in fields:
        text = field_to_text(f)
        back = field_from_text(text)
        assert back.kind is f.kind
        assert components_equal(back, f)
        assert field_to_text(back) == text


def test_text_missing_component_names_it():
    text = "\n".join(field_to_text(X_FIELD).splitlines()[:-1])
    with pytest.raises(ValueError, match="missing component 3 1"):
        field_from_text(text)


def test_text_duplicate_component_names_line():
    text = field_to_text(X_FIELD) + "\n1 1 : 5 * x1^0 x2^0 x3^0"
    with pytest.raises(ValueError, match="duplicate component 1 1: '1 1 : 5"):
        field_from_text(text)


def test_text_out_of_range_index_names_line():
    text = field_to_text(ID_FIELD) + "\n7 7 : 1 * x1^0 x2^0 x3^0"
    with pytest.raises(ValueError, match="component 7 7 is out of range for a symmetric field: '7 7 : 1"):
        field_from_text(text)


@pytest.mark.parametrize(
    "line",
    [
        "1 : 0", "1 1 1 : 0", "a 1 : 0", "1 1 : 2 * y^1", "1 1 : 1/0 * x1^0 x2^0 x3^0", "1 1 : 1 * x1^0 x2^256 x3^0",
        # int() would read these indices as 1 1 (Arabic-Indic digits, a sign,
        # a leading zero) and 10 1; only the printed form is read
        "\u0661 \u0661 : 0", "+1 1 : 0", "01 1 : 0", "1_0 1 : 0",
    ],
)
def test_text_malformed_line_names_it(line):
    with pytest.raises(ValueError, match=re.escape(f"bad component line {line!r}")):
        field_from_text(f"kind: scalar\n{line}")


def test_text_exponent_past_the_limit_names_line_and_monomial():
    line = "2 1 : 1 * x1^1 x2^0 x3^0 + 3 * x1^300 x2^0 x3^0"
    msg = f"bad component line {line!r}: exponent past 255 in monomial (300, 0, 0)"
    with pytest.raises(ValueError, match=re.escape(msg)):
        field_from_text(f"kind: vector\n1 1 : 0\n{line}\n3 1 : 0")


def test_text_unknown_kind_names_header_and_valid_kinds():
    msg = "bad kind header 'kind: bogus'; a kind is one of scalar, vector, matrix, symmetric, trace-free, skew"
    with pytest.raises(ValueError, match=re.escape(msg)):
        field_from_text("kind: bogus\n1 1 : 0")


@pytest.mark.parametrize(
    "kind, entry, message",
    [
        ("symmetric", "1 2", "kind header says symmetric, but the components are not symmetric"),
        ("trace-free", "1 1", "kind header says trace-free, but the components have nonzero trace"),
        ("skew", "2 3", "kind header says skew, but the components are not skew"),
        ("skew", "1 1", "kind header says skew, but the components are not skew"),
    ],
)
def test_text_kind_predicate_failure_is_a_value_error(kind, entry, message):
    lines = [f"kind: {kind}"] + [f"{i} {j} : 0" for i in range(1, 4) for j in range(1, 4)]
    text = "\n".join(lines).replace(f"{entry} : 0", f"{entry} : 1 * x1^1 x2^0 x3^0")
    with pytest.raises(ValueError, match=re.escape(message)):
        field_from_text(text)


_FORMAT_CHARS = "0123456789 -+/*^:x\nkind"


@st.composite
def mutated_field_texts(draw):
    """The text of a random field of any kind with one component replaced, then up to two spans edited."""
    kind = draw(st.sampled_from(list(FieldKind)))
    lines = field_to_text(random_field(kind, 2, derived_rng(draw(st.integers(0, 999)), "fuzz"))).splitlines()
    k = draw(st.integers(1, len(lines) - 1))
    lines[k] = f"{lines[k].partition(':')[0]}: {draw(polys(2))}"
    text = "\n".join(lines)
    for _ in range(draw(st.integers(0, 2))):
        i = draw(st.integers(0, len(text)))
        j = draw(st.integers(i, min(len(text), i + 8)))
        insert = draw(st.one_of(st.text(alphabet=_FORMAT_CHARS, max_size=4), st.text(max_size=4)))
        text = text[:i] + insert + text[j:]
    return text


@given(
    st.one_of(
        mutated_field_texts(),
        st.text(),
        st.text(alphabet=_FORMAT_CHARS).map(lambda body: "kind: vector\n" + body),
    )
)
def test_field_text_fuzz_parses_or_raises_value_error(text):
    try:
        field_from_text(text)
    except ValueError:
        pass


@pytest.mark.parametrize("kind", list(FieldKind))
@given(w=polys())
def test_mul_scalar_poly_keeps_every_tag_and_the_shared_symmetric_entries(kind, w):
    f = random_field(kind, 2, derived_rng(3, "mul-scalar", kind.value))
    g = f.mul_scalar_poly(w)
    assert TypedField(kind, g.components) == g  # the public check agrees with the kept tag
    assert g.components == tuple(p * w for p in f.components)
    if kind is FieldKind.SYMMETRIC:
        assert all(f.components[k] is f.components[t] for k, t in OFF_DIAGONAL)
        assert all(g.components[k] is g.components[t] for k, t in OFF_DIAGONAL)
