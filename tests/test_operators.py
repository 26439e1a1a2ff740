"""Differential operators against an independent sympy oracle, plus the
exact identity suite and the sampled-check engine."""

from fractions import Fraction

import hypothesis.strategies as st
import pytest
import sympy
from hypothesis import given

import tensorcomplex.operators as operators
from tensorcomplex.fields import (
    E1,
    E3,
    FieldKind,
    KindError,
    MATRIX_KINDS,
    TypedField,
    X_FIELD,
    cross,
    field_from_text,
    field_to_text,
    mskw,
    vskw,
)
from tensorcomplex.operators import (
    OPS,
    BasisKindError,
    PreconditionError,
    components_equal,
    curl,
    deff,
    derived_rng,
    div,
    grad,
    hess,
    inc,
    random_field,
    run_check,
    verify_identity,
)
from tensorcomplex.poly import P_ONE, P_ZERO, Poly3, X1, X2, X3
from tensorcomplex.suites import SuiteConfig, run_suite

from conftest import entry, matrix, matrix_fields, polys, vector_fields, zero_field

_SYMS = sympy.symbols("x1 x2 x3")


def to_sympy(p: Poly3):
    expr = sympy.Integer(0)
    for (a, b, c), coeff in p.coefficients().items():
        expr += sympy.Rational(coeff.numerator, coeff.denominator) * _SYMS[0] ** a * _SYMS[1] ** b * _SYMS[2] ** c
    return sympy.expand(expr)


def sympy_grad_scalar(p):
    return [sympy.diff(to_sympy(p), s) for s in _SYMS]


def sympy_curl(f):
    """Curl of a vector field, or row-wise curl of a matrix field, as sympy expressions."""
    e = [to_sympy(c) for c in f.components]
    out = []
    for a, b, c in (e[r : r + 3] for r in range(0, len(e), 3)):
        out += [
            sympy.diff(c, _SYMS[1]) - sympy.diff(b, _SYMS[2]),
            sympy.diff(a, _SYMS[2]) - sympy.diff(c, _SYMS[0]),
            sympy.diff(b, _SYMS[0]) - sympy.diff(a, _SYMS[1]),
        ]
    return out


def sympy_div(f):
    """Divergence of a vector field, or row-wise divergence of a matrix field, as sympy expressions."""
    e = [to_sympy(c) for c in f.components]
    return [sum(sympy.diff(e[r + j], _SYMS[j]) for j in range(3)) for r in range(0, len(e), 3)]


def assert_matches(f, expected):
    assert len(f.components) == len(expected)
    for p, e in zip(f.components, expected):
        assert sympy.expand(to_sympy(p) - e) == 0


def test_grad_of_x1():
    assert components_equal(grad(TypedField.scalar(X1)), E1)


def test_grad_matches_symbolic_oracle():
    p = X1 * X2 * X3
    ours = grad(TypedField.scalar(p))
    oracle = sympy_grad_scalar(p)
    assert [to_sympy(c) for c in ours.components] == oracle
    assert components_equal(ours, TypedField.vector([X2 * X3, X1 * X3, X1 * X2]))


def test_grad_of_constant():
    assert grad(TypedField.scalar(Poly3.const(5))).is_zero


def test_grad_kind_error_on_matrix():
    with pytest.raises(KindError):
        grad(mskw(E1))


def test_curl_and_div_kind_errors_on_scalar():
    w = TypedField.scalar(X1)
    with pytest.raises(KindError):
        curl(w)
    with pytest.raises(KindError):
        div(w)


def test_curl_example_against_oracle():
    v = TypedField.vector([P_ZERO, X1, P_ZERO])
    assert [to_sympy(c) for c in curl(v).components] == sympy_curl(v)
    assert components_equal(curl(v), E3)


def test_curl_of_gradient_vanishes():
    w = TypedField.scalar(X1 * X1 * X2)
    assert curl(grad(w)).is_zero


def test_curl_of_w_id():
    # curl(w id) = -mskw grad w
    w = X3
    lhs = curl(TypedField.identity_scaled(w))
    rhs = -mskw(grad(TypedField.scalar(w)))
    assert components_equal(lhs, rhs)


def test_div_of_coordinate_field():
    assert div(X_FIELD).comp(1) == Poly3.const(3)


def test_div_of_mskw_is_minus_curl():
    v = TypedField.vector([X2, P_ZERO, X1 * X1])
    assert components_equal(div(mskw(v)), -curl(v))


def test_div_of_curl_vanishes():
    rng = derived_rng(17, "divcurl")
    m = random_field(FieldKind.MATRIX, 3, rng)
    assert div(curl(m)).is_zero


def test_rigid_motion_in_kernel_of_deff():
    b = TypedField.vector([P_ONE, Poly3.const(2), Poly3.const(-1)])
    assert deff(cross(b, X_FIELD)).is_zero


def test_lowest_order_fields_in_kernel_of_dev_grad():
    a_plus_bx = TypedField.vector([P_ONE + X1.scale(4), X2.scale(4), Poly3.const(-2) + X3.scale(4)])
    assert OPS["dev_grad"](a_plus_bx).is_zero


def test_sym_curl_of_curl_free_symmetric_field():
    from tensorcomplex.koszul import sample_kernel

    g = sample_kernel(("curl",), FieldKind.SYMMETRIC, 2, 11)
    assert curl(g).is_zero and g.kind is FieldKind.SYMMETRIC


def test_hess_against_oracle():
    h = hess(TypedField.scalar(X1 * X2))
    assert entry(h, 1, 2) == P_ONE and entry(h, 2, 1) == P_ONE
    assert all(entry(h, i, j).is_zero for i in range(1, 4) for j in range(1, 4) if {i, j} != {1, 2})
    # second derivatives from the oracle
    w = X1 * X1 * X3 + X2 * X3
    ours = hess(TypedField.scalar(w))
    for i in range(3):
        for j in range(3):
            assert to_sympy(entry(ours, i + 1, j + 1)) == sympy.diff(to_sympy(w), _SYMS[i], _SYMS[j])


def test_inc_of_hessian_vanishes():
    w = TypedField.scalar(X1 * X1 * X2 * X3)
    assert inc(hess(w)).is_zero


def test_div_div_unit_witness():
    sigma = matrix(
        [[(Poly3.variable(i) * Poly3.variable(j)).scale(Fraction(1, 12)) for j in range(1, 4)] for i in range(1, 4)],
        FieldKind.SYMMETRIC,
    )
    assert OPS["div_div"](sigma).comp(1) == P_ONE


def test_inc_requires_and_produces_symmetric():
    rng = derived_rng(3, "inc")
    g = random_field(FieldKind.SYMMETRIC, 3, rng)
    out = inc(g)
    assert out.kind is FieldKind.SYMMETRIC
    with pytest.raises(KindError):
        inc(random_field(FieldKind.MATRIX, 2, rng))


def test_curl_of_symmetric_is_tracefree():
    rng = derived_rng(5, "trace")
    g = random_field(FieldKind.SYMMETRIC, 3, rng)
    out = curl(g)
    assert out.kind is FieldKind.TRACEFREE
    # dev is then a no-op
    assert components_equal(out.dev(), out)


def test_t_curl_convention_pinned_by_eq2():
    # transpose *after* curl: div(t_curl tau) = curl(div_t tau) holds;
    # the transpose-first reading would make the left side identically zero.
    rng = derived_rng(9, "conv")
    tau = random_field(FieldKind.MATRIX, 3, rng)
    assert components_equal(div(OPS["t_curl"](tau)), curl(OPS["div_t"](tau)))
    assert div(curl(tau.transpose())).is_zero
    assert not div(OPS["t_curl"](tau)).is_zero


@given(polys())
def test_curl_grad_is_zero(p):
    assert curl(grad(TypedField.scalar(p))).is_zero


@given(vector_fields())
def test_div_curl_is_zero(v):
    assert div(curl(v)).comp(1).is_zero


def test_all_identities_pass():
    results = [verify_identity(name, samples=8, degree=3, seed=7) for name in operators.IDENTITIES]
    assert len(results) == 11
    failed = [r.name for r in results if not r.passed]
    assert not failed, failed


def test_every_identity_has_one_order_read_from_its_words():
    # Each side is a scaled OPS word, so ORDER gives the identity its order:
    # 1 for the Sec. 2 identities (a)-(f), 2 for Lemma 2.1 Eqs. (2)-(6).
    orders = {name: {operators.ORDER[side.name] for side in ident.sides} for name, ident in operators.IDENTITIES.items()}
    assert orders == {
        **dict.fromkeys(["div-mskw", "mskw-grad", "mskw-curl", "skw-curl", "S-grad", "tr-curl"], {1}),
        **dict.fromkeys(["eq2", "eq3", "eq4", "eq5", "eq6"], {2}),
    }
    assert all(side.name in OPS for ident in operators.IDENTITIES.values() for side in ident.sides)


def test_skw_curl_identity_at_spec_parameters():
    assert verify_identity("skw-curl", samples=20, degree=4, seed=7).passed


def test_eq6_trivial_on_constants():
    assert verify_identity("eq6", samples=1, degree=0, seed=0).passed


def test_identity_failure_reports_witness(monkeypatch):
    # failure must be a report outcome carrying the counterexample verbatim,
    # never an exception
    import tensorcomplex.operators as ops

    broken = ops.Identity("broken", "none", FieldKind.SCALAR, (ops.OperatorId("grad"), ops.OperatorId("grad", Fraction(2))))
    monkeypatch.setitem(ops.IDENTITIES, "broken", broken)
    r = verify_identity("broken", samples=3, degree=2, seed=1)
    assert not r.passed and r.status == "fail"
    assert r.witness is not None and r.witness.startswith("kind: scalar")
    from tensorcomplex.fields import field_from_text

    field_from_text(r.witness)  # the witness parses back


def test_a_lone_side_must_give_the_zero_field(monkeypatch):
    # A one-sided row claims that its side vanishes: grad of a random scalar
    # field does not, and grad scaled by 0 does.
    lone = operators.Identity("lone", "none", FieldKind.SCALAR, (operators.OperatorId("grad"),))
    zero = operators.Identity("zero", "none", FieldKind.SCALAR, (operators.OperatorId("grad", Fraction(0)),))
    monkeypatch.setitem(operators.IDENTITIES, "lone", lone)
    monkeypatch.setitem(operators.IDENTITIES, "zero", zero)
    r = verify_identity("lone", samples=3, degree=2, seed=1)
    assert r.status == "fail"
    w = field_from_text(r.witness)
    assert w.kind is FieldKind.SCALAR and not grad(w).is_zero
    assert verify_identity("zero", samples=3, degree=2, seed=1).passed


def test_a_three_sided_row_fails_on_its_third_side_alone(monkeypatch):
    eq3 = operators.IDENTITIES["eq3"]
    third = operators.OperatorId(eq3.sides[2].name, Fraction(2))
    broken = eq3._replace(sides=(*eq3.sides[:2], third))
    monkeypatch.setitem(operators.IDENTITIES, "eq3", broken)
    r = verify_identity("eq3", samples=3, degree=2, seed=7)
    assert r.status == "fail"
    v = field_from_text(r.witness)
    first, second, last = (side.apply(v) for side in broken.sides)
    assert components_equal(first, second) and not components_equal(first, last)


def test_passing_identity_has_no_witness():
    good = verify_identity("eq2", samples=1, degree=2, seed=1)
    assert good.passed and good.witness is None


def test_operator_oracle_cross_check():
    # full grad/curl/div agreement with sympy on a random vector field
    rng = derived_rng(23, "oracle")
    v = random_field(FieldKind.VECTOR, 3, rng)
    assert [to_sympy(c) for c in curl(v).components] == sympy_curl(v)
    g = grad(v)
    for i in range(3):
        for j in range(3):
            assert to_sympy(entry(g, i + 1, j + 1)) == sympy.diff(to_sympy(v.comp(i + 1)), _SYMS[j])
    assert to_sympy(div(v).comp(1)) == sum(
        sympy.diff(to_sympy(v.comp(i + 1)), _SYMS[i]) for i in range(3)
    )


def test_curl_deff_lands_tracefree():
    rng = derived_rng(29, "cd")
    u = random_field(FieldKind.VECTOR, 3, rng)
    assert OPS["curl_deff"](u).kind is FieldKind.TRACEFREE


def test_matrix_div_and_curl_are_row_wise():
    # pins the orientation: (div m)_i = sum_j d_j m_ij and row i of curl m
    # is the vector curl of row i -- checked entry by entry against sympy
    rng = derived_rng(43, "roworacle")
    m = random_field(FieldKind.MATRIX, 3, rng)
    rows = [[to_sympy(entry(m, i, j)) for j in range(1, 4)] for i in range(1, 4)]
    ours_div = div(m)
    for i in range(3):
        expected = sum(sympy.diff(rows[i][j], _SYMS[j]) for j in range(3))
        assert to_sympy(ours_div.comp(i + 1)) == sympy.expand(expected)
    assert_matches(curl(m), sympy_curl(m))


@given(st.one_of(vector_fields(), matrix_fields()))
def test_curl_matches_oracle_on_random_fields(f):
    assert_matches(curl(f), sympy_curl(f))


_DIV_KINDS = [FieldKind.VECTOR, *MATRIX_KINDS]


@pytest.mark.parametrize("kind", _DIV_KINDS, ids=[k.value for k in _DIV_KINDS])
def test_div_matches_oracle_on_every_kind(kind):
    for sample in range(3):
        f = random_field(kind, 3, derived_rng(47, "div-oracle", kind.value, sample))
        assert_matches(div(f), sympy_div(f))


@pytest.mark.parametrize("kind", [FieldKind.SYMMETRIC, FieldKind.TRACEFREE], ids=["symmetric", "trace-free"])
def test_curl_matches_oracle_on_symmetric_and_tracefree_fields(kind):
    # the projected entries carry denominators 2 (symmetric) and 3 (trace-free diagonal)
    for sample in range(3):
        f = random_field(kind, 3, derived_rng(53, "curl-oracle", kind.value, sample))
        assert any(p.denominator > 1 for p in f.components)
        assert_matches(curl(f), sympy_curl(f))


_R = range(1, 4)


@given(vector_fields(), vector_fields())
def test_cross_matches_epsilon_sum(a, b):
    ea, eb = [to_sympy(p) for p in a.components], [to_sympy(p) for p in b.components]
    expected = [sum(sympy.LeviCivita(i, j, k) * ea[j - 1] * eb[k - 1] for j in _R for k in _R) for i in _R]
    assert_matches(cross(a, b), expected)


@given(vector_fields())
def test_mskw_matches_epsilon_sum(v):
    ev = [to_sympy(p) for p in v.components]
    expected = [-sum(sympy.LeviCivita(i, j, k) * ev[k - 1] for k in _R) for i in _R for j in _R]
    assert_matches(mskw(v), expected)


@given(matrix_fields())
def test_vskw_matches_epsilon_sum(m):
    e = {(i, j): to_sympy(entry(m, i, j)) for i in _R for j in _R}
    skw = {(i, j): (e[i, j] - e[j, i]) / 2 for i in _R for j in _R}
    expected = [-sum(sympy.LeviCivita(i, j, k) * skw[i, j] for i in _R for j in _R) / 2 for k in _R]
    assert_matches(vskw(m), expected)


# -- ORDER: one order, constant coefficients --------------------------------


def _homogeneous_parts(f: TypedField) -> dict[int, TypedField]:
    """{k: the degree-k part of f}; each part keeps the kind of f."""
    parts: dict[int, list[dict]] = {}
    for i, p in enumerate(f.components):
        for m, c in p.coefficients().items():
            parts.setdefault(sum(m), [{} for _ in f.components])[i][m] = c
    return {k: TypedField(f.kind, tuple(map(Poly3, terms))) for k, terms in parts.items()}


def _translate(f: TypedField, h) -> TypedField:
    """The field x -> f(x + h)."""
    shifted = [x + Poly3.const(t) for x, t in zip((X1, X2, X3), h)]

    def poly(p: Poly3) -> Poly3:
        total = P_ZERO
        for m, c in p.coefficients().items():
            term = Poly3.const(c)
            for base, e in zip(shifted, m):
                for _ in range(e):
                    term = term * base
            total = total + term
        return total

    return TypedField(f.kind, tuple(map(poly, f.components)))


def _accepts(op, kind: FieldKind) -> bool:
    try:
        op(zero_field(kind))
    except KindError:
        return False
    return True


@pytest.mark.parametrize("name", list(operators.OPS))
def test_every_operator_has_constant_coefficients_and_the_order_of_its_order_entry(name):
    # kernel_basis reads each operator off its symbol, which is exact only for
    # a constant-coefficient operator (it commutes with translation) of the
    # single order ORDER[name] (it takes degree k to degree k - ORDER[name] or to 0).
    assert operators.ORDER.keys() == operators.OPS.keys()
    op, order = operators.OPS[name], operators.ORDER[name]
    kinds = [kind for kind in FieldKind if _accepts(op, kind)]
    assert kinds
    h = (Fraction(1, 2), Fraction(-2, 3), Fraction(3))
    for kind in kinds:
        for degree in range(5):
            f = random_field(kind, degree, derived_rng(5, "order", name, kind.value, degree))
            for k, part in _homogeneous_parts(f).items():
                image = op(part)
                if k < order:
                    assert image.is_zero, (kind, k)
                else:
                    assert set(_homogeneous_parts(image)) <= {k - order}, (kind, k)
            assert components_equal(op(_translate(f, h)), _translate(op(f), h)), (kind, degree)


def _times_id(w: TypedField) -> TypedField:
    """w id for a scalar field w; like the id step, it takes no other kind."""
    if w.kind is not FieldKind.SCALAR:
        raise KindError("id needs a scalar field")
    return TypedField.identity_scaled(w.comp(1))


# Each composite operator spelled out by hand, a reference independent of the
# word builder: its OPS key names its steps, applied right to left.
_COMPOSITES = {
    "dev_grad": lambda u: grad(u).dev(),
    "t_dev_grad": lambda u: grad(u).dev().transpose(),
    "sym_curl": lambda f: curl(f).sym(),
    "sym_curl_t": lambda f: curl(f.transpose()).sym(),
    "t_curl": lambda f: curl(f).transpose(),
    "div_t": lambda f: div(f.transpose()),
    "grad_div": lambda v: grad(div(v)),
    "curl_div": lambda f: curl(div(f)),
    "div_div": lambda f: div(div(f)),
    "curl_deff": lambda u: curl(deff(u)),
    "t_curl_deff": lambda u: curl(deff(u)).transpose(),
    "curl_div_t": lambda f: curl(div(f.transpose())),
    # the words of the identity table
    "div_mskw": lambda v: div(mskw(v)),
    "mskw_grad": lambda w: mskw(grad(w)),
    "curl_id": lambda w: curl(_times_id(w)),
    "mskw_curl": lambda v: mskw(curl(v)),
    "skw_grad": lambda v: grad(v).skw(),
    "skw_curl": lambda t: curl(t).skw(),
    "mskw_div_S": lambda t: mskw(div(t.s_op())),
    "S_grad": lambda v: grad(v).s_op(),
    "curl_mskw": lambda v: curl(mskw(v)),
    "tr_curl": lambda t: curl(t).trace(),
    "div_vskw": lambda t: div(vskw(t)),
    "div_t_curl": lambda t: div(curl(t).transpose()),
    "curl_t_grad": lambda u: curl(grad(u).transpose()),
    "t_grad_curl": lambda u: grad(curl(u)).transpose(),
    "t_dev_grad_curl": lambda u: grad(curl(u)).dev().transpose(),
    "div_sym_curl_t": lambda t: div(curl(t.transpose()).sym()),
    "div_t_dev_grad": lambda u: div(grad(u).dev().transpose()),
}


def test_the_composites_are_the_ops_keys_of_more_than_one_step():
    assert set(_COMPOSITES) == {name for name in OPS if "_" in name}


@pytest.mark.parametrize("name", list(_COMPOSITES))
def test_each_composite_operator_is_its_word(name):
    reference = _COMPOSITES[name]
    kinds = [kind for kind in FieldKind if _accepts(reference, kind)]
    assert kinds
    for kind in FieldKind:
        if kind not in kinds:
            with pytest.raises(KindError):
                OPS[name](zero_field(kind))
            continue
        for degree in range(4):
            f = random_field(kind, degree, derived_rng(13, "word", name, kind.value, degree))
            expected, out = reference(f), OPS[name](f)
            assert out.kind is expected.kind and components_equal(out, expected), (kind, degree)


# -- the sampled-check engine ------------------------------------------------


def test_run_check_stops_at_first_failing_sample():
    drawn = []

    def draw(s):
        drawn.append(s)
        return s

    r = run_check("c", "a", 10, draw, lambda x: x < 3, witness=lambda x: f"sample {x}")
    assert drawn == [0, 1, 2, 3]
    assert (r.name, r.anchor, r.status, r.witness) == ("c", "a", "fail", "sample 3")


def test_run_check_pass_draws_every_sample_and_has_no_witness():
    drawn = []
    r = run_check("c", "a", 4, lambda s: drawn.append(s) or s, lambda x: True)
    assert drawn == [0, 1, 2, 3]
    assert r.status == "pass" and r.witness is None


def test_run_check_precondition_error_is_an_error_case():
    drawn = []

    def holds(x):
        raise PreconditionError("kernel constraint failed: div(input) is nonzero", "kind: scalar\n1 1 : 0")

    r = run_check("c", "a", 5, lambda s: drawn.append(s) or s, holds)
    assert drawn == [0]
    assert r.status == "error" and r.error
    assert r.witness == "kernel constraint failed: div(input) is nonzero | witness:\nkind: scalar\n1 1 : 0"


def test_run_check_other_exceptions_propagate():
    # only a KindError raised by `holds` fails the sample: a wider TypeError
    # from `holds`, or a KindError from `draw`, still aborts the case
    with pytest.raises(TypeError) as raised:
        run_check("c", "a", 2, lambda s: s, lambda x: x + "a")
    assert not isinstance(raised.value, KindError)
    with pytest.raises(KindError):
        run_check("c", "a", 2, lambda s: grad(zero_field(FieldKind.MATRIX)), lambda x: True)


def test_run_check_kind_error_in_holds_is_a_fail_with_the_sample_as_witness():
    r = run_check("c", "a", 2, lambda s: zero_field(FieldKind.MATRIX), lambda x: grad(x).is_zero)
    assert (r.status, r.witness) == ("fail", field_to_text(zero_field(FieldKind.MATRIX)))


def _square_clock(monkeypatch):
    """Install a fake perf_counter returning 0, 1, 4, 9, ... seconds on successive calls."""
    calls = iter(range(10**6))
    monkeypatch.setattr(operators, "perf_counter", lambda: next(calls) ** 2)


def test_run_check_records_its_own_duration(monkeypatch):
    _square_clock(monkeypatch)
    first = run_check("c", "a", 3, lambda s: s, lambda x: True)
    second = run_check("c", "a", 3, lambda s: s, lambda x: x < 1, witness=str)
    assert (first.duration_ms, second.duration_ms) == (1000, 5000)


def test_run_check_basis_kind_error_in_draw_is_a_timed_fail_with_its_witness(monkeypatch):
    # a kernel operator that breaks a kind predicate on a basis field raises in
    # the draw; the case fails with that basis field and still records its time
    _square_clock(monkeypatch)

    def draw(s):
        if s == 1:
            raise BasisKindError("curl: components have nonzero trace", "kind: scalar\n1 1 : 0")
        return s

    r = run_check("c", "a", 3, draw, lambda x: True)
    assert (r.status, r.witness, r.duration_ms) == ("fail", "kind: scalar\n1 1 : 0", 1000)


def test_timings_give_every_case_of_every_suite_its_own_duration(monkeypatch):
    # Case k starts at clock reading (2k)^2 s and ends at (2k+1)^2 s, so it
    # lasts 4k+1 s only if it is timed by itself from its own start to its end.
    _square_clock(monkeypatch)
    report = run_suite(SuiteConfig(suite="all", seed=7, degree=2, samples=1, timings=True))
    assert report.all_passed and {c.name for c in report.cases} >= {"cell (1,1)", "regdec cc", "q-grad"}
    durations = [c.duration_ms for c in report.cases]
    assert durations == [1000 * (4 * k + 1) for k in range(len(durations))]
    cases = report.to_dict()["cases"]
    assert [c["duration_ms"] for c in cases] == durations
