"""Homotopy operators, kernel sampling, and all right-inverse chains."""

import json
import math
from fractions import Fraction

import hypothesis.strategies as st
import pytest
import sympy
from hypothesis import given

import tensorcomplex.koszul as koszul
from tensorcomplex.cli import main
from tensorcomplex.fields import (
    E1,
    E3,
    FieldKind,
    KindError,
    TypedField,
    X_FIELD,
    cross,
    field_from_text,
)
from tensorcomplex.koszul import (
    PreconditionError,
    RIGHT_INVERSES,
    apply_word,
    homotopy_check,
    kernel_basis,
    kind_basis,
    right_inverse,
    sample_kernel,
    tc,
    td,
    tg,
    verify_right_inverse,
)
from tensorcomplex.operators import (
    OPS,
    ORDER,
    OperatorId,
    components_equal,
    curl,
    deff,
    derived_rng,
    div,
    grad,
    hess,
    inc,
    random_field,
)
from tensorcomplex.poly import P_ONE, P_ZERO, Poly3, X1, X2, monomials_up_to
from tensorcomplex.suites import SuiteConfig, run_suite

from conftest import (
    _clear_kernel_caches, basis_fields, curl_mutation, field_degree, matrix, polys, scalar_fields, vector_fields
)

_X = sympy.Matrix(sympy.symbols("x1 x2 x3"))


def _sympy_parts(comps):
    """Homogeneous parts {k: sympy column of the degree-k parts} of a field's components."""
    parts = {}
    for i, p in enumerate(comps):
        for (a, b, c), coeff in p.coefficients().items():
            col = parts.setdefault(a + b + c, sympy.zeros(len(comps), 1))
            col[i] += sympy.Rational(coeff.numerator, coeff.denominator) * _X[0] ** a * _X[1] ** b * _X[2] ** c
    return parts


def _assert_same(f, expected):
    ours = sum(_sympy_parts(f.components).values(), sympy.zeros(len(f.components), 1))
    assert sympy.expand(ours - expected) == sympy.zeros(len(f.components), 1)


@st.composite
def vector_fields_with_cancellation(draw):
    """Vector fields whose shifted terms cancel, in tg or in one row of tc."""
    p, r = draw(polys(max_degree=2)), draw(polys(max_degree=2))
    if draw(st.booleans()):
        return TypedField.vector([X2 * p, -(X1 * p), r])  # v . x loses every x1 x2 p term
    return TypedField.vector([X1 * p, X2 * p, r])  # (q x x)_3 = q1 x2 - q2 x1 = 0


@given(st.one_of(vector_fields(), vector_fields_with_cancellation()))
def test_tg_tc_match_eq17_reference(v):
    # Eq. (17) per homogeneous degree-k part: tg v = (v . x)/(k+1), tc q = (q x x)/(k+2)
    parts = _sympy_parts(v.components)
    _assert_same(tg(v), sympy.Matrix([sum((part.dot(_X) / (k + 1) for k, part in parts.items()), sympy.Integer(0))]))
    _assert_same(tc(v), sum((part.cross(_X) / (k + 2) for k, part in parts.items()), sympy.zeros(3, 1)))


@given(scalar_fields())
def test_td_matches_eq17_reference(u):
    # Eq. (17) per homogeneous degree-k part: td u = (x u)/(k+3)
    parts = _sympy_parts(u.components)
    _assert_same(td(u), sum((_X * part[0] / (k + 3) for k, part in parts.items()), sympy.zeros(3, 1)))


def test_tg_recovers_potential():
    w = TypedField.scalar(X1 * X1)
    assert components_equal(tg(grad(w)), w)  # zero constant term


def test_tc_of_e3():
    out = tc(E3)
    assert out.comp(1) == X2.scale(Fraction(-1, 2))
    assert out.comp(2) == X1.scale(Fraction(1, 2))
    assert out.comp(3).is_zero
    assert components_equal(curl(out), E3)


def test_td_of_one():
    out = td(TypedField.scalar(P_ONE))
    assert components_equal(out, X_FIELD.scale(Fraction(1, 3)))
    assert div(out).comp(1) == Poly3.const(1)


def test_homotopy_identities_exact():
    results = homotopy_check(samples=10, degree=4, seed=7)
    assert len(results) == 4
    assert all(r.passed for r in results)


def test_vector_field_regular_decomposition():
    # the two-part split u = tc(curl u) + grad(tg(u - tc(curl u))) that the
    # homotopy identities buy: the remainder is curl-free, so tg recovers it
    for s in range(5):
        u = random_field(FieldKind.VECTOR, 3, derived_rng(7, "hocurl", s))
        s0 = tc(curl(u))
        rest = u - s0
        assert curl(rest).is_zero
        s1 = tg(rest)
        assert components_equal(s0 + grad(s1), u)


def test_homotopy_on_constant_scalar():
    w = TypedField.scalar(Poly3.const(5))
    assert tg(grad(w)).is_zero  # w - w(0) = 0


def test_homotopy_hand_example():
    v = TypedField.vector([X2, P_ZERO, P_ZERO])
    assert tg(v).comp(1) == (X1 * X2).scale(Fraction(1, 2))
    assert components_equal(curl(v), E3.scale(-1))
    assert components_equal(grad(tg(v)) + tc(curl(v)), v)


def test_koszul_degree_shift():
    # each application raises homogeneous degree by exactly one
    rng = derived_rng(31, "shift")
    v = random_field(FieldKind.VECTOR, 3, rng)
    for f, arg in ((tg, v), (tc, v), (td, TypedField.scalar(v.comp(1)))):
        out = f(arg)
        assert field_degree(out) == field_degree(arg) + 1


def test_sample_kernel_curl_free_vector():
    v = sample_kernel(("curl",), FieldKind.VECTOR, 2, 3)
    assert curl(v).is_zero and not v.is_zero


def test_sample_kernel_div_div():
    s = sample_kernel(("div_div",), FieldKind.SYMMETRIC, 2, 5)
    assert OPS["div_div"](s).is_zero and s.kind is FieldKind.SYMMETRIC


def test_sample_kernel_degree_zero_div():
    v = sample_kernel(("div",), FieldKind.VECTOR, 0, 1)
    assert field_degree(v) == 0 and div(v).is_zero  # constants


def test_sample_kernel_trivial_kernel_error(monkeypatch):
    # every listed operator kills constants, so a genuinely trivial kernel
    # cannot arise from the registry; exercise the branch directly
    import tensorcomplex.koszul as k

    monkeypatch.setattr(k, "kernel_basis", lambda *a, **kw: k.KernelBasis(FieldKind.VECTOR, 1, 0, 1, ((),) * 3))
    with pytest.raises(ValueError, match="kernel is trivial"):
        k.sample_kernel(("curl",), FieldKind.VECTOR, 1, 0)


def _p(k: int) -> int:
    """Dimension of the scalar polynomials of degree <= k in three variables."""
    return math.comb(k + 3, 3) if k >= 0 else 0


# Nullities of every kernel the right inverses sample from, in closed form.
# The complexes are exact on polynomials (the Koszul homotopies of Eq. (17)),
# so each kernel is the image of the previous operator, and its dimension is
# that operator's domain dimension minus the dimension of its own kernel
# (or, for the div kernels, the domain minus the surjective image).
_S, _T, _V = FieldKind.SYMMETRIC, FieldKind.TRACEFREE, FieldKind.VECTOR
_KERNEL_DIMENSIONS = {
    (("curl",), _S): lambda d: _p(d + 2) - 4,  # hess P_{d+2}, kernel P1
    (("inc",), _S): lambda d: 3 * _p(d + 1) - 6,  # deff of vectors, kernel the 6 rigid motions
    (("sym_curl",), _T): lambda d: 3 * _p(d + 1) - 4,  # dev grad of vectors, kernel RT
    (("div_div",), _S): lambda d: 6 * _p(d) - _p(d - 2),  # div div onto P_{d-2}
    (("div",), _S): lambda d: 6 * _p(d) - 3 * _p(d - 1),  # div onto vector P_{d-1}
    (("div",), _T): lambda d: 8 * _p(d) - 3 * _p(d - 1),  # div onto vector P_{d-1}
    (("curl",), _V): lambda d: _p(d + 1) - 1,  # grad P_{d+1}, kernel the constants
    (("div",), _V): lambda d: 3 * _p(d) - _p(d - 1),  # div onto P_{d-1}
    # curl deff of vectors P_{d+2}, kernel grad P_{d+3} plus the 3 rotations
    (("div", "sym_curl_t"), _T): lambda d: 3 * _p(d + 2) - _p(d + 3) - 2,
}


def test_closed_form_kernel_dimensions_cover_every_sampled_kernel():
    sampled = {(spec.kernel_ops, spec.input_kind) for spec in RIGHT_INVERSES.values() if spec.kernel_ops}
    assert sampled == set(_KERNEL_DIMENSIONS)


@pytest.mark.parametrize("degree", [2, 3, 4])
def test_kernel_dimensions_match_closed_form(degree):
    got = {key: kernel_basis(*key, degree).size for key in _KERNEL_DIMENSIONS}
    assert got == {key: dim(degree) for key, dim in _KERNEL_DIMENSIONS.items()}


def test_kind_basis_is_built_once_per_kind_and_degree():
    for kind in FieldKind:
        basis = kind_basis(kind, 2)
        assert type(basis) is tuple  # a shared cached basis that no caller can change
        assert kind_basis(kind, 2) is basis
        assert all(f.kind is kind for f in basis)


def test_kernel_basis_is_built_once_per_operators_kind_and_degree():
    for ops, kind in _KERNEL_DIMENSIONS:
        basis = kernel_basis(ops, kind, 2)
        # a shared cached record that no caller can change: one table row per component
        assert (basis.kind, basis.degree) == (kind, 2) and type(basis.table) is tuple
        assert len(basis.table) == len(basis_fields(basis)[0].components)
        for name in ("kind", "degree", "size", "denom", "table"):
            with pytest.raises(AttributeError):
                setattr(basis, name, ())
            with pytest.raises(AttributeError):
                delattr(basis, name)
        assert kernel_basis(ops, kind, 2) is basis
        assert kernel_basis(op_names=ops, kind=kind, degree=2) == basis
    # The operator names are part of the cache key, so they must be a tuple.
    ops, kind = next(iter(_KERNEL_DIMENSIONS))
    for call in (lambda: kernel_basis(list(ops), kind, 2), lambda: sample_kernel(list(ops), kind, 2, 7)):
        with pytest.raises(TypeError, match="unhashable type: 'list'"):
            call()


@pytest.mark.parametrize("degree", [2, 3])
def test_kernel_basis_equals_sympy_nullspace(degree):
    # The basis vectors decide every sampled right-inverse input, so pin them:
    # sympy's reduced-echelon nullspace of the stacked coefficient matrix
    # (one column per kind_basis field, one row per image coefficient).
    for ops, kind in _KERNEL_DIMENSIONS:
        basis = kind_basis(kind, degree)
        images = [
            {(name, ci, m): c for name in ops for ci, p in enumerate(OPS[name](b).components)
             for m, c in p.coefficients().items()}
            for b in basis
        ]
        keys = sorted(set().union(*images), key=repr)
        matrix = sympy.Matrix([[sympy.Rational(str(image.get(k, 0))) for image in images] for k in keys])
        expected = []
        for v in matrix.nullspace():
            terms = [b.scale(Fraction(int(c.p), int(c.q))) for c, b in zip(v, basis) if c != 0]
            expected.append(sum(terms[1:], terms[0]))
        assert basis_fields(kernel_basis(ops, kind, degree)) == expected, (ops, kind)


@pytest.mark.parametrize("order", [0, 2])
def test_a_wrong_order_entry_makes_kernel_basis_name_the_operator(monkeypatch, fresh_kernel_caches, order):
    # At order 0 curl takes the constant probe to zero; at order 2 it takes
    # the probe x^(2,2,2) e_s to a field of degree 5, not 4.
    monkeypatch.setitem(ORDER, "curl", order)
    with pytest.raises(ValueError, match="curl"):
        kernel_basis(("curl",), FieldKind.VECTOR, 3)


@pytest.mark.parametrize("extra", [lambda f: f, lambda f: grad(div(f))], ids=["order-0", "order-2"])
def test_a_part_of_another_order_makes_kernel_basis_name_the_operator(monkeypatch, fresh_kernel_caches, extra):
    # A part of order k takes the probe x^(1,1,1) e_s of curl to degree 3 - k,
    # off the degree 2 of curl itself.  grad div kills every field of degree 1,
    # so only a probe of higher degree than the order can show it.
    monkeypatch.setitem(OPS, "curl", lambda f: curl(f) + extra(f))
    with pytest.raises(ValueError, match="curl"):
        kernel_basis(("curl",), FieldKind.VECTOR, 3)


def _per_monomial_symbol(name: str, kind: FieldKind) -> tuple[dict, ...]:
    """The symbol read the long way: per slot s, {alpha: nonzero (component,
    coefficient) entries of the constant image of the basis field x^alpha e_s},
    one application per alpha with |alpha| = ORDER[name]."""
    r = ORDER[name]
    monomials, basis = monomials_up_to(r), kind_basis(kind, r)
    out = []
    for s in range(len(koszul._slots(kind))):
        symbol = {}
        for i, alpha in enumerate(monomials):
            if sum(alpha) < r:
                continue
            entries = []
            for ci, p in enumerate(OPS[name](basis[s * len(monomials) + i]).components):
                for m, c in p.coefficients().items():
                    assert not any(m), (name, kind, alpha)
                    entries.append((ci, c))
            if entries:
                symbol[alpha] = entries
        out.append(symbol)
    return tuple(out)


@pytest.mark.parametrize("name", list(OPS))
def test_the_one_probe_symbol_equals_the_per_monomial_symbol(name):
    accepted = []
    for kind in FieldKind:
        try:
            expected = _per_monomial_symbol(name, kind)
        except KindError:  # the operator takes no field of this kind, or leaves its kind
            with pytest.raises(KindError):
                koszul._symbol(name, kind)
            continue
        if not any(expected):  # zero on this kind, as div div on skew fields: no order to read
            with pytest.raises(ValueError, match=name):
                koszul._symbol(name, kind)
            continue
        assert koszul._symbol(name, kind) == expected, kind
        accepted.append(kind)
    assert accepted


def test_kernel_fill_applies_the_operators_to_symbol_probes_only(monkeypatch, fresh_kernel_caches):
    # A host-independent work count.  Each (operator, kind) symbol costs one
    # application per slot of the kind, to the probe x^(r,r,r) e_s: 6 * 4 on
    # symmetric, 3 * 2 on vector and 8 * 3 on trace-free fields, 54 over the
    # nine sampled kernels, whatever the degree.
    calls = []
    for name, op in OPS.items():
        monkeypatch.setitem(OPS, name, lambda f, op=op: calls.append(op) or op(f))

    def fill(degree):
        before = len(calls)
        for ops, kind in _KERNEL_DIMENSIONS:
            kernel_basis(ops, kind, degree)
        return len(calls) - before

    assert fill(3) == 54
    assert fill(6) == 0


def test_kernel_fill_builds_no_basis_field(monkeypatch, fresh_kernel_caches):
    # A host-independent work count.  A fresh fill of the nine sampled kernels
    # builds fields only to read the operator symbols off their probes, so the
    # count does not grow with the degree; a basis field is built only by
    # `combine`, and the fill calls it for none.
    built = []
    init = TypedField.__init__
    monkeypatch.setattr(TypedField, "__init__", lambda f, *args: built.append(f) or init(f, *args))

    def fill(degree):
        _clear_kernel_caches()
        kind_basis.cache_clear()
        before = len(built)
        for ops, kind in _KERNEL_DIMENSIONS:
            kernel_basis(ops, kind, degree)
        return len(built) - before

    assert fill(3) == fill(6)


def test_a_kind_error_in_the_kernel_fill_fails_the_case_with_the_basis_field(broken_curl, tmp_path):
    # The broken curl of a symmetric field is no longer trace-free, so inc and
    # curl raise KindError on a basis field while a draw builds their kernel on
    # symmetric fields.  Each such case must fail with that field as witness,
    # and the suite must finish and write its report.
    out = tmp_path / "right-inverses.json"
    args = ["run", "--suite", "right-inverses", "--seed", "7", "--degree", "2", "--samples", "2", "--out", str(out)]
    assert main(args) == 1
    cases = {c["name"].partition(":")[0]: c for c in json.loads(out.read_text())["cases"]}
    assert set(RIGHT_INVERSES) <= set(cases)
    for name in ("Rgg_tilde", "Dgg", "Rgg"):  # the samples of ker inc and ker curl on symmetric fields
        spec = RIGHT_INVERSES[name]
        assert cases[name]["status"] == "fail", name
        b = field_from_text(cases[name]["witness"])
        assert b.kind is spec.input_kind
        for op_name in spec.kernel_ops:
            # the probe x^(r,r,r) e_s of the operator of order r, a basis field of degree 3r
            r = ORDER[op_name]
            assert b in kind_basis(b.kind, 3 * r)
            assert {m for p in b.components for m in p.coefficients()} == {(r, r, r)}
            with pytest.raises(KindError):
                OPS[op_name](b)


def test_emptied_kernel_caches_take_a_mutated_curl_into_the_samples_and_the_cases(fresh_kernel_caches):
    # The sampling table is built inside the cached kernel_basis call, so
    # emptying that cache must drop it too: kernels filled with the true curl
    # and refilled with a broken one must sample from the broken operator.
    keys = list(dict.fromkeys((s.kernel_ops, s.input_kind) for s in RIGHT_INVERSES.values() if s.kernel_ops))
    before = {key: sample_kernel(*key, 2, 7) for key in keys}
    assert run_suite(SuiteConfig(suite="right-inverses", seed=7, degree=2, samples=2)).all_passed
    with curl_mutation():
        for ops, kind in keys:
            try:
                changed = sample_kernel(ops, kind, 2, 7) != before[ops, kind]
            except KindError:  # the broken curl broke a kind predicate on a basis field
                changed = True
            assert changed == (not set(ops) <= {"div", "div_div"}), ops  # only these read no curl
        report = run_suite(SuiteConfig(suite="right-inverses", seed=7, degree=2, samples=2))
    statuses = {c.name.partition(":")[0]: c.status for c in report.cases}
    # only the chains with no kernel constraint and no curl inside still pass
    assert {name for name in RIGHT_INVERSES if statuses[name] == "pass"} == {"Ddd", "Rgd", "Rd_plain"}
    assert {statuses[name] for name in RIGHT_INVERSES} == {"pass", "fail"}


def test_kernels_filled_before_the_curl_mutation_do_not_hide_its_failures():
    # The kernel caches are keyed by operator name: kernels filled with the
    # true curl and kept under the broken one sample from the true kernels, and
    # a run reports 14 failing cases.  The shared mutation empties them first,
    # so the run reports the 18 that a process with fresh caches reports.
    cfg = SuiteConfig(suite="right-inverses", seed=7, degree=2, samples=2)
    assert run_suite(cfg).all_passed
    assert kernel_basis.cache_info().currsize
    with curl_mutation():
        report = run_suite(cfg)
    assert report.counts == {"pass": 6, "fail": 18, "error": 0, "total": 24}


@pytest.mark.parametrize("name", tuple(RIGHT_INVERSES))
def test_right_inverse_defining_identity(name):
    result = verify_right_inverse(name, samples=4, degree=2, seed=7)
    assert result.passed, result.witness


@pytest.mark.parametrize("name", tuple(RIGHT_INVERSES))
def test_right_inverse_output_kind(name):
    spec = RIGHT_INVERSES[name]
    f = RIGHT_INVERSES[name].sample(2, 13, 0)
    out = right_inverse(name, f)
    assert out.kind is spec.output_kind


@pytest.mark.parametrize("name", tuple(RIGHT_INVERSES))
def test_wrong_output_kind_fails_the_right_inverse_check(monkeypatch, name):
    # no chain returns a general matrix field, so every spec now declares a wrong kind
    spec = RIGHT_INVERSES[name]
    monkeypatch.setitem(koszul.RIGHT_INVERSES, name, spec._replace(output_kind=FieldKind.MATRIX))
    result = verify_right_inverse(name, samples=2, degree=2, seed=7)
    assert result.status == "fail"
    assert field_from_text(result.witness).kind is spec.input_kind


@pytest.mark.parametrize("name", tuple(RIGHT_INVERSES))
def test_a_doubled_chain_fails_the_right_inverse_check(monkeypatch, name):
    # every row of the table, the `after` rows and the Lemma 3.11 pair included,
    # must reject an output twice too large, with a genuine input as witness
    spec = RIGHT_INVERSES[name]

    def doubled(f):
        out = apply_word(spec.chain, f)
        return out.scale(2) if spec.part is None else tuple(half.scale(2) for half in out)

    monkeypatch.setitem(koszul.RIGHT_INVERSES, name, spec._replace(chain=(doubled,)))
    result = verify_right_inverse(name, samples=2, degree=2, seed=7)
    assert result.status == "fail"
    witness = field_from_text(result.witness)
    assert witness.kind is spec.input_kind
    right_inverse(name, witness)  # in the domain: no precondition fails


def test_a_nonzero_curl_inside_dgg_fails_the_case_with_the_drawn_input(monkeypatch):
    # grad(tg_rows g) = g is symmetric, so Lemma 3.3 makes the curl of that
    # potential zero: a broken tg_rows is a fail with the input, not an error
    true_tg_rows = koszul.tg_rows

    def broken(m):
        u = true_tg_rows(m)
        return TypedField.vector([u.comp(1).scale(2), u.comp(2), u.comp(3)])

    monkeypatch.setattr(koszul, "tg_rows", broken)
    monkeypatch.setitem(koszul._RAISE, "tg_rows", broken)  # the letter the Dgg word reads
    result = verify_right_inverse("Dgg", samples=3, degree=3, seed=7)
    assert result.status == "fail"
    witness = field_from_text(result.witness)
    assert witness.kind is FieldKind.SYMMETRIC and curl(witness).is_zero


def test_kernel_constraint_violation_names_witness():
    rng = derived_rng(41, "bad")
    sigma = random_field(FieldKind.SYMMETRIC, 2, rng)
    assert not div(sigma).is_zero
    with pytest.raises(PreconditionError, match="div"):
        right_inverse("Dcc", sigma)
    try:
        right_inverse("Dcc", sigma)
    except PreconditionError as err:
        assert "kind:" in err.witness  # witness is a serialized field


def test_strict_moment_precondition():
    one = TypedField.scalar(P_ONE)
    # non-strict: unconditional chain
    out = right_inverse("Ddd", one)
    assert components_equal(OPS["div_div"](out), one)
    # strict: (1, 1) pairing is 4/3*pi != 0
    with pytest.raises(PreconditionError, match="moment"):
        right_inverse("Ddd", one, strict_preconditions=True)


def test_ddd_unit_closed_form():
    out = right_inverse("Ddd", TypedField.scalar(P_ONE))
    expected = matrix(
        [[(Poly3.variable(i) * Poly3.variable(j)).scale(Fraction(1, 12)) for j in range(1, 4)] for i in range(1, 4)],
        FieldKind.SYMMETRIC,
    )
    assert components_equal(out, expected)


def test_dgg_recovers_cubic_potential():
    w = TypedField.scalar(X1 * X1 * X2)
    g = hess(w)
    out = right_inverse("Dgg", g)
    assert components_equal(hess(out), g)
    # potentials agree up to an affine function, here exactly (no affine part)
    assert components_equal(out, w)


def test_dcc_on_kernel_sample():
    sigma = sample_kernel(("div",), FieldKind.SYMMETRIC, 2, 3)
    g = right_inverse("Dcc", sigma)
    assert components_equal(inc(g), sigma)


@pytest.mark.parametrize("name", tuple(RIGHT_INVERSES))
def test_right_inverse_raises_the_degree_by_the_order_of_its_operator(name):
    # each chain gains as many degrees as the operator it inverts takes off;
    # the Lemma 3.11 pair inverts curl through g + deff u, so u gains one more
    spec = RIGHT_INVERSES[name]
    gain = {"Rgc_tilde": 1, "Dgc_tilde": 2}.get(name, ORDER[spec.op.name])
    f = RIGHT_INVERSES[name].sample(3, 19, 0)
    assert field_degree(right_inverse(name, f)) == field_degree(f) + gain


def test_right_inverse_kind_check():
    with pytest.raises(KindError, match="Dcc needs a symmetric field"):
        right_inverse("Dcc", E1)  # vector where a symmetric field is needed


def test_wrong_sign_in_tc_is_caught(monkeypatch):
    true_tc = koszul.tc
    monkeypatch.setattr(koszul, "tc", lambda q: -true_tc(q))
    monkeypatch.setitem(koszul._RAISE, "tc", koszul.tc)  # the letter the chain words read
    report = run_suite(SuiteConfig(suite="right-inverses", seed=7, degree=2, samples=2))
    cases = {c.name: c for c in report.cases}
    checks = {
        "curl(tc q) + td(div q) = q": lambda q: components_equal(curl(koszul.tc(q)) + td(div(q)), q),
        "Rc_plain: (1/2) curl(Rc q) = q": lambda q: components_equal(
            curl(right_inverse("Rc_plain", q)).scale(Fraction(1, 2)), q
        ),
    }
    for name, holds in checks.items():
        case = cases[name]
        assert case.status != "pass" and case.witness is not None, name
        witness = field_from_text(case.witness)
        assert witness.kind is FieldKind.VECTOR
        assert not holds(witness), name


_LEMMA_3_11 = ("Rgc_tilde", "Dgc_tilde", "Rgc")


def test_the_lemma_3_11_rows_build_their_pair_once_per_sample(monkeypatch):
    # Rgc_tilde, Dgc_tilde and Rgc are the two halves of one construction and
    # their sum: run in a row, they build it once per drawn input, not once per
    # case and input.  Dgc builds the pair through the module function, once
    # per sample too: 10 + 10 calls at 10 samples (40 when each case builds its own).
    original = koszul._rgc_tilde_dgc_tilde
    calls = []

    def counted(tau):
        calls.append(tau)
        return original(tau)

    monkeypatch.setattr(koszul, "_rgc_tilde_dgc_tilde", counted)
    for name in _LEMMA_3_11:
        monkeypatch.setitem(koszul.RIGHT_INVERSES, name, RIGHT_INVERSES[name]._replace(chain=(counted,)))
    report = run_suite(SuiteConfig(suite="right-inverses", seed=7, degree=2, samples=10))
    assert report.all_passed
    assert len(calls) == 20


def _broken_curl(request):
    request.getfixturevalue("broken_curl")


def _one_doubled_chain(request):
    monkeypatch = request.getfixturevalue("monkeypatch")
    spec = RIGHT_INVERSES["Dgc_tilde"]
    doubled = spec._replace(chain=(lambda tau: tuple(half.scale(2) for half in apply_word(spec.chain, tau)),))
    monkeypatch.setitem(koszul.RIGHT_INVERSES, "Dgc_tilde", doubled)


def _one_wrong_output_kind(request):
    monkeypatch = request.getfixturevalue("monkeypatch")
    wrong = RIGHT_INVERSES["Dgc_tilde"]._replace(output_kind=_S)
    monkeypatch.setitem(koszul.RIGHT_INVERSES, "Dgc_tilde", wrong)


def _one_wrong_op(request):
    monkeypatch = request.getfixturevalue("monkeypatch")
    wrong = RIGHT_INVERSES["Dgc_tilde"]._replace(op=OperatorId("curl", Fraction(2)))
    monkeypatch.setitem(koszul.RIGHT_INVERSES, "Dgc_tilde", wrong)


@pytest.mark.parametrize("breakage", [_broken_curl, _one_doubled_chain, _one_wrong_output_kind, _one_wrong_op])
def test_the_shared_lemma_3_11_cases_report_as_each_case_alone(request, breakage):
    # The record the three rows share holds outcomes, not verdicts: each case
    # still compares its own output kind (a wrong one on a row of the shared
    # chain), and a row with another chain (a doubled one) or another op (a
    # doubled curl) draws on none of it.  So each case reports what it
    # reports when run alone.
    breakage(request)
    cfg, memo = SuiteConfig(seed=7, degree=2, samples=4), {}  # one memo, as a suite run hands every row
    cases = {c.name.partition(":")[0]: c for c in (row.verify(cfg, memo) for row in RIGHT_INVERSES.values())}
    assert any(cases[name].status != "pass" for name in _LEMMA_3_11)
    for name in _LEMMA_3_11:
        alone = verify_right_inverse(name, samples=4, degree=2, seed=7)
        assert (cases[name].status, cases[name].witness) == (alone.status, alone.witness), name


@pytest.mark.parametrize("name, half", [("Rgc_tilde", 0), ("Dgc_tilde", 1), ("Rgc", 2)])
def test_paired_right_inverse_returns_its_half(monkeypatch, name, half):
    # Rgc is the third part of the Lemma 3.11 pair (g, u): their sum g + deff u,
    # which only Rgc builds
    f = RIGHT_INVERSES[name].sample(2, 13, 0)
    g, u = koszul._rgc_tilde_dgc_tilde(f)
    expected = (g, u, g + deff(u))[half]
    calls = []
    monkeypatch.setattr(koszul, "deff", lambda v: calls.append(v) or deff(v))
    assert components_equal(right_inverse(name, f), expected)
    assert len(calls) == (half == 2)
