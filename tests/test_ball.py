"""Exact ball quadrature against a spherical-coordinates sympy oracle,
moment spaces, and the duality-pairing identities."""

import math
from fractions import Fraction

import hypothesis.strategies as st
import pytest
import sympy
from hypothesis import given, settings

from tensorcomplex.ball import (
    CONSTANTS_SCALAR,
    MomentSpace,
    ND_SPACE,
    P1_SPACE,
    RT_SPACE,
    bump,
    integrate_ball,
    l2_pair,
    moment_orthogonal,
    project_moment_orthogonal,
    verify_ibp,
    verify_membership_steps,
)
from tensorcomplex import ball
from tensorcomplex.fields import (
    E1,
    E2,
    MATRIX_KINDS,
    FieldKind,
    KindError,
    TypedField,
    X_FIELD,
    field_from_text,
    pairing_product,
)
from tensorcomplex.operators import OPS, SuiteConfig, components_equal, derived_rng, div, grad, random_field
from tensorcomplex.poly import P_ONE, Poly3, X1, X2, monomial_code
from tensorcomplex.rational import PiScalar

from conftest import divide_out_bump, field_degree, matrix_fields, polys, scalar_fields, vector_fields, zero_field


def spherical_oracle(a: int, b: int, c: int):
    """Independent quadrature of x1^a x2^b x3^c over the unit ball."""
    r, th, ph = sympy.symbols("r th ph", positive=True)
    x = r * sympy.sin(th) * sympy.cos(ph)
    y = r * sympy.sin(th) * sympy.sin(ph)
    z = r * sympy.cos(th)
    integrand = x**a * y**b * z**c * r**2 * sympy.sin(th)
    return sympy.integrate(
        sympy.integrate(sympy.integrate(integrand, (ph, 0, 2 * sympy.pi)), (th, 0, sympy.pi)),
        (r, 0, 1),
    )


@pytest.mark.parametrize(
    "mono",
    [(0, 0, 0), (2, 0, 0), (0, 2, 0), (1, 1, 0), (2, 2, 0), (4, 0, 0), (2, 2, 2), (1, 0, 0), (3, 1, 2)],
)
def test_monomial_integrals_match_spherical_oracle(mono):
    coeff = integrate_ball(Poly3.monomial(mono)).coeff
    expected = spherical_oracle(*mono)
    assert sympy.Rational(coeff.numerator, coeff.denominator) * sympy.pi == sympy.nsimplify(expected)


def _gamma_half(m: int) -> Fraction:
    """Gamma(m + 1/2) / sqrt(pi)."""
    return Fraction(math.factorial(2 * m), 4**m * math.factorial(m))


def _gamma_reference(a: int, b: int, c: int) -> Fraction:
    """2 G(a') G(b') G(c') / ((S+3) G(a'+b'+c')) with x' = (x+1)/2, the sqrt(pi) powers cancelled."""
    if a % 2 or b % 2 or c % 2:
        return Fraction(0)
    num = _gamma_half(a // 2) * _gamma_half(b // 2) * _gamma_half(c // 2)
    return Fraction(2, a + b + c + 3) * num / _gamma_half((a + b + c) // 2 + 1)


def _weighted_gamma_reference(a: int, b: int, c: int, k: int) -> Fraction:
    """The ball moment of x^(a, b, c) (1 - |x|^2)^k over pi: the sphere moment, (S+3) times the Gamma form,
    times the radial Beta integral of r^(S+2) (1 - r^2)^k, B((S+3)/2, k+1) / 2."""
    h = (a + b + c) // 2
    radial = Fraction(math.factorial(k), 2) * _gamma_half(h + 1) / _gamma_half(h + k + 2)
    return (a + b + c + 3) * _gamma_reference(a, b, c) * radial


def test_monomial_integrals_match_gamma_form_to_degree_16():
    for a in range(17):
        for b in range(17 - a):
            for c in range(17 - a - b):
                assert integrate_ball(Poly3.monomial((a, b, c))).coeff == _gamma_reference(a, b, c), (a, b, c)


@pytest.mark.parametrize("k", range(4))
def test_weighted_moments_match_the_gamma_form_with_its_radial_beta_factor_to_degree_12(k):
    scale, table = ball._moments(6, k)
    even = [(a, b, c) for a in range(0, 13, 2) for b in range(0, 13 - a, 2) for c in range(0, 13 - a - b, 2)]
    assert sorted(table) == sorted(monomial_code(m) for m in even)  # odd exponents integrate to zero
    for m in even:
        assert Fraction(table[monomial_code(m)], scale) == _weighted_gamma_reference(*m, k), m
    for m in ((1, 0, 0), (3, 2, 1), (2, 2, 3)):
        assert _weighted_gamma_reference(*m, k) == 0
    if k == 0:
        assert ball._moments(6, 0) == ball._moments(6)


def test_unit_ball_volume():
    assert str(integrate_ball(P_ONE)) == "4/3*pi"


def test_x1_squared():
    assert str(integrate_ball(X1 * X1)) == "4/15*pi"


@pytest.mark.parametrize("value", [Fraction(4, 3), Fraction(4, 15), 4, None, PiScalar(Fraction(1, 3))])
def test_a_ball_integral_of_another_type_or_value_fails_its_closed_form(monkeypatch, value):
    # The closed-form rows accept only the PiScalar they state: an integral that
    # came back as a bare Fraction, an int or None fails both cases, with the value as witness.
    monkeypatch.setattr(ball, "integrate_ball", lambda p: value)
    for row in ball.pairing_rows()[:2]:
        result = row.verify(SuiteConfig(suite="pairings"), {})
        assert not result.passed and result.witness == str(value), row.case_name


def test_odd_monomial_vanishes():
    assert integrate_ball(X1 * X2).is_zero


@given(polys(), polys())
def test_integration_is_linear(p, q):
    assert (integrate_ball(p + q) - integrate_ball(p) - integrate_ball(q)).is_zero


@given(polys())
def test_master_ibp_identity(p):
    # the single lemma behind every pairing: boundary terms vanish exactly
    for k in (1, 2):
        for i in (1, 2, 3):
            assert integrate_ball((bump(k) * p).partial(i)).is_zero


def test_l2_pair_examples():
    one = TypedField.scalar(P_ONE)
    assert str(l2_pair(one, one)) == "4/3*pi"
    assert str(l2_pair(X_FIELD, X_FIELD)) == "4/5*pi"
    from tensorcomplex.fields import ID_FIELD

    rng = derived_rng(3, "devpair")
    tau = random_field(FieldKind.MATRIX, 3, rng).dev()
    assert l2_pair(ID_FIELD, tau).is_zero  # pointwise trace-free


def test_bump_orders():
    assert bump(0) == P_ONE
    b1 = bump(1)
    assert b1.coefficients().get((0, 0, 0), 0) == 1 and b1.coefficients().get((2, 0, 0), 0) == -1
    assert bump(2) == b1 * b1
    with pytest.raises(ValueError):
        bump(-1)


@pytest.mark.parametrize("k", [-1, -4])
def test_a_negative_bump_order_is_refused_up_front(k):
    # With bump's own message, before any pair is summed: a zero pair is refused too.
    message = "^bump order must be >= 0$"
    for a, b in ((E1, E1), (E1, E2), (E1.scale(0), E2)):
        with pytest.raises(ValueError, match=message):
            l2_pair(a, b, bump_order=k)
    with pytest.raises(ValueError, match=message):
        ball._moments(2, k)
    with pytest.raises(ValueError, match=message):
        bump(k)


def test_moment_space_dimensions():
    assert len(P1_SPACE.basis) == 4
    assert len(RT_SPACE.basis) == 4
    assert len(ND_SPACE.basis) == 6
    assert len(CONSTANTS_SCALAR.basis) == 1


def test_moment_orthogonal_odd_scalar():
    assert moment_orthogonal(TypedField.scalar(X1), CONSTANTS_SCALAR) is None


def test_moment_orthogonal_failure_reports_witness():
    found = moment_orthogonal(TypedField.scalar(P_ONE), P1_SPACE)
    assert found is not None
    basis, pairing = found
    assert str(pairing) == "4/3*pi"
    assert basis.comp(1) == P_ONE


def test_moment_kind_mismatch():
    with pytest.raises(Exception):
        moment_orthogonal(E1, P1_SPACE)


def test_projection_kills_all_moments():
    rng = derived_rng(5, "proj")
    v = random_field(FieldKind.VECTOR, 3, rng).mul_scalar_poly(bump(1))
    out = project_moment_orthogonal(v, ND_SPACE)
    assert moment_orthogonal(out, ND_SPACE) is None


def test_projection_rejects_a_space_with_a_repeated_basis_field():
    # the Gram matrix of (E1, E1, E2) is singular, so no unique projection exists
    repeated = MomentSpace("repeated", FieldKind.VECTOR, (E1, E1, E2))
    v = random_field(FieldKind.VECTOR, 2, derived_rng(5, "proj")).mul_scalar_poly(bump(1))
    with pytest.raises(ValueError, match="singular"):
        project_moment_orthogonal(v, repeated)


def test_projection_builds_the_gram_rows_once_per_space(monkeypatch):
    space = MomentSpace("ND copy", FieldKind.VECTOR, ND_SPACE.basis)
    v, w = (random_field(FieldKind.VECTOR, 2, derived_rng(5, "proj", i)).mul_scalar_poly(bump(1)) for i in range(2))
    first = project_moment_orthogonal(v, space)
    calls = []
    true_pair = ball.l2_pair
    monkeypatch.setattr(ball, "l2_pair", lambda a, b, bump_order=0: calls.append(b) or true_pair(a, b, bump_order))
    second = project_moment_orthogonal(w, space)
    assert calls == list(space.basis)  # only the moments of w are paired again
    fresh = MomentSpace("ND copy", FieldKind.VECTOR, ND_SPACE.basis)
    assert components_equal(second, project_moment_orthogonal(w, fresh))  # cached rows give the same result
    assert moment_orthogonal(first, space) is None and moment_orthogonal(second, space) is None
    repeated = MomentSpace("repeated", FieldKind.VECTOR, (E1, E1, E2))
    for f in (v, w):  # a cached singular Gram matrix is still rejected
        with pytest.raises(ValueError, match="singular"):
            project_moment_orthogonal(f, repeated)


@pytest.mark.parametrize("name", tuple(ball._PAIRINGS))
def test_pairing_identities(name):
    r = verify_ibp(name, samples=4, degree=2, seed=7)
    assert r.passed, r.witness


def test_pairing_count_is_eight():
    assert len(ball._PAIRINGS) == 8
    assert len([verify_ibp(name, 1, 1, 0) for name in ball._PAIRINGS]) == 8


def test_q_grad_pairing_spec_example():
    # q = e1, test fn bump(1) * x1: both sides equal and here both vanish
    w = TypedField.scalar(bump(1) * X1)
    lhs = l2_pair(E1, grad(w))
    rhs = l2_pair(div(E1), w) * Fraction(-1)
    assert (lhs - rhs).is_zero and lhs.is_zero


def test_sigma_hess_id_spec_example():
    # sigma = id, w~ = bump(2): div div id = 0 forces the laplacian integral to 0
    from tensorcomplex.fields import ID_FIELD
    from tensorcomplex.operators import hess

    w = TypedField.scalar(bump(2))
    lhs = l2_pair(ID_FIELD, hess(w))
    assert lhs.is_zero


def test_membership_steps():
    results = verify_membership_steps(samples=3, degree=2, seed=7)
    assert len(results) == 6
    assert all(r.passed for r in results), [r.name for r in results if not r.passed]
    assert [r.name for r in results[:5]] == [row.name for row in ball._MEMBERSHIP_STEPS]


@pytest.mark.parametrize("step", range(5))
def test_every_membership_step_can_fail(monkeypatch, step):
    # a matrix field in place of a trace-free or symmetric one, or a field left
    # unprojected, has a nonzero moment against some basis field of the target
    steps = list(ball._MEMBERSHIP_STEPS)
    row = steps[step]
    if row.project is None:
        steps[step] = row._replace(input_kind=FieldKind.MATRIX)
    else:
        steps[step] = row._replace(project=None)
    monkeypatch.setattr(ball, "_MEMBERSHIP_STEPS", tuple(steps))
    results = verify_membership_steps(samples=3, degree=2, seed=7)
    assert [r.passed for r in results] == [i != step for i in range(5)] + [True]
    # the witness alone rechecks the case: the field's image under the step's
    # operator is printed, and pairs nonzero with the named basis field
    field_text, rest = results[step].witness.split("\nimage:\n")
    image_text, rest = rest.split("\npairing = ")
    value, basis_text = rest.split(" with:\n")
    f, image, basis = (field_from_text(t) for t in (field_text, image_text, basis_text))
    assert components_equal(OPS[row.op](f), image)
    assert any(components_equal(basis, b) for b in row.target.basis), results[step].witness
    assert str(l2_pair(image, basis)) == value and not l2_pair(image, basis).is_zero



def test_membership_step_with_an_image_of_the_wrong_kind_fails_with_the_field(monkeypatch):
    # div of a vector field is a scalar, which RT does not test: the moment
    # test raises KindError, and the case fails with the field and the error
    steps = list(ball._MEMBERSHIP_STEPS)
    steps[0] = steps[0]._replace(input_kind=FieldKind.VECTOR)
    monkeypatch.setattr(ball, "_MEMBERSHIP_STEPS", tuple(steps))
    results = verify_membership_steps(samples=1, degree=1, seed=7)
    assert [r.status for r in results] == ["fail"] + ["pass"] * 5
    field_text, message = results[0].witness.rsplit("\n", 1)
    assert field_from_text(field_text).kind is FieldKind.VECTOR
    assert message == "RT tests vector fields, got scalar"

# -- the term-pair pairing against the product-then-integrate reference ----

_PAIRED_KINDS = [(FieldKind.SCALAR, FieldKind.SCALAR), (FieldKind.VECTOR, FieldKind.VECTOR)] + [
    (k1, k2) for k1 in MATRIX_KINDS for k2 in MATRIX_KINDS
]


def _reference_pair(a: TypedField, b: TypedField):
    return integrate_ball(pairing_product(a, b))


@st.composite
def typed_fields(draw, kind: FieldKind):
    if draw(st.integers(0, 5)) == 0:
        return zero_field(kind)
    if kind is FieldKind.SCALAR:
        f = draw(scalar_fields())
    elif kind is FieldKind.VECTOR:
        f = draw(vector_fields())
    else:
        m = draw(matrix_fields())
        tagged = {FieldKind.SYMMETRIC: m.sym(), FieldKind.TRACEFREE: m.dev(), FieldKind.SKEW: m.skw()}
        f = tagged.get(kind, m)
    return f.mul_scalar_poly(bump(draw(st.integers(0, 2))))


@st.composite
def pairable_fields(draw):
    k1, k2 = draw(st.sampled_from(_PAIRED_KINDS))
    return draw(typed_fields(k1)), draw(typed_fields(k2))


@given(pairable_fields())
def test_l2_pair_matches_product_reference(fields):
    a, b = fields
    assert l2_pair(a, b) == _reference_pair(a, b)


@pytest.mark.parametrize("kinds", _PAIRED_KINDS, ids=lambda k: f"{k[0].value}-{k[1].value}")
def test_l2_pair_matches_reference_at_degree_seven(kinds):
    rng = derived_rng(13, "pair", *kinds)
    a = random_field(kinds[0], 3, rng).scale(Fraction(5, 7))
    b = random_field(kinds[1], 3, rng).mul_scalar_poly(bump(2))
    assert field_degree(b) == 7
    value = l2_pair(a, b)
    assert value.is_zero is (set(kinds) == {FieldKind.SYMMETRIC, FieldKind.SKEW})  # sym : skw = 0 pointwise
    assert value == _reference_pair(a, b) == l2_pair(b, a)


@pytest.mark.parametrize("kinds", _PAIRED_KINDS, ids=lambda k: f"{k[0].value}-{k[1].value}")
@settings(max_examples=10)
@given(data=st.data(), k=st.integers(0, 3))
def test_a_bump_order_pairs_as_the_field_times_the_bump(kinds, data, k):
    a, psi = data.draw(typed_fields(kinds[0])), data.draw(typed_fields(kinds[1]))
    assert l2_pair(a, psi, bump_order=k) == l2_pair(a, psi.mul_scalar_poly(bump(k)))


@given(polys(), polys(), polys(), st.integers(0, 3))
def test_repeated_pairs_integrate_to_the_plain_sum(p, q, r, k):
    # The same two objects, equal values in other objects, and a zero pair, each counted as often as listed.
    pairs = [(p, q), (r, q), (p, q), (Poly3.parse(str(p)), q), (P_ONE.scale(0), r), (p, q)]
    plain = PiScalar(Fraction(0))
    for pair in pairs:
        plain = plain + ball._pair_integral([pair], k)
    assert ball._pair_integral(pairs, k) == plain
    assert plain == ball._pair_integral([(p, q)], k) * 4 + ball._pair_integral([(r, q)], k)


@pytest.mark.parametrize("name", tuple(ball._PAIRINGS))
def test_a_pairing_witness_gives_back_the_drawn_test_field(name):
    # The witness prints phi = psi bump(2); dividing the bump out of the text recovers psi exactly.
    row = ball._PAIRINGS[name]
    f, psi = row.sample(2, 7, 0)
    field_text, phi_text = row.witness((f, psi)).split("\ntest field:\n")
    replayed = (field_from_text(field_text), divide_out_bump(field_from_text(phi_text), 2))
    assert replayed == (f, psi) and row.holds(replayed)


@pytest.mark.parametrize("kinds", [(FieldKind.SCALAR, FieldKind.VECTOR), (FieldKind.VECTOR, FieldKind.MATRIX)])
def test_l2_pair_kind_mismatch_raises(kinds):
    a, b = (zero_field(k) for k in kinds)
    for x, y in ((a, b), (b, a)):
        with pytest.raises(KindError):
            l2_pair(x, y)
        with pytest.raises(KindError):
            pairing_product(x, y)


def test_wrong_pairing_sign_is_caught(monkeypatch):
    monkeypatch.setitem(ball._PAIRINGS, "q-grad", ball._PAIRINGS["q-grad"]._replace(factor=Fraction(1)))
    r = verify_ibp("q-grad", samples=2, degree=2, seed=7)
    assert not r.passed
    # the witness alone rechecks the case: both sides differ under the wrong sign
    field_text, phi_text = r.witness.split("\ntest field:\n")
    q, phi = field_from_text(field_text), field_from_text(phi_text)
    assert q.kind is FieldKind.VECTOR and phi.kind is FieldKind.SCALAR
    assert l2_pair(q, grad(phi)) != l2_pair(div(q), phi)
    assert l2_pair(q, grad(phi)) == l2_pair(div(q), phi) * Fraction(-1)
