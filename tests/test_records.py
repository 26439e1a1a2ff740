"""Value semantics of the library's records: immutable, compared by value, no tuple arithmetic where it would lie."""

from fractions import Fraction

import pytest

from tensorcomplex import ball, decompose, diagram, koszul
from tensorcomplex.fields import X_FIELD, FieldKind, TypedField
from tensorcomplex.operators import IDENTITIES, OperatorId, run_check
from tensorcomplex.poly import Poly3
from tensorcomplex.rational import PiScalar
from tensorcomplex.suites import Report, SuiteConfig, run_suite

X1 = Poly3.variable(1)


def _records():
    dec = decompose.decompose("cc", TypedField.identity_scaled(X1))
    return [
        OperatorId("curl"),
        IDENTITIES["eq2"],
        diagram.EDGES[0],
        ball._PAIRINGS["q-grad"],
        ball._MEMBERSHIP_STEPS[0],
        decompose._DECOMPOSERS["cc"],
        ball.P1_SPACE,
        koszul.RIGHT_INVERSES["Dcc"],
        koszul.right_inverse_rows()[-1],  # the closed form of Ddd(1)
        koszul.kernel_basis(("div",), FieldKind.SYMMETRIC, 1),
        next(letter for letter in koszul.RIGHT_INVERSES["Dcc"].chain if isinstance(letter, koszul._Zero)),
        dec,
        dec.parts[0],
        SuiteConfig(),
        run_check("one", "anchor", 1, lambda s: s, lambda x: True),
        X_FIELD,
        PiScalar(Fraction(4, 3)),
        Report("cells", SuiteConfig()),
    ]


def _field_names(record) -> tuple[str, ...]:
    return getattr(record, "_fields", None) or type(record).__slots__


def test_every_record_refuses_assignment():
    records = _records()
    assert len({type(r) for r in records}) == 18
    for record in records:
        for name in (*_field_names(record), "extra"):
            with pytest.raises(AttributeError):
                setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, _field_names(record)[0])


def test_equal_typed_fields_are_equal_and_hash_equal():
    a, b = (TypedField.vector([X1, X1 * X1, Poly3.const(3)]) for _ in range(2))
    assert a is not b and a == b and hash(a) == hash(b)
    assert len({a, b}) == 1
    sym = TypedField.identity_scaled(X1)
    assert TypedField(FieldKind.MATRIX, sym.components) != sym  # the kind is part of the value
    assert a != a.components and a != (a.kind, a.components)


def test_pi_scalar_is_a_number_not_a_tuple():
    x = PiScalar(Fraction(4, 3))
    assert x * 2 == PiScalar(Fraction(8, 3)) and hash(x) == hash(PiScalar(Fraction(4, 3)))
    with pytest.raises(TypeError):
        2 * x
    with pytest.raises(TypeError):
        x * x


def test_report_cases_are_a_tuple():
    # `run_suite` builds a report whole from its cases, so nothing can add to them afterwards.
    cfg = SuiteConfig(suite="cells", degree=1, samples=1)
    report = run_suite(cfg)
    assert type(report.cases) is tuple and len(report.cases) == 9
    assert Report("cells", cfg).cases == ()
