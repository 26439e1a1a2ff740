"""One probe per slot decides a constant-coefficient check on every smooth field.

Take L = sum over |alpha| <= R of C_alpha d^alpha and beta = (R, R, R).  Then
L(x^beta e_s) = sum over alpha of beta!/(beta - alpha)! C_alpha e_s x^(beta - alpha),
and distinct alpha give distinct monomials, so L is zero on every smooth field of
a kind exactly when it is zero on x^beta e_s for every slot s of the kind.  The
re-tags inside `diagram.apply_path` are constant pointwise predicates, so the same
probes cover them.  These tests pin that argument on today's rows: no library code
reads it yet.
"""

import pytest

from tensorcomplex import diagram
from tensorcomplex.fields import KindError, TypedField
from tensorcomplex.koszul import kind_basis
from tensorcomplex.operators import ORDER, OperatorId
from tensorcomplex.poly import Poly3
from tensorcomplex.suites import SuiteConfig, run_suite, suite_rows

from conftest import curl_mutation

_SUITES = ("identities", "cells", "two-complex", "derived-complexes")


def side_order(side) -> int:
    """The order of a row side: ORDER of an operator, or the sum of ORDER along a walk."""
    if isinstance(side, OperatorId):
        return ORDER[side.name]
    assert isinstance(side, diagram.Walk), side
    return sum(ORDER[e.op.name] for e in side)


def probes(row) -> list[TypedField]:
    """x^(R,R,R) e_s for each slot s of the row's input kind, R the largest order of its sides."""
    r = max(map(side_order, row.sides))
    x_beta = Poly3.monomial((r, r, r))
    return [TypedField(row.input_kind, tuple(p if p.is_zero else p * x_beta for p in e_s.components))
            for e_s in kind_basis(row.input_kind, 0)]


def probes_hold(row) -> bool:
    """Whether the row's own check holds on each of its probes; a KindError does not hold."""
    try:
        return all(row.holds(f) for f in probes(row))
    except KindError:
        return False


def failing_rows(suite: str) -> list[str]:
    return [row.case_name for row in suite_rows(suite) if not probes_hold(row)]


def failing_cases(suite: str, degree: int, samples: int) -> list[str]:
    report = run_suite(SuiteConfig(suite=suite, seed=7, degree=degree, samples=samples))
    return [c.name for c in report.cases if c.status != "pass"]


def test_every_constant_coefficient_row_holds_on_its_probes():
    rows = [row for suite in _SUITES for row in suite_rows(suite)]
    assert (len(rows), sum(len(probes(row)) for row in rows)) == (70, 283)
    assert all(probes_hold(row) for row in rows)


@pytest.mark.parametrize("suite, failing", [("identities", 9), ("cells", 5), ("two-complex", 44),
                                            ("derived-complexes", 6)])
def test_the_probes_fail_the_rows_that_sampling_fails_under_the_curl_mutation(suite, failing):
    with curl_mutation():
        by_probe = failing_rows(suite)
        sampled = failing_cases(suite, degree=3, samples=10)
        smaller = failing_cases(suite, degree=2, samples=2)
    assert len(by_probe) == failing
    assert by_probe == sampled
    assert set(smaller) <= set(by_probe)
