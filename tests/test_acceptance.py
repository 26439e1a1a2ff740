"""Acceptance gate: every criterion at its stated sample count, degree bound
and time budget, all with zero tolerance.  One printed line per criterion.
"""

import time
from fractions import Fraction

from tensorcomplex import ball, decompose, diagram, koszul, operators
from tensorcomplex.fields import FieldKind, TypedField
from tensorcomplex.poly import P_ONE, Poly3
from tensorcomplex.suites import SuiteConfig, run_suite

from conftest import matrix


def _report(criterion: str, passed: bool):
    print(f"\nacceptance [{criterion}]: {'PASS' if passed else 'FAIL'}")
    assert passed, criterion


def test_criterion_1_identity_suite():
    # 6 pointwise identities + 5 second-order identities, 20 samples, degree <= 4, < 10 s
    t0 = time.monotonic()
    results = [operators.verify_identity(name, samples=20, degree=4, seed=7) for name in operators.IDENTITIES]
    elapsed = time.monotonic() - t0
    ok = len(results) == 11 and all(r.passed for r in results) and elapsed < 10.0
    _report(f"1: identity suite, 11 identities x 20 samples, degree 4, {elapsed:.1f}s", ok)


def test_criterion_2_commutativity_of_all_cells():
    results = [diagram.check_cell(d.src, samples=10, degree=3, seed=7) for d in diagram.DIAGONALS]
    scaled = {
        ((1, 3), (2, 3)): Fraction(1, 2),
        ((3, 1), (3, 2)): Fraction(1, 2),
        ((1, 4), (2, 4)): Fraction(1, 3),
        ((4, 1), (4, 2)): Fraction(1, 3),
        ((2, 4), (3, 4)): Fraction(1, 2),
        ((4, 2), (4, 3)): Fraction(1, 2),
    }
    scales_ok = all(diagram.edge(s, d).op.scale == v for (s, d), v in scaled.items())
    ok = len(results) == 9 and all(r.passed for r in results) and scales_ok
    _report("2: all 9 cells commute exactly (scale factors 1/2, 1/3 included)", ok)


def test_criterion_3_two_complex_all_length3_paths():
    t0 = time.monotonic()
    paths = diagram.enumerate_paths(3)
    results = diagram.check_two_complex(samples=5, degree=3, seed=7)
    elapsed = time.monotonic() - t0
    ok = len(paths) == 44 and len(results) == 44 and all(r.passed for r in results) and elapsed < 30.0
    _report(f"3: 44 monotone length-3 paths, 5 samples each, exact zero, {elapsed:.1f}s", ok)


def test_criterion_4_derived_complexes():
    ok = True
    for name in ("hessian", "elasticity", "divdiv"):
        results = diagram.check_derived_complex(name, samples=10, degree=3, seed=7)
        ok = ok and all(r.passed for r in results)
    _report("4: hessian / elasticity / div-div consecutive compositions vanish", ok)


def test_criterion_5_homotopy_identities():
    results = koszul.homotopy_check(samples=10, degree=4, seed=7)
    names = [r.name for r in results]
    ok = all(r.passed for r in results) and any("w - w(0)" in n for n in names)
    _report("5: four homotopy identities exact at degree 4", ok)


def test_criterion_6_right_inverses():
    # 19 ids, 17 constructions: the paired trace-free potentials share one
    # joint identity and the two plain bottom-row potentials share one
    # construction line; every id is checked on its own kernel-sampled inputs
    results = [
        koszul.verify_right_inverse(name, samples=10, degree=3, seed=7)
        for name in koszul.RIGHT_INVERSES
    ]
    distinct_identities = {koszul.RIGHT_INVERSES[n].statement for n in koszul.RIGHT_INVERSES}
    witness = koszul.right_inverse("Ddd", TypedField.scalar(P_ONE))
    expected = matrix(
        [[(Poly3.variable(i) * Poly3.variable(j)).scale(Fraction(1, 12)) for j in range(1, 4)] for i in range(1, 4)],
        FieldKind.SYMMETRIC,
    )
    witness_ok = operators.components_equal(witness, expected) and operators.components_equal(
        operators.OPS["div_div"](witness), TypedField.scalar(P_ONE)
    )
    ok = (
        len(results) == 19
        and len(distinct_identities) == 18
        and all(r.passed for r in results)
        and witness_ok
    )
    _report("6: all D/R defining identities on 10 kernel-sampled inputs; Ddd(1) = xx^T/12", ok)


def test_criterion_7_regular_decompositions():
    results = [
        decompose.verify_decomposition(name, samples=10, degree=3, seed=7) for name in decompose.DECOMPOSITION_NAMES
    ]
    ok = len(results) == 6 and all(r.passed for r in results)
    _report("7: cc/dd/cd and the three short decompositions reconstruct exactly", ok)


def test_criterion_8_pairings_and_memberships():
    ibp = [ball.verify_ibp(name, samples=10, degree=3, seed=7) for name in ball._PAIRINGS]
    membership = ball.verify_membership_steps(samples=10, degree=3, seed=7)
    integrals_ok = (
        str(ball.integrate_ball(P_ONE)) == "4/3*pi"
        and str(ball.integrate_ball(Poly3.monomial((2, 0, 0)))) == "4/15*pi"
    )
    ok = (
        len(ibp) == 8
        and all(r.passed for r in ibp)
        and all(r.passed for r in membership)
        and integrals_ok
    )
    _report("8: 8 pairing identities at bump order 2 + membership steps + ball integrals", ok)


def test_criterion_9_determinism_and_runtime():
    cfg = SuiteConfig(suite="all", seed=7)
    t0 = time.monotonic()
    first = run_suite(cfg).to_json()
    second = run_suite(cfg).to_json()
    elapsed = time.monotonic() - t0
    ok = first == second and "pass" in first and elapsed < 120.0
    _report(f"9: --suite all --seed 7 twice byte-identical, {elapsed:.1f}s for both runs", ok)
