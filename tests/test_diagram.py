import importlib.util
import json
from fractions import Fraction
from pathlib import Path

import pytest

import tensorcomplex.ball as ball
import tensorcomplex.diagram as diagram
import tensorcomplex.fields as fields
import tensorcomplex.operators as operators
from tensorcomplex.diagram import (
    DIAGONALS,
    EDGES,
    EdgeOp,
    apply_path,
    check_cell,
    check_derived_complex,
    check_two_complex,
    edge,
    enumerate_paths,
    node_kind,
    path_label,
    to_dict,
    to_markdown,
    walk,
)
from tensorcomplex.fields import E1, FieldKind, KindError, TypedField, field_from_text
from tensorcomplex.operators import (
    OPS,
    CheckResult,
    ClosedForm,
    OperatorId,
    components_equal,
    curl,
    deff,
    div,
    field_draw,
    hess,
    inc,
    run_check,
)
from tensorcomplex.cli import main
from tensorcomplex.suites import SUITE_NAMES, SuiteConfig, run_suite, suite_rows
from tensorcomplex.poly import P_ZERO, Poly3, X1, X2, X3

from conftest import divide_out_bump, field_degree, zero_field

_ROOT = Path(__file__).resolve().parents[1]


def test_node_kinds_follow_rvst_pattern():
    R, V = FieldKind.SCALAR, FieldKind.VECTOR
    S, T = FieldKind.SYMMETRIC, FieldKind.TRACEFREE
    expected = [
        [R, V, V, R],
        [V, S, T, V],
        [V, T, S, V],
        [R, V, V, R],
    ]
    for r in range(1, 5):
        for c in range(1, 5):
            assert node_kind((r, c)) is expected[r - 1][c - 1]


def test_specific_nodes_and_edges():
    node = next(n for n in to_dict("with-bc")["nodes"] if (n["row"], n["col"]) == (2, 3))
    assert node["label"] == "H°_cd"
    assert node_kind((2, 3)) is FieldKind.TRACEFREE
    e = edge((3, 1), (3, 2))
    assert e.op.name == "dev_grad" and e.op.scale == Fraction(1, 2)
    e = edge((1, 4), (2, 4))
    assert e.op.name == "grad" and e.op.scale == Fraction(1, 3)
    e = edge((1, 3), (2, 3))
    assert e.op.name == "t_dev_grad" and e.op.scale == Fraction(1, 2)
    e = edge((2, 2), (3, 2))
    assert e.op.name == "t_curl" and e.op.scale == 1
    e = edge((4, 2), (4, 3))
    assert e.op.name == "curl" and e.op.scale == Fraction(1, 2)


def test_structure_counts():
    assert len(to_dict("with-bc")["nodes"]) == 16
    assert len(EDGES) == 24
    assert sum(1 for e in EDGES if e.orientation == "right") == 12
    assert sum(1 for e in EDGES if e.orientation == "down") == 12
    assert len(DIAGONALS) == 9
    # edge() finds all 33 steps, diagonals included
    assert [edge(e.src, e.dst) for e in EDGES + DIAGONALS] == list(EDGES + DIAGONALS)


def test_path_counts():
    assert len(enumerate_paths(1)) == 24
    assert len(enumerate_paths(3)) == 44
    assert len(enumerate_paths(6)) == 20
    assert len(enumerate_paths(7)) == 0


def test_path_enumeration_is_deterministic():
    a = [path_label(p) for p in enumerate_paths(3)]
    b = [path_label(p) for p in enumerate_paths(3)]
    assert a == b
    starts = [p[0].src for p in enumerate_paths(3)]
    assert starts == sorted(starts)  # row-major over start nodes
    # within one start node, right moves enumerate before down moves
    first_two = [p for p in enumerate_paths(3) if p[0].src == (1, 1)][:2]
    assert first_two[0][0].orientation == "right"


def test_path_requires_at_least_one_edge():
    with pytest.raises(ValueError):
        enumerate_paths(0)


def test_apply_single_edge():
    p = walk((1, 1), (1, 2))
    out = apply_path(p, TypedField.scalar(X1))
    assert components_equal(out, E1)


def test_apply_path_kind_mismatch():
    p = walk((1, 1), (1, 2))
    with pytest.raises(TypeError):
        apply_path(p, E1)  # vector where the start node holds scalars


def test_diagonal_hess_equals_deff_grad_path():
    w = TypedField.scalar(X1 * X2 * X3 + X1 * X1)
    p = walk((1, 1), (1, 2), (2, 2))
    assert components_equal(apply_path(p, w), hess(w))
    assert components_equal(apply_path(walk((1, 1), (2, 2)), w), hess(w))  # the diagonal step itself


def test_cell_1_2_on_spec_sample():
    # right-then-down vs down-then-right on u = (0, 0, x1 x2)
    u = TypedField.vector([P_ZERO, P_ZERO, X1 * X2])
    right_down = edge((1, 3), (2, 3)).op.apply(edge((1, 2), (1, 3)).op.apply(u))
    down_right = edge((2, 2), (2, 3)).op.apply(edge((1, 2), (2, 2)).op.apply(u))
    assert components_equal(right_down, down_right)
    assert not right_down.is_zero


def test_cell_2_2_on_constant():
    gfield = zero_field(FieldKind.SYMMETRIC)
    r = check_cell((2, 2), samples=1, degree=0, seed=0)
    assert r.passed
    assert gfield.is_zero


def test_all_cells_commute():
    results = [check_cell(d.src, samples=4, degree=2, seed=7) for d in DIAGONALS]
    assert len(results) == 9
    assert all(r.passed for r in results)


def test_cell_index_validated():
    with pytest.raises(ValueError):
        check_cell((4, 4), 1, 1, 0)


def test_two_complex_spec_paths():
    # curl deff grad w = 0
    w = TypedField.scalar(X1 * X1 * X1)
    assert curl(deff(TypedField.vector(
        [w.comp(1).partial(1), w.comp(1).partial(2), w.comp(1).partial(3)]
    ))).is_zero


def test_two_complex_all_paths():
    results = check_two_complex(samples=3, degree=2, seed=7)
    assert len(results) == 44
    assert all(r.passed for r in results)


@pytest.mark.parametrize("seed", [0, 1, 42])
def test_two_complex_seed_independent_at_degree_four(seed):
    results = check_two_complex(samples=1, degree=4, seed=seed)
    assert all(r.passed for r in results)


def check_diagonal_factorizations(samples: int, degree: int, seed: int) -> list[CheckResult]:
    """Each diagonal second-order edge equals both adjacent factorizations."""
    results = []
    for d in DIAGONALS:
        r, c = d.src
        top_right = walk((r, c), (r, c + 1), (r + 1, c + 1))
        left_bottom = walk((r, c), (r + 1, c), (r + 1, c + 1))

        def holds(f: TypedField) -> bool:
            diag = d.op.apply(f)
            return components_equal(diag, apply_path(top_right, f)) and components_equal(
                diag, apply_path(left_bottom, f)
            )

        results.append(
            run_check(
                f"diagonal {d.op.label()} at {d.src}",
                "Eq. (1) with 2nd-order edges",
                samples,
                field_draw(node_kind(d.src), degree, seed, "diagonal", r, c),
                holds,
            )
        )
    return results


def _transpose_matrix(f: TypedField) -> TypedField:
    return f.transpose() if f.is_matrix_kind else f


def check_diagram_symmetry(samples: int = 3, degree: int = 2, seed: int = 0) -> list[CheckResult]:
    """Mirror symmetry about the main diagonal.

    The right edge (i,j)->(i,j+1) with operator f mirrors the down edge
    (j,i)->(j+1,i) with operator h, where h(T x) = T(f x) and T transposes
    matrix kinds (identity on scalars and vectors).  Scales must agree.
    """
    results = []
    for e in EDGES:
        if e.orientation != "right":
            continue
        i, j = e.src
        mirror = edge((j, i), (j + 1, i))
        name = f"mirror of {e.src}->{e.dst} ({e.op.label()}) is ({mirror.op.label()})"
        if mirror.op.scale != e.op.scale:
            results.append(CheckResult(name, "Eq. (1) diagonal symmetry", False, "scale mismatch"))
            continue
        results.append(
            run_check(
                name,
                "Eq. (1) diagonal symmetry",
                samples,
                field_draw(node_kind(e.src), degree, seed, "symmetry", i, j),
                lambda f: components_equal(
                    mirror.op.apply(_transpose_matrix(f)), _transpose_matrix(e.op.apply(f))
                ),
            )
        )
    return results


def test_diagonal_factorizations():
    results = check_diagonal_factorizations(samples=3, degree=2, seed=7)
    assert len(results) == 9
    assert all(r.passed for r in results)


def test_diagram_symmetry():
    results = check_diagram_symmetry()
    assert len(results) == 12
    assert all(r.passed for r in results)


def test_elasticity_complex_example():
    u = TypedField.vector([X2 * X2, P_ZERO, X1 * X3])
    assert inc(deff(u)).is_zero


def test_derived_complexes():
    for name in ("hessian", "elasticity", "divdiv"):
        results = check_derived_complex(name, samples=4, degree=2, seed=7)
        assert len(results) == 2
        assert all(r.passed for r in results), name


def test_all_derived_complexes_run_in_published_order():
    cfg = SuiteConfig(seed=7, degree=2, samples=1)
    results = [row.verify(cfg, {}) for row in suite_rows("derived-complexes")]
    expected = [
        r for name in ("hessian", "elasticity", "divdiv") for r in check_derived_complex(name, samples=1, degree=2, seed=7)
    ]
    assert [(r.name, r.passed, r.witness) for r in results] == [(r.name, r.passed, r.witness) for r in expected]


def test_divdiv_first_stage_mechanism():
    # sym curl dev grad u = -1/3 sym curl((div u) id) = 1/3 sym mskw grad(div u),
    # and the sym of a skew field vanishes
    from tensorcomplex.fields import TypedField as TF, mskw
    from tensorcomplex.operators import derived_rng, div, grad, random_field

    u = random_field(FieldKind.VECTOR, 3, derived_rng(3, "ddmech"))
    divu = div(u)
    lhs = OPS["sym_curl"](OPS["dev_grad"](u))
    middle = OPS["sym_curl"](TF.identity_scaled(divu.comp(1))).scale(Fraction(-1, 3))
    assert components_equal(lhs, middle)
    assert components_equal(middle, mskw(grad(divu)).sym().scale(Fraction(1, 3)))
    assert lhs.is_zero


def test_dump_schema_and_flavors():
    d = to_dict("with-bc")
    assert d["schema"] == 1
    assert len(d["nodes"]) == 16
    assert len(d["edges"]) == 33  # 24 first-order + 9 diagonal
    assert sum(1 for e in d["edges"] if e["orientation"] != "diagonal") == 24
    json.dumps(d)  # serializable

    dn = to_dict("no-bc")
    assert [e["op"] for e in dn["edges"]] == [e["op"] for e in d["edges"]]
    assert dn["nodes"][0]["label"] == "H1/P1"
    assert d["nodes"][0]["label"] == "H°(grad)"


def test_unknown_flavor_rejected():
    with pytest.raises(ValueError):
        to_dict("sideways")
    with pytest.raises(ValueError):
        to_markdown("sideways")


def test_quotient_label_facts():
    # the facts that let the no-bc flavor quotient its corner spaces:
    # first-order images of the quotiented test spaces are constants or zero
    from tensorcomplex.ball import ND_SPACE, P1_SPACE, RT_SPACE
    from tensorcomplex.operators import deff, div, grad

    for p in P1_SPACE.basis:  # grad P1 = constant vectors
        assert field_degree(grad(p)) <= 0
    for r in ND_SPACE.basis:  # curl ND = constant vectors, deff ND = 0
        assert field_degree(curl(r)) <= 0
        assert deff(r).is_zero
    for r in RT_SPACE.basis:  # div RT = constants, dev grad RT = 0
        assert field_degree(div(r)) <= 0
        assert OPS["dev_grad"](r).is_zero


# -- mutation tests: a broken edge or operator must make its suite fail ---------


def _failing_cases(suite, degree):
    report = run_suite(SuiteConfig(suite=suite, seed=7, degree=degree, samples=2))
    failing = [c for c in report.cases if c.status == "fail"]
    assert failing and all(c.witness is not None for c in failing), suite
    return failing


def test_dropping_the_half_on_dev_grad_fails_cells(monkeypatch):
    step = ((3, 1), (3, 2))
    monkeypatch.setitem(diagram._STEPS, step, EdgeOp(*step, OperatorId("dev_grad"), "right"))
    failing = _failing_cases("cells", 2)
    # the edge (3,1)->(3,2) is the bottom of cell (2,1) and the top of cell (3,1)
    assert {c.name for c in failing} == {"cell (2,1)", "cell (3,1)"}
    for case in failing:
        assert not _witness_commutes(case), case.name


def _witness_commutes(case):
    """Whether the failing cell case's witness, read back from its text, makes the cell commute."""
    r, c = (int(t) for t in case.name.strip("cell ()").split(","))
    f = field_from_text(case.witness)
    assert f.kind is node_kind((r, c))
    right_down = edge((r, c + 1), (r + 1, c + 1)).op.apply(edge((r, c), (r, c + 1)).op.apply(f))
    down_right = edge((r + 1, c), (r + 1, c + 1)).op.apply(edge((r, c), (r + 1, c)).op.apply(f))
    return components_equal(right_down, down_right)


def test_div_dropping_a_partial_fails_two_complex(monkeypatch):
    def div_without_x3(f):
        if f.is_matrix_kind:
            return div(f)
        return TypedField.scalar(f.comp(1).partial(1) + f.comp(2).partial(2))

    monkeypatch.setitem(operators.OPS, "div", div_without_x3)
    failing = _failing_cases("two-complex", 3)
    rows = {row.case_name: row for row in suite_rows("two-complex")}
    for case in failing:
        (path,) = rows[case.name].sides
        assert not apply_path(path, field_from_text(case.witness)).is_zero, case.name


def test_dropping_sym_from_sym_curl_fails_derived_complexes(monkeypatch):
    monkeypatch.setitem(operators.OPS, "sym_curl", curl)
    failing = _failing_cases("derived-complexes", 2)
    # div div of any curl vanishes, but the walk re-tags curl tau to the
    # symmetric node (3,3), so the second stage fails on its kind
    assert [c.name for c in failing] == ["divdiv: sym_curl ∘ 1/2 dev_grad = 0", "divdiv: div_div ∘ sym_curl = 0"]
    u = field_from_text(failing[0].witness)
    assert u.kind is FieldKind.VECTOR
    assert not OperatorId("sym_curl").apply(OperatorId("dev_grad", Fraction(1, 2)).apply(u)).is_zero
    tau = field_from_text(failing[1].witness)
    assert tau.kind is FieldKind.TRACEFREE
    assert OPS["div_div"](curl(tau)).is_zero
    with pytest.raises(KindError):
        apply_path(walk((3, 2), (3, 3), (4, 4)), tau)


def _partial_sum_without_exponent_factor(pieces):
    """Poly3.partial_sum with d/dx_i x_i^k taken as x_i^(k-1): the exponent factor k is dropped."""
    total = {}
    for sign, i, p in pieces:
        for m, c in p.coefficients().items():
            if m[i - 1]:
                lowered = tuple(e - (k == i - 1) for k, e in enumerate(m))
                total[lowered] = total.get(lowered, 0) + sign * c
    return Poly3(total)


def _witness_holds(suite, case):
    """Whether the failing case's witness, read back from its text, passes the case's check:
    a cell is re-checked by hand, every other case by its row, looked up by name.  A pairing
    witness is the field and the test field phi, which the row draws as psi with phi = psi
    bump(2); a decomposition witness may end in its part kinds."""
    if suite == "cells":
        return _witness_commutes(case)
    row = {row.case_name: row for row in suite_rows(suite)}[case.name]
    if isinstance(row, ball.PairingSpec):
        f, phi = (field_from_text(text) for text in case.witness.split("\ntest field:\n"))
        assert (f.kind, phi.kind) == (row.field_kind, row.test_kind)
        return row.holds((f, divide_out_bump(phi, 2)))
    f = field_from_text(case.witness.partition("\npart kinds ")[0])
    assert f.kind is row.input_kind
    return row.holds(f)


def test_a_bump_weighted_moment_table_without_its_double_factorial_fails_every_pairing_row(monkeypatch):
    # The weight-2 moments lose their factor (2k)!! = 8, so the right side of each
    # pairing identity is an eighth of the truth; each witness, replayed, fails again.
    true_moments = ball._moments

    def moments(half, k=0):
        scale, table = true_moments(half, k)
        return (scale, {code: m // 8 for code, m in table.items()}) if k == 2 else (scale, table)

    monkeypatch.setattr(ball, "_moments", moments)
    failing = _failing_cases("pairings", 2)
    assert [c.name for c in failing] == list(ball._PAIRINGS)
    for case in failing:
        assert not _witness_holds("pairings", case), case.name


def test_the_116_rows_are_every_suite_in_report_order():
    # Each row names its own case: every suite's report lists its rows' names
    # and anchors in table order, and the closed-form rows, checked once, are
    # the cases the benchmark counts as one check each.
    spec = importlib.util.spec_from_file_location("child", _ROOT / "perfbench" / "child.py")
    child = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(child)
    rows = {suite: suite_rows(suite) for suite in SUITE_NAMES}
    every_row = [row for suite in SUITE_NAMES for row in rows[suite]]
    assert len(every_row) == 116 and len({row.case_name for row in every_row}) == 116
    assert {row.case_name for row in every_row if isinstance(row, ClosedForm)} == child.SINGLE_SHOT_CASES
    for suite in SUITE_NAMES:
        report = run_suite(SuiteConfig(suite=suite, seed=7, degree=1, samples=1))
        assert [(c.name, c.anchor) for c in report.cases] == [(row.case_name, row.anchor) for row in rows[suite]]


def test_partial_sum_without_exponent_factor_fails_identities_cells_and_two_complex(monkeypatch):
    # curl and div go through the broken kernel while grad keeps Poly3.partial,
    # so every suite that mixes them must fail, and each witness must fail again
    monkeypatch.setattr(Poly3, "partial_sum", staticmethod(_partial_sum_without_exponent_factor))
    for suite, degree in (("identities", 2), ("cells", 2), ("two-complex", 3)):
        for case in _failing_cases(suite, degree):
            assert not _witness_holds(suite, case), case.name


def test_swapped_transpose_table_fails_a_suite(monkeypatch):
    # Entries (0, 1) and (1, 0) of the transpose stay in place: a symmetric or
    # skew field keeps its kind, but a general matrix field is transposed
    # wrongly, so some suite must fail, and each witness must fail again.
    table = list(fields.TRANSPOSE)
    table[1], table[3] = table[3], table[1]
    monkeypatch.setattr(fields, "TRANSPOSE", tuple(table))
    reports = {
        suite: run_suite(SuiteConfig(suite=suite, seed=7, degree=degree, samples=2))
        for suite, degree in (("identities", 2), ("cells", 2), ("two-complex", 3))
    }
    failing = {suite: [c for c in r.cases if c.status != "pass"] for suite, r in reports.items()}
    assert any(failing.values())
    for suite, cases in failing.items():
        for case in cases:
            assert case.status == "fail" and not _witness_holds(suite, case), case.name


def test_curl_without_one_term_fails_four_suites_with_rechecked_witnesses(tmp_path, broken_curl):
    # The broken curl of a symmetric field is no longer trace-free, so the
    # operator itself raises KindError inside the checks: each case must then
    # fail with its sample as witness, never abort the run.
    for suite in ("identities", "cells", "two-complex", "derived-complexes"):
        for case in _failing_cases(suite, 2):
            try:
                assert not _witness_holds(suite, case), case.name
            except KindError:
                pass  # the check raises on its witness again: it still does not pass
    out = tmp_path / "cells.json"
    assert main(["run", "--suite", "cells", "--seed", "7", "--degree", "2", "--samples", "2", "--out", str(out)]) == 1
    assert json.loads(out.read_text())["summary"]["fail"] > 0


@pytest.mark.parametrize("suite, failing", [("right-inverses", 18), ("decompositions", 6), ("pairings", 4)])
def test_curl_without_one_term_fails_the_koszul_and_ball_suites_with_rechecked_witnesses(broken_curl, suite, failing):
    # The kernels are filled with the broken curl too.  Each failing case's
    # witness, read back, fails its row's check again, where a KindError
    # raised on the witness counts as not passing.
    cases = _failing_cases(suite, 2)
    assert len(cases) == failing
    for case in cases:
        try:
            assert not _witness_holds(suite, case), case.name
        except KindError:
            pass
