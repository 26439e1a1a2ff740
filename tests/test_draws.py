"""The bulk draws against the draw-by-draw code they replaced.

`draw_ints` must return the very numbers of `rng.randint(-9, 9)` and leave the
generator in the same state; `random_field`, `kernel_basis` and
`sample_kernel` must build fields equal to the build-then-project and
scale-and-sum constructions kept here as references, the kernels solved by a
Fraction elimination kept here too.
"""

import random
from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

import tensorcomplex.koszul as koszul
from tensorcomplex.fields import FieldKind, TypedField
from tensorcomplex.koszul import RIGHT_INVERSES, kernel_basis, kind_basis, sample_kernel
from tensorcomplex.operators import OPS, derived_rng, draw_ints, random_field
from tensorcomplex.poly import P_ZERO, Poly3, monomials_up_to

from conftest import basis_fields, matrix

KERNEL_KEYS = list(dict.fromkeys((spec.kernel_ops, spec.input_kind) for spec in RIGHT_INVERSES.values() if spec.kernel_ops))


def reference_draws(rng: random.Random, n: int) -> list[int]:
    return [rng.randint(-9, 9) for _ in range(n)]


def reference_random_field(kind: FieldKind, degree: int, rng: random.Random) -> TypedField:
    """One randint per coefficient, a matrix field projected by sym / dev / skw."""

    def poly():
        return Poly3({m: rng.randint(-9, 9) for m in monomials_up_to(degree)})

    if kind is FieldKind.SCALAR:
        return TypedField.scalar(poly())
    if kind is FieldKind.VECTOR:
        return TypedField.vector([poly() for _ in range(3)])
    m = matrix([[poly() for _ in range(3)] for _ in range(3)])
    if kind is FieldKind.SYMMETRIC:
        return m.sym()
    if kind is FieldKind.TRACEFREE:
        return m.dev()
    if kind is FieldKind.SKEW:
        return m.skw()
    return m


def reference_nullspace(cols: int, rows) -> list[dict[int, Fraction]]:
    """The reduced-echelon nullspace by Fraction elimination: each row reduced
    against the pivot rows so far, which are kept scaled to pivot 1 and fully
    reduced; one vector per free column, ascending."""
    pivots: dict[int, dict[int, Fraction]] = {}

    def subtract(row, f, pivot_row):
        for c, x in pivot_row.items():
            y = row.get(c, 0) - f * x
            if y:
                row[c] = y
            else:
                del row[c]

    for row in rows:
        row = {c: Fraction(x) for c, x in row.items() if x}
        for p in [c for c in row if c in pivots]:
            subtract(row, row[p], pivots[p])
        if not row:
            continue
        p = min(row)
        row = {c: x / row[p] for c, x in row.items()}
        for other in pivots.values():
            if p in other:
                subtract(other, other[p], row)
        pivots[p] = row
    basis = {fc: {fc: Fraction(1)} for fc in range(cols) if fc not in pivots}
    for p, row in pivots.items():
        for c, x in row.items():
            if c != p:
                basis[c][p] = -x
    return [dict(sorted(v.items())) for v in basis.values()]


def reference_kernel_basis(op_names, kind: FieldKind, degree: int) -> list[TypedField]:
    """Each nullspace vector as a sum of scaled basis fields, the matrix rows
    read off every basis field's image, taken directly through OPS, and solved
    by the Fraction elimination above, not by the library's."""
    basis = kind_basis(kind, degree)
    rows = {}
    for j, b in enumerate(basis):
        for name in op_names:
            for ci, p in enumerate(OPS[name](b).components):
                for m, c in p.coefficients().items():
                    rows.setdefault((name, ci, m), {})[j] = c
    fields = []
    for v in reference_nullspace(len(basis), rows.values()):
        terms = [basis[j].scale(c) for j, c in v.items()]
        fields.append(sum(terms[1:], terms[0]))
    return fields


def reference_sample_kernel(op_names, kind: FieldKind, degree: int, seed: int, index: int = 0,
                            fields=None) -> TypedField:
    """One randint per basis field, each weighted field added in turn, redrawn while the sum is zero.
    `fields` is the reference kernel basis, built here when not given."""
    fields = reference_kernel_basis(op_names, kind, degree) if fields is None else fields
    rng = derived_rng(seed, "kernel", *op_names, kind.value, degree, index)
    comps = [P_ZERO] * len(fields[0].components)
    while all(p.is_zero for p in comps):
        comps = [P_ZERO] * len(comps)
        for f in fields:
            w = rng.randint(-9, 9)
            if w:
                comps = [p if q.is_zero else p + q.scale(w) for p, q in zip(comps, f.components)]
    return TypedField(kind, tuple(comps))


@settings(max_examples=200)
@given(st.text(max_size=20), st.integers(0, 400))
def test_draw_ints_equals_randint_and_leaves_the_same_state(seed, n):
    rng, ref = random.Random(seed), random.Random(seed)
    assert draw_ints(rng, n) == reference_draws(ref, n)
    assert rng.getstate() == ref.getstate()


@pytest.mark.parametrize("degree", range(5))
@pytest.mark.parametrize("kind", list(FieldKind))
def test_random_field_equals_build_then_project(kind, degree):
    for seed in range(5):
        rng, ref = derived_rng(seed, "draws", kind.value), derived_rng(seed, "draws", kind.value)
        for _ in range(2):  # two draws in turn from one stream
            assert random_field(kind, degree, rng) == reference_random_field(kind, degree, ref)
        assert rng.getstate() == ref.getstate()


@pytest.mark.parametrize("ops, kind", KERNEL_KEYS)
def test_kernel_basis_and_sample_kernel_equal_scale_and_sum(ops, kind):
    # kernel_basis reads the operators off their symbols, and sample_kernel sums
    # the nonzero entries of its sparse table
    for degree in range(5):
        fields = reference_kernel_basis(ops, kind, degree)
        assert basis_fields(kernel_basis(ops, kind, degree)) == fields, degree
        for index in range(10):
            if not fields:
                with pytest.raises(ValueError, match="kernel is trivial"):
                    sample_kernel(ops, kind, degree, 7, index)
                continue
            expected = reference_sample_kernel(ops, kind, degree, 7, index, fields)
            assert sample_kernel(ops, kind, degree, 7, index) == expected, (degree, index)


def test_sample_kernel_redraws_when_every_weight_is_zero(monkeypatch):
    ops, kind = ("curl",), FieldKind.VECTOR
    fields = basis_fields(kernel_basis(ops, kind, 2))
    tries = []

    def first_try_all_zero(rng, n):
        values = draw_ints(rng, n)
        tries.append((rng, n))
        return [0] * n if len(tries) == 1 else values

    monkeypatch.setattr(koszul, "draw_ints", first_try_all_zero)
    f = sample_kernel(ops, kind, 2, 7)
    assert [n for _, n in tries] == [len(fields), len(fields)]
    ref = derived_rng(7, "kernel", *ops, kind.value, 2, 0)
    reference_draws(ref, len(fields))
    weights = reference_draws(ref, len(fields))
    assert tries[0][0].getstate() == ref.getstate()  # 2 * len(fields) values consumed
    assert not f.is_zero
    expected = sum((b.scale(w) for w, b in zip(weights, fields)), TypedField.vector([P_ZERO] * 3))
    assert f == expected
