"""Exactness of de Rham and the three derived complexes on P_d, by rank count.

Take A: X -> Y of order r, then B: Y -> Z.  The complex is exact at Y on
polynomials of degree <= d when the kernel of B on P_d(Y) has the dimension of
the image of A from P_{d+r}(X): dim P_{d+r}(X) - dim ker A.  These tests pin
the count for d = 0..3 from `kind_basis` and `kernel_basis` alone: no library
code reads it yet.
"""

import pytest

from tensorcomplex import ball, diagram
from tensorcomplex.fields import FieldKind
from tensorcomplex.koszul import kernel_basis, kind_basis
from tensorcomplex.operators import OPS, ORDER, BasisKindError

from conftest import curl_mutation

_S, _V = FieldKind.SCALAR, FieldKind.VECTOR
_DEGREES = range(4)


def complexes() -> dict[str, tuple[tuple[FieldKind, ...], tuple[str, ...]]]:
    """Each complex: its four node kinds and the names of its three operators."""
    out = {"de Rham": ((_S, _V, _V, _S), ("grad", "curl", "div"))}
    for name, (_, nodes) in diagram._DERIVED_COMPLEXES.items():
        out[name] = (tuple(map(diagram.node_kind, nodes)), tuple(e.op.name for e in diagram.walk(*nodes)))
    return out


def image_dim(op: str, kind: FieldKind, degree: int) -> int:
    """The dimension of the image of P_{degree + r}(kind) under the operator of order r."""
    d = degree + ORDER[op]
    return len(kind_basis(kind, d)) - kernel_basis((op,), kind, d).size


def mismatches(kinds, ops, degree) -> list[int]:
    """The nodes, 1 to 3, where the count fails at this degree: ker B differs from im A at an interior node,
    or the last map is not onto node 3."""
    bad = [i for i in (1, 2)
           if kernel_basis((ops[i],), kinds[i], degree).size != image_dim(ops[i - 1], kinds[i - 1], degree)]
    return bad + [3] * (len(kind_basis(kinds[3], degree)) != image_dim(ops[2], kinds[2], degree))


@pytest.mark.parametrize("name", ["de Rham", *diagram._DERIVED_COMPLEXES])
def test_each_complex_is_exact_on_polynomials_of_degree_up_to_3(name):
    kinds, ops = complexes()[name]
    assert [mismatches(kinds, ops, d) for d in _DEGREES] == [[]] * len(_DEGREES)


@pytest.mark.parametrize("op, space", [("grad", ball.CONSTANTS_SCALAR), ("hess", ball.P1_SPACE),
                                       ("deff", ball.ND_SPACE), ("dev_grad", ball.RT_SPACE)])
def test_the_first_kernels_are_the_moment_spaces(op, space):
    first = next(kinds[0] for kinds, ops in complexes().values() if ops[0] == op)
    assert (first, kernel_basis((op,), first, 3).size) == (space.kind, len(space.basis))
    assert all(OPS[op](b).is_zero for b in space.basis)


def test_the_curl_mutation_breaks_the_count_in_every_complex():
    # A mismatch counts once per (complex, degree, node), a kind broken in the kernel fill once per (complex, degree).
    found = {}
    with curl_mutation():
        for name, (kinds, ops) in complexes().items():
            found[name] = 0
            for d in _DEGREES:
                try:
                    found[name] += len(mismatches(kinds, ops, d))
                except BasisKindError:
                    found[name] += 1
    assert all(found.values()) and sum(found.values()) == 16, found
