import errno
import io
import os
import subprocess
import sys
from contextlib import contextmanager
from pathlib import Path

import hypothesis
import hypothesis.strategies as st
import pytest
import sympy
from fractions import Fraction

from tensorcomplex import koszul, operators
from tensorcomplex.fields import _COMPONENT_COUNT, FieldKind, TypedField
from tensorcomplex.poly import P_ZERO, Poly3

_SRC = Path(__file__).resolve().parents[1] / "src"

hypothesis.settings.register_profile("default", max_examples=25, deadline=None)
hypothesis.settings.load_profile("default")


def zero_field(kind: FieldKind) -> TypedField:
    """The zero field of the given kind."""
    return TypedField(kind, (P_ZERO,) * _COMPONENT_COUNT[kind])


def matrix(rows, kind: FieldKind = FieldKind.MATRIX) -> TypedField:
    """The matrix field with the given three rows of three entries."""
    return TypedField(kind, tuple(p for row in rows for p in row))


def entry(m: TypedField, i: int, j: int) -> Poly3:
    """The 1-based (i, j) entry of a matrix field."""
    return m.components[3 * (i - 1) + (j - 1)]


def field_degree(f: TypedField) -> int:
    """Total degree of a field, the largest of its components'; -1 for the zero field."""
    return max(p.degree() for p in f.components)


def divide_out_bump(phi: TypedField, k: int) -> TypedField:
    """The field psi with phi = psi * (1 - |x|^2)^k, by exact sympy division; asserts a zero remainder."""
    x = sympy.symbols("x1 x2 x3")
    weight = sympy.Poly((1 - x[0] ** 2 - x[1] ** 2 - x[2] ** 2) ** k, *x, domain="QQ")
    quotients = []
    for p in phi.components:
        terms = {m: sympy.Rational(c.numerator, c.denominator) for m, c in p.coefficients().items()}
        quotient, remainder = sympy.div(sympy.Poly.from_dict(terms or {(0, 0, 0): 0}, *x, domain="QQ"), weight)
        assert remainder.is_zero, remainder
        quotients.append(Poly3({m: Fraction(int(c.p), int(c.q)) for m, c in quotient.as_dict().items()}))
    return TypedField(phi.kind, tuple(quotients))


def basis_fields(kernel) -> list[TypedField]:
    """The basis fields of a `koszul.kernel_basis` record, field b as `combine` of the b-th unit weights."""
    return [kernel.combine([int(b == c) for c in range(kernel.size)]) for b in range(kernel.size)]


def _clear_kernel_caches():
    koszul.kernel_basis.cache_clear()
    koszul._symbol.cache_clear()


@pytest.fixture
def fresh_kernel_caches():
    """Empty the caches that hold operator images before and after the test, so
    the kernel fill sees a mutated operator or ORDER entry and keeps nothing of it."""
    _clear_kernel_caches()
    yield
    _clear_kernel_caches()


def cli_env(**variables):
    """This environment with the package's source on PYTHONPATH, which pytest's `pythonpath`
    setting does not pass to a subprocess, and the given variables set."""
    path = os.pathsep.join(filter(None, [str(_SRC), os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path, **variables}


def run_cli(*args, input=None, text=True, closed=(), **variables):
    """`tensorcomplex ARGS` in a fresh interpreter that starts with the file descriptors `closed` closed,
    fed `input` on stdin and with `variables` set in its environment; stdout and stderr are captured."""
    return subprocess.run([sys.executable, "-m", "tensorcomplex.cli", *args], input=input, capture_output=True,
                          text=text, env=cli_env(**variables), preexec_fn=lambda: [os.close(fd) for fd in closed])


class FullStream(io.StringIO):
    """A stream on a full disk: every write raises ENOSPC."""

    def write(self, text):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


def curl_without_one_term(c1, c2, c3):
    """operators._vector_curl with the -d3 c2 term of its first entry dropped."""
    return [
        Poly3.partial_sum(((1, 2, c3),)),
        Poly3.partial_sum(((1, 3, c1), (-1, 1, c3))),
        Poly3.partial_sum(((1, 1, c2), (-1, 2, c1))),
    ]


@contextmanager
def curl_mutation():
    """The shared operator mutation: `operators._vector_curl` is `curl_without_one_term` inside the block.
    The kernel caches are keyed by operator name, so they are emptied on entry, for the kernels to be filled
    with the broken curl, and on exit, for them to be filled with the true one again."""
    _clear_kernel_caches()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(operators, "_vector_curl", curl_without_one_term)
        try:
            yield
        finally:
            _clear_kernel_caches()


@pytest.fixture
def broken_curl():
    """The whole test runs under `curl_mutation`."""
    with curl_mutation():
        yield


@st.composite
def fractions(draw, max_num=30, max_den=12):
    n = draw(st.integers(-max_num, max_num))
    d = draw(st.integers(1, max_den))
    return Fraction(n, d)


@st.composite
def monomials(draw, max_degree=3):
    a = draw(st.integers(0, max_degree))
    b = draw(st.integers(0, max_degree - a))
    c = draw(st.integers(0, max_degree - a - b))
    return (a, b, c)


@st.composite
def polys(draw, max_degree=3, max_terms=5):
    terms = draw(
        st.dictionaries(monomials(max_degree), fractions(), min_size=0, max_size=max_terms)
    )
    return Poly3(terms)


@st.composite
def vector_fields(draw, max_degree=3):
    return TypedField.vector([draw(polys(max_degree)) for _ in range(3)])


@st.composite
def matrix_fields(draw, max_degree=3):
    return matrix([[draw(polys(max_degree)) for _ in range(3)] for _ in range(3)])


@st.composite
def scalar_fields(draw, max_degree=3):
    return TypedField.scalar(draw(polys(max_degree)))
