"""First- and second-order differential operators on typed polynomial fields.

Conventions, fixed once here:
  * grad u of a vector field is the Jacobian, (i, j) entry d(u_i)/d(x_j);
  * div and curl act row-wise on matrix fields;
  * an OPS name is its steps joined by "_", applied right to left, so
    OPS["t_curl"](f) = transpose(curl(f)) and OPS["div_t"](f) = div(transpose(f));
    `_STEPS` is that rule, and each name's order is the sum of its steps' orders;
  * the steps t, sym, skw, dev, S and tr act pointwise (order 0), as
    TypedField.transpose, .sym, .skw, .dev, .s_op and .trace; so do mskw and
    vskw (from fields) and id, which maps a scalar field w to w id;
  * curl and div build each entry in one pass, as one `Poly3.partial_sum`
    of its signed first derivatives.

Every case is a row whose `verify(cfg, memo)` hands its own `holds` to `run_check`.
`Identity` is the row of the 70 constant-coefficient cases (IDENTITIES here; the
cells, 2-complex paths and derived pairs of `diagram`) and of `koszul.HOMOTOPY`;
a side is an OPS word, a diagram walk or a sum of koszul words, compared in
canonical form.  `ClosedForm` is the row of a closed form checked once.
"""

from __future__ import annotations

import random
from array import array
from fractions import Fraction
from operator import add, attrgetter, sub
from time import perf_counter
from typing import Any, Callable, NamedTuple

from .fields import (
    _COMPONENT_COUNT,
    DIAGONAL,
    OFF_DIAGONAL,
    ROWS,
    FieldKind,
    KindError,
    TypedField,
    _of_kind,
    field_to_text,
    mskw,
    vskw,
)
from .poly import Poly3, monomials_up_to


# -- first-order operators ----------------------------------------------


def grad(f: TypedField) -> TypedField:
    if f.kind is FieldKind.SCALAR:
        p = f.comp(1)
        return TypedField.vector([p.partial(1), p.partial(2), p.partial(3)])
    if f.kind is FieldKind.VECTOR:  # row i is grad u_i
        return TypedField(FieldKind.MATRIX, tuple(p.partial(j) for p in f.components for j in (1, 2, 3)))
    raise KindError("grad needs a scalar or vector field")


def _vector_curl(c1: Poly3, c2: Poly3, c3: Poly3) -> list[Poly3]:
    return [
        Poly3.partial_sum(((1, 2, c3), (-1, 3, c2))),
        Poly3.partial_sum(((1, 3, c1), (-1, 1, c3))),
        Poly3.partial_sum(((1, 1, c2), (-1, 2, c1))),
    ]


def curl(f: TypedField) -> TypedField:
    if f.kind is FieldKind.VECTOR:
        return TypedField.vector(_vector_curl(f.comp(1), f.comp(2), f.comp(3)))
    if f.is_matrix_kind:
        # tr(curl tau) = 2 div vskw tau, so curl of a symmetric field is trace-free.
        kind = FieldKind.TRACEFREE if f.kind is FieldKind.SYMMETRIC else FieldKind.MATRIX
        return TypedField(kind, tuple(p for r in ROWS for p in _vector_curl(*f.components[r])))
    raise KindError("curl needs a vector or matrix field")


def _vector_div(c: tuple[Poly3, ...]) -> Poly3:
    return Poly3.partial_sum(((1, 1, c[0]), (1, 2, c[1]), (1, 3, c[2])))


def div(f: TypedField) -> TypedField:
    if f.kind is FieldKind.VECTOR:
        return TypedField.scalar(_vector_div(f.components))
    if f.is_matrix_kind:
        return TypedField.vector([_vector_div(f.components[r]) for r in ROWS])
    raise KindError("div needs a vector or matrix field")


def deff(u: TypedField) -> TypedField:
    """Deformation operator sym grad u."""
    return grad(u).sym()


# -- second-order operators -----------------------------------------------


def hess(w: TypedField) -> TypedField:
    if w.kind is not FieldKind.SCALAR:
        raise KindError("hess needs a scalar field")
    return deff(grad(w))


def inc(g: TypedField) -> TypedField:
    """Incompatibility operator curl transpose curl, on symmetric fields."""
    if g.kind is not FieldKind.SYMMETRIC:
        raise KindError("inc needs a symmetric matrix field")
    return curl(curl(g).transpose()).retag(FieldKind.SYMMETRIC)


# -- operator registry ------------------------------------------------------


class OperatorId(NamedTuple):
    """An OPS word with its scale factor: a diagram edge, the op of a right inverse, a reassembly or an identity side."""

    name: str
    scale: Fraction = Fraction(1)

    def apply(self, f: TypedField) -> TypedField:
        out = OPS[self.name](f)
        return out if self.scale == 1 else out.scale(self.scale)

    def label(self) -> str:
        return self.name if self.scale == 1 else f"{self.scale} {self.name}"


def _times_id(w: TypedField) -> TypedField:
    if w.kind is not FieldKind.SCALAR:
        raise KindError("id needs a scalar field")
    return TypedField.identity_scaled(w.comp(1))


# The steps an OPS name is spelled with, each with its function and its order.
_STEPS: dict[str, tuple[Callable[[TypedField], TypedField], int]] = {
    "grad": (grad, 1),
    "curl": (curl, 1),
    "div": (div, 1),
    "deff": (deff, 1),
    "hess": (hess, 2),
    "inc": (inc, 2),
    "t": (TypedField.transpose, 0),
    "sym": (TypedField.sym, 0),
    "skw": (TypedField.skw, 0),
    "dev": (TypedField.dev, 0),
    "S": (TypedField.s_op, 0),
    "tr": (TypedField.trace, 0),
    "mskw": (mskw, 0),
    "vskw": (vskw, 0),
    "id": (_times_id, 0),
}


def _word(name: str) -> Callable[[TypedField], TypedField]:
    """The operator a name spells: its steps, applied right to left; a one-step name is the step itself."""
    steps = [_STEPS[step][0] for step in reversed(name.split("_"))]
    if len(steps) == 1:
        return steps[0]

    def op(f: TypedField) -> TypedField:
        for step in steps:
            f = step(f)
        return f

    return op


# -- case rows and the identity table ------------------------------------------


class Identity(NamedTuple):
    """One case: on a field of `input_kind` every side (an OperatorId, `diagram.Walk` or `koszul.WordSum`) gives
    the same field, or a lone side gives zero.  Samples come from the RNG stream `stream`, or ("identity", name)."""

    name: str
    anchor: str
    input_kind: FieldKind
    sides: tuple[Any, ...]
    stream: tuple[object, ...] = ()

    case_name = property(attrgetter("name"))

    def holds(self, f: TypedField) -> bool:
        first, *rest = [side.apply(f) for side in self.sides]
        return all(components_equal(first, other) for other in rest) if rest else first.is_zero

    def verify(self, cfg: SuiteConfig, memo: dict) -> CheckResult:
        draw = field_draw(self.input_kind, cfg.degree, cfg.seed, *(self.stream or ("identity", self.name)))
        return run_check(self.case_name, self.anchor, cfg.samples, draw, self.holds)


class ClosedForm(NamedTuple):
    """One case that checks one closed form, once: `value`, a module-level function, computes it and `holds`
    accepts it; a rejected value is reported as witness(value)."""

    name: str
    anchor: str
    value: Callable[[], Any]
    holds: Callable[[Any], bool]
    witness: Callable[[Any], str] = str

    case_name = property(attrgetter("name"))

    def draw(self, s: int) -> Any:
        return self.value()

    def verify(self, cfg: SuiteConfig, memo: dict) -> CheckResult:
        return run_check(self.case_name, self.anchor, 1, self.draw, self.holds, self.witness)


_HALF = Fraction(1, 2)
_W, _V, _M = FieldKind.SCALAR, FieldKind.VECTOR, FieldKind.MATRIX

IDENTITIES: dict[str, Identity] = {
    ident.name: ident
    for ident in [
        Identity("div-mskw", "Sec. 2 identity (a)", _V, (OperatorId("div_mskw"), OperatorId("curl", Fraction(-1)))),
        Identity("mskw-grad", "Sec. 2 identity (b)", _W, (OperatorId("mskw_grad"), OperatorId("curl_id", Fraction(-1)))),
        Identity("mskw-curl", "Sec. 2 identity (c)", _V, (OperatorId("mskw_curl"), OperatorId("skw_grad", Fraction(2)))),
        Identity("skw-curl", "Sec. 2 identity (d)", _M, (OperatorId("skw_curl", Fraction(2)), OperatorId("mskw_div_S"))),
        Identity("S-grad", "Sec. 2 identity (e)", _V, (OperatorId("S_grad"), OperatorId("curl_mskw", Fraction(-1)))),
        # The sign is forced by identity (e): curl mskw v = -S grad v has
        # trace -div v + 3 div v = +2 div v.  On symmetric fields (the only
        # place downstream chains use this) both sides vanish either way.
        Identity("tr-curl", "Sec. 2 identity (f)", _M, (OperatorId("tr_curl"), OperatorId("div_vskw", Fraction(2)))),
        Identity("eq2", "Lemma 2.1 Eq. (2)", _M, (OperatorId("div_t_curl"), OperatorId("curl_div_t"))),
        Identity("eq3", "Lemma 2.1 Eq. (3)", _V,
                 (OperatorId("curl_t_grad"), OperatorId("t_grad_curl"), OperatorId("t_dev_grad_curl"))),
        Identity("eq4", "Lemma 2.1 Eq. (4)", _M, (OperatorId("div_sym_curl_t"), OperatorId("curl_div", _HALF))),
        Identity("eq5", "Lemma 2.1 Eq. (5)", _V,
                 (OperatorId("curl_deff"), OperatorId("t_grad_curl", _HALF), OperatorId("t_dev_grad_curl", _HALF))),
        Identity("eq6", "Lemma 2.1 Eq. (6)", _V,
                 (OperatorId("div_t_dev_grad", _HALF), OperatorId("grad_div", Fraction(1, 3)))),
    ]
}

OPS: dict[str, Callable[[TypedField], TypedField]] = {
    name: _word(name)
    for name in (
        "grad", "curl", "div", "deff", "dev_grad", "t_dev_grad", "sym_curl", "sym_curl_t", "t_curl", "div_t",
        "hess", "inc", "grad_div", "curl_div", "div_div", "curl_deff", "t_curl_deff", "curl_div_t", "t", "sym", "dev", "S",
        "tr", "vskw",
        *(side.name for ident in IDENTITIES.values() for side in ident.sides),
    )
}

# Each OPS entry is a constant-coefficient operator of one order: the sum of its steps' orders.
ORDER = {name: sum(_STEPS[step][1] for step in name.split("_")) for name in OPS}


# -- seeded random fields ----------------------------------------------------


def derived_rng(seed: int, *stream: object) -> random.Random:
    """Deterministic RNG for one sample: the same (seed, *stream) always gives the same draws."""
    tag = ":".join(str(s) for s in stream)
    return random.Random(f"{seed}:{tag}")


# Each top byte read as a signed byte is its randint(-9, 9) value; bytes from 152 = 19 << 3 up are rejected.
_DRAW_VALUE = bytes(((b >> 3) - 9) & 0xFF for b in range(256))
_DRAW_REJECT = bytes(range(152, 256))


def draw_ints(rng: random.Random, n: int) -> list[int]:
    """The values of n calls to rng.randint(-9, 9), leaving rng in the same state.

    Each randint(-9, 9) try takes one 32-bit word, keeps its top 5 bits and
    rejects values of 19 or more.  getrandbits(32 k) packs the next k words
    little-endian, so every fourth byte is the top byte of one word, in order:
    the word is accepted when that byte is below 152, with value
    (byte >> 3) - 9.  Each round takes exactly as many words as values are
    still missing, so no word past the n-th accepted one is consumed.
    """
    out: list[int] = []
    while len(out) < n:
        k = n - len(out)
        top = rng.getrandbits(32 * k).to_bytes(4 * k, "little")[3::4]
        out += array("b", top.translate(_DRAW_VALUE, _DRAW_REJECT))
    return out


def random_field(kind: FieldKind, degree: int, rng: random.Random) -> TypedField:
    """Integer coefficients in [-9, 9] over all monomials of degree <= degree,
    each component one row of the draws; a symmetric, trace-free or skew
    field is the projection of such a matrix field a, with each off-diagonal
    pair (a_ij +- a_ji) / 2 built once."""
    size = len(monomials_up_to(degree))
    count = _COMPONENT_COUNT[kind]
    values = draw_ints(rng, count * size)
    a = [values[c * size:(c + 1) * size] for c in range(count)]
    if kind is FieldKind.SYMMETRIC:
        upper = (Poly3.from_row(degree, map(add, a[k], a[t]), 2) for k, t in OFF_DIAGONAL)
        return TypedField.symmetric((Poly3.from_row(degree, a[k]) for k in DIAGONAL), upper)
    if kind is FieldKind.SKEW:
        return TypedField.skew(Poly3.from_row(degree, map(sub, a[k], a[t]), 2) for k, t in OFF_DIAGONAL)
    if kind is FieldKind.TRACEFREE:  # a_ij off the diagonal, (3 a_ii - tr) / 3 on it
        tr = [x + y + z for x, y, z in zip(*(a[k] for k in DIAGONAL))]
        rows = [([3 * x - t for x, t in zip(row, tr)], 3) if k in DIAGONAL else (row, 1) for k, row in enumerate(a)]
        return _of_kind(kind, tuple(Poly3.from_row(degree, row, den) for row, den in rows))
    return TypedField(kind, tuple(Poly3.from_row(degree, row) for row in a))


def field_draw(kind: FieldKind, degree: int, seed: int, *stream: object) -> Callable[[int], TypedField]:
    """A `run_check` draw: sample s is a random field from the RNG stream (*stream, s)."""
    return lambda s: random_field(kind, degree, derived_rng(seed, *stream, s))


# -- sampled checks -----------------------------------------------------------


def components_equal(a: TypedField, b: TypedField) -> bool:
    """Exact equality of component polynomials (canonical forms), ignoring the kind tags."""
    return a.components == b.components


class PreconditionError(ValueError):
    """A kernel or moment precondition failed; carries the witness field."""

    def __init__(self, message: str, witness: str):
        super().__init__(message)
        self.witness = witness


class BasisKindError(KindError):
    """An operator's image of the basis field `witness` (field text) broke its kind predicate."""

    def __init__(self, message: str, witness: str):
        super().__init__(message)
        self.witness = witness


class SuiteConfig(NamedTuple):
    """One run: its suite, draws (seed, degree, samples) and options; every row's `verify` reads it."""

    suite: str = "all"
    seed: int = 0
    degree: int = 3
    samples: int = 10
    format: str = "json"
    strict_preconditions: bool = False
    timings: bool = False


class CheckResult(NamedTuple):
    """Outcome of one exact check; witness carries the offending input.

    `error` marks precondition violations (as opposed to a nonzero residual);
    `duration_ms` is the case's own wall time, measured by `run_check`.
    """

    name: str
    anchor: str
    passed: bool
    witness: str | None = None
    error: bool = False
    duration_ms: int = 0

    @property
    def status(self) -> str:
        return "pass" if self.passed else ("error" if self.error else "fail")


def run_check(
    name: str,
    anchor: str,
    samples: int,
    draw: Callable[[int], Any],
    holds: Callable[[Any], bool],
    witness: Callable[[Any], str] = field_to_text,
) -> CheckResult:
    """Test `holds` on draw(0), draw(1), ... and stop at the first sample where it fails.

    A failing sample is reported as witness(sample).  A KindError raised by
    `holds`, from an output that broke its kind predicate or a chain step that
    should be zero, fails the sample the same way; of those raised by `draw`,
    only a BasisKindError is caught, and it fails the case with its witness.
    A PreconditionError raised by `holds` makes the case an error that carries
    the error's own witness.  The result records the wall time of this case alone.
    """
    t0 = perf_counter()
    passed, found, error = True, None, False
    for s in range(samples):
        try:
            x = draw(s)
        except BasisKindError as err:
            passed, found = False, err.witness
            break
        try:
            ok = holds(x)
        except PreconditionError as err:
            passed, found, error = False, f"{err} | witness:\n{err.witness}", True
            break
        except KindError:
            ok = False
        if not ok:
            passed, found = False, witness(x)
            break
    return CheckResult(name, anchor, passed, found, error, int((perf_counter() - t0) * 1000))


def verify_identity(name: str, samples: int, degree: int, seed: int) -> CheckResult:
    return IDENTITIES[name].verify(SuiteConfig(seed=seed, degree=degree, samples=samples), {})
