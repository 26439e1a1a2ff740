"""Kind-tagged scalar / vector / matrix polynomial fields.

A matrix field is a row-major 9-tuple: entry (i, j), counted from 0, is
component 3 i + j, and row i is the slice components[ROWS[i]].  The tables
ROWS, DIAGONAL, OFF_DIAGONAL and TRANSPOSE below, and the builders
TypedField.symmetric and TypedField.skew, state that layout once; every
other module reads matrix entries through them.  The Jacobian convention is
that grad u has (i, j) entry d(u_i)/d(x_j).  Kind tags (symmetric,
trace-free, skew) hold identically as polynomials: `TypedField(kind, c)`
checks them where a tag claims computed values (`retag`, `S`, an operator's
declared output, parsed text); `_of_kind` skips the check where the tag holds
whatever the values are (symmetric and skew builders, `dev`, transpose, scale,
`mul_scalar_poly`, negation, sum and difference, where two different matrix
tags give `matrix`).
"""

from __future__ import annotations

import re
from enum import Enum
from fractions import Fraction
from operator import add, sub
from typing import Callable, Iterable, Sequence

from .poly import P_ONE, P_ZERO, Poly3


class FieldKind(Enum):
    SCALAR = "scalar"
    VECTOR = "vector"
    MATRIX = "matrix"
    SYMMETRIC = "symmetric"
    TRACEFREE = "trace-free"
    SKEW = "skew"


MATRIX_KINDS = (FieldKind.MATRIX, FieldKind.SYMMETRIC, FieldKind.TRACEFREE, FieldKind.SKEW)

_COMPONENT_COUNT = {FieldKind.SCALAR: 1, FieldKind.VECTOR: 3, **dict.fromkeys(MATRIX_KINDS, 9)}

# -- the row-major layout of a matrix field -------------------------------

ROWS = (slice(0, 3), slice(3, 6), slice(6, 9))
DIAGONAL = (0, 4, 8)
# The components of (i, j) and (j, i) for (i, j) = (0, 1), (0, 2), (1, 2).
OFF_DIAGONAL = ((1, 3), (2, 6), (5, 7))
# Component k of the transpose is component TRANSPOSE[k].
TRANSPOSE = (0, 3, 6, 1, 4, 7, 2, 5, 8)

_HALF, _THIRD = Fraction(1, 2), Fraction(1, 3)


class KindError(TypeError):
    """Operation applied to a field of the wrong kind."""


def _trace(c: Sequence[Poly3]) -> Poly3:
    d0, d1, d2 = (c[k] for k in DIAGONAL)
    return d0 + d1 + d2


def _minus_on_diagonal(c: Sequence[Poly3], t: Poly3) -> tuple[Poly3, ...]:
    """The components c with t subtracted from each diagonal entry."""
    return tuple(p - t if k in DIAGONAL else p for k, p in enumerate(c))


def _pair_halves(c: Sequence[Poly3], op: Callable[[Poly3, Poly3], Poly3]) -> list[Poly3]:
    """op(c_ij, c_ji) / 2 for each off-diagonal pair, i < j: op is add for the symmetric part, sub for the skew part."""
    return [op(c[k], c[t]).scale(_HALF) for k, t in OFF_DIAGONAL]


def _axial(u: Sequence[Poly3]) -> list[Poly3]:
    """Vector v <-> entries (0, 1), (0, 2), (1, 2) of mskw v; the map is its own inverse."""
    return [-u[2], u[1], -u[0]]


class TypedField:
    """A field of `kind` with its components as a tuple of Poly3; immutable, compared and hashed by value."""

    __slots__ = ("kind", "components")

    def __init__(self, kind: FieldKind, components: tuple[Poly3, ...]):
        n = _COMPONENT_COUNT[kind]
        c = components
        if len(c) != n:
            raise KindError(f"{kind.value} field needs {n} components, got {len(c)}")
        if kind is FieldKind.SYMMETRIC:
            if any(c[k] != c[t] for k, t in OFF_DIAGONAL):
                raise KindError("components are not symmetric")
        elif kind is FieldKind.TRACEFREE:
            if not _trace(c).is_zero:
                raise KindError("components have nonzero trace")
        elif kind is FieldKind.SKEW:
            if any(not c[k].is_zero for k in DIAGONAL) or any(not (c[k] + c[t]).is_zero for k, t in OFF_DIAGONAL):
                raise KindError("components are not skew")
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "components", components)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r} of a TypedField")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r} of a TypedField")

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.kind is other.kind and self.components == other.components

    def __hash__(self) -> int:
        return hash((self.kind, self.components))

    def __repr__(self) -> str:
        return f"TypedField(kind={self.kind!r}, components={self.components!r})"

    # -- constructors -------------------------------------------------

    @classmethod
    def scalar(cls, p: Poly3) -> "TypedField":
        return cls(FieldKind.SCALAR, (p,))

    @classmethod
    def vector(cls, ps: Sequence[Poly3]) -> "TypedField":
        return cls(FieldKind.VECTOR, tuple(ps))

    @classmethod
    def symmetric(cls, diagonal: Iterable[Poly3], upper: Iterable[Poly3]) -> "TypedField":
        """The symmetric field with the given diagonal and the entries (0, 1), (0, 2), (1, 2) above it."""
        (d0, d1, d2), (s01, s02, s12) = diagonal, upper
        return _of_kind(FieldKind.SYMMETRIC, (d0, s01, s02, s01, d1, s12, s02, s12, d2))

    @classmethod
    def skew(cls, upper: Iterable[Poly3]) -> "TypedField":
        """The skew field with the entries (0, 1), (0, 2), (1, 2) above its zero diagonal."""
        s01, s02, s12 = upper
        return _of_kind(FieldKind.SKEW, (P_ZERO, s01, s02, -s01, P_ZERO, s12, -s02, -s12, P_ZERO))

    @classmethod
    def identity_scaled(cls, p: Poly3) -> "TypedField":
        """p * id, tagged symmetric."""
        return cls.symmetric((p, p, p), (P_ZERO, P_ZERO, P_ZERO))

    # -- access -------------------------------------------------------

    @property
    def is_matrix_kind(self) -> bool:
        return self.kind in MATRIX_KINDS

    def comp(self, i: int) -> Poly3:
        """1-based component of a scalar (i=1) or vector field."""
        return self.components[i - 1]

    @property
    def is_zero(self) -> bool:
        return all(p.is_zero for p in self.components)

    # -- linear structure ----------------------------------------------

    def _sum_kind(self, other: "TypedField") -> FieldKind:
        """Kind of self ± other: a shared tag is kept, two different matrix tags give MATRIX."""
        if self.kind is other.kind:
            return self.kind
        if self.is_matrix_kind and other.is_matrix_kind:
            return FieldKind.MATRIX
        raise KindError(f"kind mismatch: {self.kind.value} vs {other.kind.value}")

    def __add__(self, other: "TypedField") -> "TypedField":
        return _of_kind(self._sum_kind(other), tuple(a + b for a, b in zip(self.components, other.components)))

    def __sub__(self, other: "TypedField") -> "TypedField":
        return _of_kind(self._sum_kind(other), tuple(a - b for a, b in zip(self.components, other.components)))

    def __neg__(self) -> "TypedField":
        return _of_kind(self.kind, tuple(-p for p in self.components))

    def scale(self, c) -> "TypedField":
        return _of_kind(self.kind, tuple(p.scale(c) for p in self.components))

    def mul_scalar_poly(self, w: Poly3) -> "TypedField":
        """Pointwise product with a scalar polynomial, once per distinct component object; keeps the tag."""
        products = {key: p * w for key, p in {id(p): p for p in self.components}.items()}
        return _of_kind(self.kind, tuple(products[id(p)] for p in self.components))

    def retag(self, kind: FieldKind) -> "TypedField":
        """Re-tag with `kind`; the kind predicate is re-validated (self when the kind is unchanged)."""
        if kind is self.kind:
            return self
        if _COMPONENT_COUNT[kind] != len(self.components):
            raise KindError(f"cannot retag {self.kind.value} as {kind.value}")
        return TypedField(kind, self.components)

    # -- pointwise algebra ---------------------------------------------

    def _matrix_components(self, what: str) -> tuple[Poly3, ...]:
        """The components of a matrix field; a KindError naming the operation `what` otherwise."""
        if not self.is_matrix_kind:
            raise KindError(f"{what} needs a matrix field")
        return self.components

    def transpose(self) -> "TypedField":
        c = self._matrix_components("transpose")
        return _of_kind(self.kind, tuple(c[k] for k in TRANSPOSE))

    def sym(self) -> "TypedField":
        # One (e_ij + e_ji) / 2 per off-diagonal pair fills both of its slots.
        c = self._matrix_components("sym")
        return TypedField.symmetric((c[k] for k in DIAGONAL), _pair_halves(c, add))

    def skw(self) -> "TypedField":
        return TypedField.skew(_pair_halves(self._matrix_components("skw"), sub))

    def trace(self) -> "TypedField":
        return TypedField.scalar(_trace(self._matrix_components("tr")))

    def dev(self) -> "TypedField":
        c = self._matrix_components("dev")
        return _of_kind(FieldKind.TRACEFREE, _minus_on_diagonal(c, _trace(c).scale(_THIRD)))

    def s_op(self) -> "TypedField":
        """tau -> tau^T - tr(tau) id, of the kind of tau: S g = g - tr(g) id, and S tau = tau^T if tr(tau) = 0."""
        c = self._matrix_components("S")
        return TypedField(self.kind, _minus_on_diagonal([c[k] for k in TRANSPOSE], _trace(c)))


def _of_kind(kind: FieldKind, components: tuple[Poly3, ...]) -> TypedField:
    """A field built of components that have `kind` whatever their values: `TypedField`'s check is skipped."""
    f = object.__new__(TypedField)
    object.__setattr__(f, "kind", kind)
    object.__setattr__(f, "components", components)
    return f


# -- axial-vector correspondence ---------------------------------------


def mskw(v: TypedField) -> TypedField:
    """Skew matrix of a vector field: (mskw v)_ij = -epsilon_ijk v_k."""
    if v.kind is not FieldKind.VECTOR:
        raise KindError("mskw needs a vector field")
    return TypedField.skew(_axial(v.components))


def vskw(m: TypedField) -> TypedField:
    """Axial vector of the skew part: vskw = mskw^{-1} ∘ skw."""
    return TypedField.vector(_axial(_pair_halves(m._matrix_components("vskw"), sub)))


# -- products ----------------------------------------------------------


def cross(a: TypedField, b: TypedField) -> TypedField:
    if a.kind is not FieldKind.VECTOR or b.kind is not FieldKind.VECTOR:
        raise KindError("cross needs two vector fields")
    a1, a2, a3 = a.components
    b1, b2, b3 = b.components
    return TypedField.vector([a2 * b3 - a3 * b2, a3 * b1 - a1 * b3, a1 * b2 - a2 * b1])


def pairing_components(a: TypedField, b: TypedField) -> list[tuple[Poly3, Poly3]]:
    """Component pairs whose products sum to the pointwise pairing: uv, u.v or u:v."""
    same_kind = a.kind is b.kind and a.kind in (FieldKind.SCALAR, FieldKind.VECTOR)
    if same_kind or (a.is_matrix_kind and b.is_matrix_kind):
        return list(zip(a.components, b.components))
    raise KindError(f"no pairing between {a.kind.value} and {b.kind.value}")


def pairing_product(a: TypedField, b: TypedField) -> Poly3:
    """Pointwise scalar product matching the kinds: uv, u.v or u:v."""
    return sum((p * q for p, q in pairing_components(a, b)), P_ZERO)


# -- basis fields -------------------------------------------------------

E1 = TypedField.vector([P_ONE, P_ZERO, P_ZERO])
E2 = TypedField.vector([P_ZERO, P_ONE, P_ZERO])
E3 = TypedField.vector([P_ZERO, P_ZERO, P_ONE])
X_FIELD = TypedField.vector([Poly3.variable(1), Poly3.variable(2), Poly3.variable(3)])
ID_FIELD = TypedField.identity_scaled(P_ONE)


# -- plain-text field format --------------------------------------------
#
# kind header, then one component per line:
#     i j : coeff * x1^a x2^b x3^c + ...
# Scalars use index "1 1", vectors "i 1", matrices "i j".  Exact fractions
# print as p/q.  The round-trip text -> field -> text is bit-exact.


# The two indices as field_to_text writes them: decimal digits, no sign, no leading zero.
_INDICES = re.compile(r"\s*(0|[1-9][0-9]*)\s+(0|[1-9][0-9]*)\s*")


def _text_indices(kind: FieldKind) -> list[tuple[int, int]]:
    """Index pairs of the component lines, in component order."""
    if kind is FieldKind.SCALAR:
        return [(1, 1)]
    if kind is FieldKind.VECTOR:
        return [(i, 1) for i in range(1, 4)]
    return [(i, j) for i in range(1, 4) for j in range(1, 4)]


def field_to_text(f: TypedField) -> str:
    lines = [f"kind: {f.kind.value}"]
    lines.extend(f"{i} {j} : {p}" for (i, j), p in zip(_text_indices(f.kind), f.components))
    return "\n".join(lines)


def field_from_text(text: str) -> TypedField:
    """Parse the text format; malformed input raises ValueError naming the line or component."""
    lines = [ln for ln in (s.strip() for s in text.splitlines()) if ln]
    if not lines or not lines[0].startswith("kind:"):
        raise ValueError("missing kind header")
    try:
        kind = FieldKind(lines[0].split(":", 1)[1].strip())
    except ValueError:
        kinds = ", ".join(k.value for k in FieldKind)
        raise ValueError(f"bad kind header {lines[0]!r}; a kind is one of {kinds}") from None
    indices = _text_indices(kind)
    entries: dict[tuple[int, int], Poly3] = {}
    for ln in lines[1:]:
        idx, _, poly = ln.partition(":")
        try:
            if not (m := _INDICES.fullmatch(idx)):
                raise ValueError(f"bad indices {idx.strip()!r}")
            i, j = int(m[1]), int(m[2])
            p = Poly3.parse(poly.strip())
        except ValueError as err:
            raise ValueError(f"bad component line {ln!r}: {err}") from None
        if (i, j) not in indices:
            raise ValueError(f"component {i} {j} is out of range for a {kind.value} field: {ln!r}")
        if (i, j) in entries:
            raise ValueError(f"duplicate component {i} {j}: {ln!r}")
        entries[(i, j)] = p
    missing = [f"{i} {j}" for i, j in indices if (i, j) not in entries]
    if missing:
        raise ValueError(f"missing component {', '.join(missing)} of a {kind.value} field")
    try:
        return TypedField(kind, tuple(entries[ij] for ij in indices))
    except KindError as err:
        raise ValueError(f"kind header says {kind.value}, but the {err}") from None
