"""Regular decompositions: split a field into potentials of higher-order
operators so that the reassembled sum reproduces the input exactly.

Each decomposition is a deterministic function of its input (no randomness
inside the chains), so results are reproducible byte for byte.  Only the
algebraic reconstruction identities are asserted; norm continuity of the
component maps is out of scope.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .fields import FieldKind, KindError, TypedField, field_to_text
from .koszul import _dcc, _dcd, _ddd, _dgg, _rcc_tilde, _rgg_tilde, tc, td, tg, tg_rows
from .operators import (
    CheckResult,
    OperatorId,
    components_equal,
    curl_div,
    deff,
    div,
    div_div,
    field_draw,
    grad,
    inc,
    run_check,
    sym_curl,
    sym_curl_t,
    t_curl,
)

_IDENTITY = OperatorId("identity")  # reassembly that leaves the potential as is


@dataclass(frozen=True)
class DecompositionPart:
    label: str
    potential: TypedField
    reassembly: OperatorId

    def contribution(self) -> TypedField:
        return self.potential if self.reassembly == _IDENTITY else self.reassembly.apply(self.potential)


@dataclass(frozen=True)
class Decomposition:
    input: TypedField
    parts: tuple[DecompositionPart, ...]

    @property
    def reassembled(self) -> TypedField:
        first, *rest = (part.contribution() for part in self.parts)
        return sum(rest, first)

    @property
    def is_exact(self) -> bool:
        return components_equal(self.reassembled, self.input)

    def to_text(self) -> str:
        blocks = [f"input:\n{field_to_text(self.input)}"]
        for p in self.parts:
            blocks.append(f"part {p.label} (reassemble via {p.reassembly.label()}):\n{field_to_text(p.potential)}")
        return "\n\n".join(blocks)


def regdec_cc(g: TypedField) -> Decomposition:
    """g = S0 + deff S1 + hess S2 for symmetric g."""
    if g.kind is not FieldKind.SYMMETRIC:
        raise KindError("regdec_cc needs a symmetric field")
    s0 = _dcc(inc(g))
    r1 = g - s0
    s1 = _rgg_tilde(r1)
    s2 = _dgg(r1 - deff(s1))
    return Decomposition(
        g,
        (
            DecompositionPart("S0", s0, _IDENTITY),
            DecompositionPart("S1", s1, OperatorId("deff")),
            DecompositionPart("S2", s2, OperatorId("hess")),
        ),
    )


def regdec_dd(sigma: TypedField) -> Decomposition:
    """sigma = S0 + sym curl S1 + inc S2 for symmetric sigma."""
    if sigma.kind is not FieldKind.SYMMETRIC:
        raise KindError("regdec_dd needs a symmetric field")
    s0 = _ddd(div_div(sigma))
    r1 = sigma - s0
    s1 = _rcc_tilde(r1)
    s2 = _dcc(r1 - sym_curl(s1))
    return Decomposition(
        sigma,
        (
            DecompositionPart("S0", s0, _IDENTITY),
            DecompositionPart("S1", s1, OperatorId("sym_curl")),
            DecompositionPart("S2", s2, OperatorId("inc")),
        ),
    )


def _cd_core(rho: TypedField) -> tuple[TypedField, TypedField, TypedField]:
    """For trace-free rho with curl div rho = 0, produce (g, q, w) with

        rho = curl g + (dev grad q)^T,  3w = div q,  g symmetric.
    """
    w = tg(div(rho)).comp(1)                       # grad w = div rho
    sigma = sym_curl_t(rho)                        # div sigma = 0 by the cell identity
    g = _dcc(sigma)                                # inc g = sigma
    half_w_id = TypedField.identity_scaled(w.scale(Fraction(1, 2)))
    q = tg_rows(rho.transpose() - t_curl(g) + half_w_id)  # grad q = T rho - T curl g + w/2 id
    return g, q, w


def regdec_cd(tau: TypedField) -> Decomposition:
    """tau = S0 + curl S1 + T dev grad S2 + curl deff S3 for trace-free tau."""
    if tau.kind is not FieldKind.TRACEFREE:
        raise KindError("regdec_cd needs a trace-free field")
    s0 = _dcd(curl_div(tau))
    g, q, _w = _cd_core(tau - s0)
    r = td(div(q))                                 # div r = div q, so q - r is div-free
    u = tc(q - r).scale(2)                         # q - r = 1/2 curl u
    return Decomposition(
        tau,
        (
            DecompositionPart("S0", s0, _IDENTITY),
            DecompositionPart("S1", g, OperatorId("curl")),
            DecompositionPart("S2", r, OperatorId("t_dev_grad")),
            DecompositionPart("S3", u, OperatorId("curl_deff")),
        ),
    )


def regdec_short(f: TypedField, which: str) -> Decomposition:
    """Two- or three-part variants for the slightly more regular spaces:

        cc: g     = S0 + deff(S1 + grad S2)
        dd: sigma = S0 + sym curl(S1 + T curl S2)
        cd: tau   = S0 + curl S1 + T dev grad S2   (the two-term tail)
    """
    if which == "cc":
        full = regdec_cc(f)
        s0, s1, s2 = (p.potential for p in full.parts)
        merged = s1 + grad(s2)
        return Decomposition(
            f,
            (
                DecompositionPart("S0", s0, _IDENTITY),
                DecompositionPart("S1~", merged, OperatorId("deff")),
            ),
        )
    if which == "dd":
        full = regdec_dd(f)
        s0, s1, s2 = (p.potential for p in full.parts)
        merged = s1 + t_curl(s2)
        return Decomposition(
            f,
            (
                DecompositionPart("S0", s0, _IDENTITY),
                DecompositionPart("S1~", merged, OperatorId("sym_curl")),
            ),
        )
    if which == "cd":
        if f.kind is not FieldKind.TRACEFREE:
            raise KindError("regdec_short('cd') needs a trace-free field")
        s0 = _dcd(curl_div(f))
        g, q, _w = _cd_core(f - s0)
        return Decomposition(
            f,
            (
                DecompositionPart("S0", s0, _IDENTITY),
                DecompositionPart("S1", g, OperatorId("curl")),
                DecompositionPart("S2~", q, OperatorId("t_dev_grad")),
            ),
        )
    raise ValueError(f"unknown short decomposition {which!r}")


_S, _T, _V = FieldKind.SYMMETRIC, FieldKind.TRACEFREE, FieldKind.VECTOR

# name -> (decomposition, input kind, anchor, kinds of its parts in order)
_DECOMPOSERS = {
    "cc": (regdec_cc, _S, "Thm 3.4", (_S, _V, FieldKind.SCALAR)),
    "dd": (regdec_dd, _S, "Thm 3.7", (_S, _T, _S)),
    "cd": (regdec_cd, _T, "Thm 3.10", (_T, _S, _V, _V)),
    "short-cc": (lambda f: regdec_short(f, "cc"), _S, "Sec. 4 Thm (cc)", (_S, _V)),
    "short-dd": (lambda f: regdec_short(f, "dd"), _S, "Sec. 4 Thm (dd)", (_S, _T)),
    "short-cd": (lambda f: regdec_short(f, "cd"), _T, "Sec. 4 Thm (cd)", (_T, _S, _V)),
}

DECOMPOSITION_NAMES = tuple(_DECOMPOSERS)


def decompose(name: str, f: TypedField) -> Decomposition:
    return _DECOMPOSERS[name][0](f)


def _part_kinds(dec: Decomposition) -> tuple[FieldKind, ...]:
    return tuple(p.potential.kind for p in dec.parts)


def verify_decomposition(name: str, samples: int, degree: int, seed: int) -> CheckResult:
    fn, kind, anchor, expected_kinds = _DECOMPOSERS[name]

    def holds(f: TypedField) -> bool:
        dec = fn(f)
        return _part_kinds(dec) == expected_kinds and dec.is_exact

    def witness(f: TypedField) -> str:
        kinds = _part_kinds(fn(f))
        if kinds != expected_kinds:
            return f"part kinds {tuple(k.value for k in kinds)} != expected {tuple(k.value for k in expected_kinds)}"
        return field_to_text(f)

    return run_check(f"regdec {name}", anchor, samples, field_draw(kind, degree, seed, "decompose", name), holds, witness)


def verify_all_decompositions(samples: int, degree: int, seed: int) -> list[CheckResult]:
    return [verify_decomposition(name, samples, degree, seed) for name in DECOMPOSITION_NAMES]
