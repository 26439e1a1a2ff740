"""Regular decompositions: split a field into potentials of higher-order
operators so that the reassembled sum reproduces the input exactly.

Every decomposition is one residual cascade (`_cascade`).  Each part is a
right-inverse chain of `koszul.py` applied, after an optional operator `pre`,
to the residual that the earlier parts leave; its contribution, the part
reassembled by its operator, is taken off before the next part:

    decomposition    part   <- chain . pre              reassembly
    cc (Thm 3.4)     S0     <- _dcc . inc               identity
                     S1     <- _rgg_tilde               deff
                     S2     <- _dgg                     hess
    dd (Thm 3.7)     S0     <- _ddd . div_div           identity
                     S1     <- _rcc_tilde               sym_curl
                     S2     <- _dcc                     inc
    short-cd         S0     <- _dcd . curl_div          identity
                     S1     <- _dcc . sym_curl_t        curl
                     S2~    <- 1/2 _rgcT . transpose    t_dev_grad
    cd (Thm 3.10)    S0, S1 of short-cd, then S2~ = q splits into
                     S2     =  td(div q)                t_dev_grad
                     S3     =  2 tc(q - S2)             curl_deff
    short-cc         S0 of cc, S1~ = S1 + grad S2       deff
    short-dd         S0 of dd, S1~ = S1 + T curl S2     sym_curl

Each decomposition is a deterministic function of its input (no randomness
inside the chains), so results are reproducible byte for byte.  Only the
algebraic reconstruction identities are asserted; norm continuity of the
component maps is out of scope.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .fields import FieldKind, KindError, TypedField, field_to_text
# tg and tg_rows are not called here, but perfbench/test_perfbench.py checks that the tracer rebinds them here.
from .koszul import _dcc, _dcd, _ddd, _dgg, _rcc_tilde, _rgcT, _rgg_tilde, tc, td, tg, tg_rows
from .operators import (
    CheckResult,
    OperatorId,
    components_equal,
    curl_div,
    div,
    div_div,
    field_draw,
    grad,
    inc,
    run_check,
    sym_curl_t,
    t_curl,
)

_IDENTITY = OperatorId("identity")  # reassembly that leaves the potential as is
_S, _T, _V = FieldKind.SYMMETRIC, FieldKind.TRACEFREE, FieldKind.VECTOR


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


def _cascade(f: TypedField, kind: FieldKind, what: str, steps) -> Decomposition:
    """One part per step (label, pre, chain, reassembly name): its potential
    is chain(pre(residual)), or chain(residual) without pre.  The residual
    starts at f and loses each part's contribution before the next step."""
    if f.kind is not kind:
        raise KindError(f"{what} needs a {kind.value} field")
    residual, parts = f, []
    for label, pre, chain, reassembly in steps:
        if parts:
            residual = residual - parts[-1].contribution()
        potential = chain(residual if pre is None else pre(residual))
        parts.append(DecompositionPart(label, potential, OperatorId(reassembly)))
    return Decomposition(f, tuple(parts))


def regdec_cc(g: TypedField) -> Decomposition:
    """g = S0 + deff S1 + hess S2 for symmetric g."""
    steps = (("S0", inc, _dcc, "identity"), ("S1", None, _rgg_tilde, "deff"), ("S2", None, _dgg, "hess"))
    return _cascade(g, _S, "regdec_cc", steps)


def regdec_dd(sigma: TypedField) -> Decomposition:
    """sigma = S0 + sym curl S1 + inc S2 for symmetric sigma."""
    steps = (("S0", div_div, _ddd, "identity"), ("S1", None, _rcc_tilde, "sym_curl"), ("S2", None, _dcc, "inc"))
    return _cascade(sigma, _S, "regdec_dd", steps)


def _cd_steps():
    """tau = S0 + curl S1 + T dev grad S2~ for trace-free tau.  The residual
    left for S2~ has the div of tau - S0, as div of a row-wise curl is 0."""
    return (
        ("S0", curl_div, _dcd, "identity"),
        ("S1", sym_curl_t, _dcc, "curl"),
        ("S2~", None, lambda rho: _rgcT(rho.transpose()).scale(Fraction(1, 2)), "t_dev_grad"),
    )


def regdec_cd(tau: TypedField) -> Decomposition:
    """tau = S0 + curl S1 + T dev grad S2 + curl deff S3 for trace-free tau."""
    s0, s1, s2_tilde = _cascade(tau, _T, "regdec_cd", _cd_steps()).parts
    r = td(div(s2_tilde.potential))                # div r = div S2~, so S2~ - r is div-free
    u = tc(s2_tilde.potential - r).scale(2)        # S2~ - r = 1/2 curl u
    split = (DecompositionPart("S2", r, OperatorId("t_dev_grad")), DecompositionPart("S3", u, OperatorId("curl_deff")))
    return Decomposition(tau, (s0, s1, *split))


def regdec_short(f: TypedField, which: str) -> Decomposition:
    """Two- or three-part variants for the slightly more regular spaces:

        cc: g     = S0 + deff(S1 + grad S2)
        dd: sigma = S0 + sym curl(S1 + T curl S2)
        cd: tau   = S0 + curl S1 + T dev grad S2   (the two-term tail)
    """
    if which == "cd":
        return _cascade(f, _T, "regdec_short('cd')", _cd_steps())
    if which not in ("cc", "dd"):
        raise ValueError(f"unknown short decomposition {which!r}")
    full, inner = (regdec_cc, grad) if which == "cc" else (regdec_dd, t_curl)
    s0, s1, s2 = full(f).parts
    return Decomposition(f, (s0, DecompositionPart("S1~", s1.potential + inner(s2.potential), s1.reassembly)))


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
