"""Regular decompositions: split a field into potentials of higher-order
operators so that the reassembled sum reproduces the input exactly.

Every decomposition is a `DecompositionSpec` row of `_DECOMPOSERS`: one
residual cascade, which `decompose(name, f)` runs and the row's `holds`
checks.  Each part is a word, applied right to left by
`koszul.apply_word` to the residual that the earlier parts leave; its letters
are RIGHT_INVERSES names, OPS keys and scales.  The part's contribution, the
part reassembled by its operator, is kept and taken off before the next part:

    decomposition    part   <- word                     reassembly
    cc (Thm 3.4)     S0     <- Dcc . inc                identity
                     S1     <- Rgg_tilde                deff
                     S2     <- Dgg                      hess
    dd (Thm 3.7)     S0     <- Ddd . div_div            identity
                     S1     <- Rcc_tilde                sym_curl
                     S2     <- Dcc                      inc
    cd (Thm 3.10)    S0     <- Dcd . curl_div           identity
                     S1     <- Dcc . sym_curl_t         curl
                     S2     <- 1/2 Dgd . div            t_dev_grad
                     S3     <- Rc_plain . 1/2 RgcT . t  curl_deff
    short-cc         S0 of cc, S1~ <- Rgg (Lemma 3.15)  deff
    short-dd         S0 of dd, S1~ <- Rcc (Lemma 3.18)  sym_curl
    short-cd         S0, S1 of cd, S2~ <- 1/2 RgcT . t  t_dev_grad

where 1/2 RgcT . t, Lemma 3.17 on the transpose, is the right inverse of
T dev grad.

Each decomposition is a deterministic function of its input (no randomness
inside the chains), so results are reproducible byte for byte.  Only the
algebraic reconstruction identities are asserted; norm continuity of the
component maps is out of scope.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .fields import FieldKind, KindError, TypedField, field_to_text
# tc, td, tg and tg_rows are not called here, but perfbench/test_perfbench.py checks that the tracer rebinds them here.
from .koszul import apply_word, tc, td, tg, tg_rows
from .operators import CheckResult, OperatorId, SuiteConfig, components_equal, field_draw, run_check

_IDENTITY = OperatorId("identity")  # reassembly that leaves the potential as is
_S, _T, _V, _W = FieldKind.SYMMETRIC, FieldKind.TRACEFREE, FieldKind.VECTOR, FieldKind.SCALAR


class DecompositionPart(NamedTuple):
    label: str
    potential: TypedField
    reassembly: OperatorId
    contribution: TypedField  # the reassembly applied to the potential, as the cascade took it off


class Decomposition(NamedTuple):
    input: TypedField
    parts: tuple[DecompositionPart, ...]

    @property
    def reassembled(self) -> TypedField:
        first, *rest = (part.contribution for part in self.parts)
        return sum(rest, first)

    @property
    def is_exact(self) -> bool:
        return components_equal(self.reassembled, self.input)

    @property
    def part_kinds(self) -> tuple[FieldKind, ...]:
        return tuple(p.potential.kind for p in self.parts)

    def to_text(self) -> str:
        blocks = [f"input:\n{field_to_text(self.input)}"]
        for p in self.parts:
            blocks.append(f"part {p.label} (reassemble via {p.reassembly.label()}):\n{field_to_text(p.potential)}")
        return "\n\n".join(blocks)


class DecompositionSpec(NamedTuple):
    """One case: `decompose(name, f)` splits a field f of `input_kind` into parts of `part_kinds`, one per
    step (label, word, reassembly name), whose contributions sum back to f exactly."""

    name: str
    anchor: str
    input_kind: FieldKind
    steps: tuple[tuple, ...]
    part_kinds: tuple[FieldKind, ...]

    @property
    def case_name(self) -> str:
        return f"regdec {self.name}"

    def holds(self, f: TypedField) -> bool:
        dec = decompose(self.name, f)
        return dec.part_kinds == self.part_kinds and dec.is_exact

    def witness(self, f: TypedField) -> str:
        """The field, then the part kinds when they are not the expected ones."""
        try:
            kinds = decompose(self.name, f).part_kinds
        except KindError:  # the decomposition broke a kind predicate: the field alone is the witness
            return field_to_text(f)
        if kinds != self.part_kinds:
            got, want = (tuple(k.value for k in ks) for ks in (kinds, self.part_kinds))
            return f"{field_to_text(f)}\npart kinds {got} != expected {want}"
        return field_to_text(f)

    def verify(self, cfg: SuiteConfig, memo: dict) -> CheckResult:
        draw = field_draw(self.input_kind, cfg.degree, cfg.seed, "decompose", self.name)
        return run_check(self.case_name, self.anchor, cfg.samples, draw, self.holds, self.witness)


_TDG = (Fraction(1, 2), "RgcT", "t")  # the right inverse of T dev grad: Lemma 3.17 on the transpose
_S0_CC, _S0_DD = ("S0", ("Dcc", "inc"), "identity"), ("S0", ("Ddd", "div_div"), "identity")
_S0_S1_CD = (("S0", ("Dcd", "curl_div"), "identity"), ("S1", ("Dcc", "sym_curl_t"), "curl"))

_DECOMPOSERS: dict[str, DecompositionSpec] = {
    spec.name: spec
    for spec in [
        DecompositionSpec("cc", "Thm 3.4", _S, (_S0_CC, ("S1", ("Rgg_tilde",), "deff"), ("S2", ("Dgg",), "hess")),
                          (_S, _V, _W)),
        DecompositionSpec("dd", "Thm 3.7", _S, (_S0_DD, ("S1", ("Rcc_tilde",), "sym_curl"), ("S2", ("Dcc",), "inc")),
                          (_S, _T, _S)),
        DecompositionSpec("cd", "Thm 3.10", _T, (*_S0_S1_CD, ("S2", (Fraction(1, 2), "Dgd", "div"), "t_dev_grad"),
                                                 ("S3", ("Rc_plain", *_TDG), "curl_deff")), (_T, _S, _V, _V)),
        DecompositionSpec("short-cc", "Sec. 4 Thm (cc)", _S, (_S0_CC, ("S1~", ("Rgg",), "deff")), (_S, _V)),
        DecompositionSpec("short-dd", "Sec. 4 Thm (dd)", _S, (_S0_DD, ("S1~", ("Rcc",), "sym_curl")), (_S, _T)),
        DecompositionSpec("short-cd", "Sec. 4 Thm (cd)", _T, (*_S0_S1_CD, ("S2~", _TDG, "t_dev_grad")), (_T, _S, _V)),
    ]
}

DECOMPOSITION_NAMES = tuple(_DECOMPOSERS)


def decompose(name: str, f: TypedField) -> Decomposition:
    """One part per step of the named row: its potential is `koszul.apply_word` of the
    word on the residual, which starts at f and loses each part's contribution before
    the next step.

    Invariant: the third step of cc, dd, cd and short-cd (Dgg, Dcc, 1/2 Dgd . div,
    1/2 RgcT . t) sends S0 to exactly 0, so S2 / S2~ would be the same with S0 left
    in the residual; the loop takes it off anyway, as it does every part."""
    spec = _DECOMPOSERS[name]
    if f.kind is not spec.input_kind:
        raise KindError(f"regdec {name} needs a {spec.input_kind.value} field")
    residual, parts = f, []
    for label, word, reassembly in spec.steps:
        if parts:
            residual = residual - parts[-1].contribution
        potential, op = apply_word(word, residual), OperatorId(reassembly)
        parts.append(DecompositionPart(label, potential, op, potential if op == _IDENTITY else op.apply(potential)))
    return Decomposition(f, tuple(parts))


def regdec_cc(g: TypedField) -> Decomposition:
    """g = S0 + deff S1 + hess S2 for symmetric g."""
    return decompose("cc", g)


def regdec_dd(sigma: TypedField) -> Decomposition:
    """sigma = S0 + sym curl S1 + inc S2 for symmetric sigma."""
    return decompose("dd", sigma)


def regdec_cd(tau: TypedField) -> Decomposition:
    """tau = S0 + curl S1 + T dev grad S2 + curl deff S3 for trace-free tau."""
    return decompose("cd", tau)


def regdec_short(f: TypedField, which: str) -> Decomposition:
    """The variant for the slightly more regular spaces: g = S0 + deff S1~ (cc),
    sigma = S0 + sym curl S1~ (dd) or tau = S0 + curl S1 + T dev grad S2~ (cd)."""
    if which not in ("cc", "dd", "cd"):
        raise ValueError(f"unknown short decomposition {which!r}")
    return decompose(f"short-{which}", f)


def decomposition_rows() -> list[DecompositionSpec]:
    return list(_DECOMPOSERS.values())


def verify_decomposition(name: str, samples: int, degree: int, seed: int) -> CheckResult:
    return _DECOMPOSERS[name].verify(SuiteConfig(seed=seed, degree=degree, samples=samples), {})
