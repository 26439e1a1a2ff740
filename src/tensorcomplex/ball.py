"""Exact integration over the unit ball, L2 pairings, moment spaces.

The domain is the open unit ball: star-shaped about the origin (so the
degree-raising homotopy operators apply), with every monomial integral a
rational multiple of pi.  Compact support is modeled by bump weights
(1 - |x|^2)^k, which vanish to order k on the boundary sphere and keep all
integration-by-parts boundary terms exactly zero; `l2_pair` integrates such a
weight in closed form, from a weighted moment table, without multiplying it out.

`pairing_rows` is the pairings suite: `operators.ClosedForm` rows for two ball
integrals and a negative control, `PairingSpec` rows for the Sec. 6 pairings and
`MembershipStep` rows for the Thm 2.3 steps.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from operator import attrgetter, eq
from typing import NamedTuple

from .fields import (
    E1,
    E2,
    E3,
    FieldKind,
    KindError,
    TypedField,
    X_FIELD,
    cross,
    field_to_text,
    pairing_components,
)
from .operators import CheckResult, ClosedForm, OPS, SuiteConfig, derived_rng, random_field, run_check
from .poly import MAX_EXPONENT, P_ONE, Poly3, monomial_code
from .rational import PiScalar, RatMatrix


@functools.cache
def _moments(half: int, k: int = 0) -> tuple[int, dict[int, int]]:
    """Integer ball moments weighted by (1 - |x|^2)^k, for exponent sums up to 2*half, as (scale, table).

    For even a, b, c with S = a + b + c the closed form is
        integral over the unit ball of x1^a x2^b x3^c (1 - |x|^2)^k
            = 4*pi (a-1)!! (b-1)!! (c-1)!! (2k)!! / (S+2k+3)!!,
    the unit-sphere moment 4*pi (a-1)!! (b-1)!! (c-1)!! / (S+1)!! times the radial integral
    of r^(S+2) (1 - r^2)^k, k! 2^k / ((S+3) (S+5) ... (S+2k+3)).  The table stores that
    coefficient of pi times scale = (2*half + 2k + 3)!!, an integer because (S+2k+3)!!
    divides it, keyed by the `monomial_code` of x^(a, b, c) alone, so the key of a product
    monomial is the sum of the codes of its factors.  Monomials with an odd exponent
    integrate to zero and are absent, as are those with an exponent past MAX_EXPONENT,
    which no code names.  The cached table is shared: callers must not mutate it.
    """
    _check_bump_order(k)
    top = 2 * half
    scale = _odd_factorial(top + 2 * k + 3)
    weight = 4 * 2**k * math.factorial(k)  # 4 (2k)!!
    table = {}
    for a in range(0, min(top, MAX_EXPONENT) + 1, 2):
        for b in range(0, min(top - a, MAX_EXPONENT) + 1, 2):
            for c in range(0, min(top - a - b, MAX_EXPONENT) + 1, 2):
                moment = weight * _odd_factorial(a - 1) * _odd_factorial(b - 1) * _odd_factorial(c - 1)
                table[monomial_code((a, b, c))] = moment * (scale // _odd_factorial(a + b + c + 2 * k + 3))
    return scale, table


def _check_bump_order(k: int) -> None:
    if k < 0:
        raise ValueError("bump order must be >= 0")


def _odd_factorial(n: int) -> int:
    """n!! for odd n >= -1."""
    return math.prod(range(n, 0, -2))


def _pair_integral(pairs: list[tuple[Poly3, Poly3]], bump_order: int = 0) -> PiScalar:
    """Integral over the unit ball of sum p*q*(1 - |x|^2)^bump_order over the pairs.

    Neither the products nor the weight are formed: each pair is `Poly3.pair_sum` against the table
    `_moments(half, bump_order)`, which includes the weight.  A pair of the same two objects, as the
    shared entries of two symmetric fields give, is summed once and counted.  No exponent of a product
    may pass MAX_EXPONENT (ExponentLimitError, before the table is built); total degree is not limited.
    Each pair's integer sum is scaled to the common denominators of the left and right sides, and one
    Fraction is built at the end.
    """
    _check_bump_order(bump_order)
    counted: dict[tuple[int, int], list] = {}
    for p, q in pairs:
        if not (p.is_zero or q.is_zero):
            counted.setdefault((id(p), id(q)), [p, q, 0])[2] += 1
    if not counted:
        return PiScalar(Fraction(0))
    pairs = counted.values()
    den_left = math.lcm(*(p.denominator for p, _, _ in pairs))
    den_right = math.lcm(*(q.denominator for _, q, _ in pairs))
    top = max(p.product_degree(q) for p, q, _ in pairs)
    scale, table = _moments(top // 2, bump_order)  # an even-exponent product has an even degree
    total = 0
    for p, q, count in pairs:
        total += count * p.pair_sum(q, table) * (den_left // p.denominator * (den_right // q.denominator))
    return PiScalar(Fraction(total, den_left * den_right * scale))


def integrate_ball(p: Poly3) -> PiScalar:
    return _pair_integral([(p, P_ONE)])


def l2_pair(a: TypedField, b: TypedField, bump_order: int = 0) -> PiScalar:
    """Integral over the unit ball of the pointwise product (uv, u.v or u:v) times (1 - |x|^2)^bump_order."""
    return _pair_integral(pairing_components(a, b), bump_order)


@functools.cache
def bump(k: int) -> Poly3:
    """(1 - |x|^2)^k; k = 0 is the constant 1."""
    _check_bump_order(k)
    base = Poly3(
        {
            (0, 0, 0): Fraction(1),
            (2, 0, 0): Fraction(-1),
            (0, 2, 0): Fraction(-1),
            (0, 0, 2): Fraction(-1),
        }
    )
    out = P_ONE
    for _ in range(k):
        out = out * base
    return out


class MomentSpace(NamedTuple):
    """A finite-dimensional test space with an explicit polynomial basis."""

    name: str
    kind: FieldKind
    basis: tuple[TypedField, ...]


@functools.cache
def _gram_rows(space: MomentSpace) -> list[dict[int, Fraction]]:
    """Row i of the bump(1)-weighted Gram matrix, {j: (b_j, b_i) weighted by 1 - |x|^2}; built once per space."""
    return [{j: l2_pair(bj, bi, bump_order=1).coeff for j, bj in enumerate(space.basis)} for bi in space.basis]


CONSTANTS_SCALAR = MomentSpace("constants", FieldKind.SCALAR, (TypedField.scalar(P_ONE),))
P1_SPACE = MomentSpace(
    "P1",
    FieldKind.SCALAR,
    tuple(TypedField.scalar(p) for p in (P_ONE, Poly3.variable(1), Poly3.variable(2), Poly3.variable(3))),
)
RT_SPACE = MomentSpace("RT", FieldKind.VECTOR, (E1, E2, E3, X_FIELD))
ND_SPACE = MomentSpace(
    "ND",
    FieldKind.VECTOR,
    (E1, E2, E3, cross(E1, X_FIELD), cross(E2, X_FIELD), cross(E3, X_FIELD)),
)


def moment_orthogonal(f: TypedField, space: MomentSpace) -> tuple[TypedField, PiScalar] | None:
    """None when (f, b) = 0 exactly for every basis element b of the space;
    otherwise the first such b with its nonzero pairing."""
    if f.kind is not space.kind:
        raise KindError(f"{space.name} tests {space.kind.value} fields, got {f.kind.value}")
    for b in space.basis:
        v = l2_pair(f, b)
        if not v.is_zero:
            return b, v
    return None


def project_moment_orthogonal(psi: TypedField, space: MomentSpace) -> TypedField:
    """bump(1) * (psi - sum_j c_j b_j), a bump-weighted field orthogonal to the whole space.

    The c_j solve the exact Gram system G c = r of the pairings weighted by
    1 - |x|^2, G_ij = (b_j, b_i) and r_i = (psi, b_i); G is invertible for a
    basis, so (c, 1) is the one kernel vector of [G | -r].
    """
    gram = _gram_rows(space)
    n = len(gram)
    system = RatMatrix(n + 1, [row | {n: -l2_pair(psi, b, bump_order=1).coeff} for row, b in zip(gram, space.basis)])
    kernel = system.nullspace()
    if len(kernel) != 1 or kernel[0].get(n) != 1:
        raise ValueError(f"the Gram matrix of {space.name} is singular")
    out = psi
    for j, c in kernel[0].items():
        if j != n:
            out = out - space.basis[j].scale(c)
    return out.mul_scalar_poly(bump(1))


# -- pairing identities --------------------------------------------------

_R, _V, _S, _T = FieldKind.SCALAR, FieldKind.VECTOR, FieldKind.SYMMETRIC, FieldKind.TRACEFREE


class PairingSpec(NamedTuple):
    """One extension identity of Sec. 6: for every `field_kind` field f and `test_kind` test field
    phi = psi bump(2), (f, op(phi)) = factor (adj(f), psi) under the weight bump(2), as exact pi-multiples.
    Operators are named by their OPS key.  A sample is the pair (f, psi); a failing one is
    reported as f, then `test field:` and phi."""

    name: str
    field_kind: FieldKind
    test_kind: FieldKind
    op: str
    adj: str
    factor: Fraction
    anchor: str

    case_name = property(attrgetter("name"))

    def sample(self, degree: int, seed: int, index: int) -> tuple[TypedField, TypedField]:
        """f, then psi: phi = psi bump(2) vanishes to second order on the sphere, and no op has order above 2."""
        rng = derived_rng(seed, "ibp", self.name, index)
        return random_field(self.field_kind, degree, rng), random_field(self.test_kind, degree, rng)

    def holds(self, sample: tuple[TypedField, TypedField]) -> bool:
        f, psi = sample
        phi = psi.mul_scalar_poly(bump(2))
        return (l2_pair(f, OPS[self.op](phi)) - l2_pair(OPS[self.adj](f), psi, bump_order=2) * self.factor).is_zero

    def witness(self, sample: tuple[TypedField, TypedField]) -> str:
        return f"{field_to_text(sample[0])}\ntest field:\n{field_to_text(sample[1].mul_scalar_poly(bump(2)))}"

    def verify(self, cfg: SuiteConfig, memo: dict) -> CheckResult:
        draw = functools.partial(self.sample, cfg.degree, cfg.seed)
        return run_check(self.case_name, self.anchor, cfg.samples, draw, self.holds, self.witness)


_PAIRINGS: dict[str, PairingSpec] = {
    spec.name: spec
    for spec in [
        PairingSpec("q-grad", _V, _R, "grad", "div", Fraction(-1), "Sec. 6 extension lemma (q∘grad)"),
        PairingSpec("sigma-deff", _S, _V, "deff", "div", Fraction(-1), "Sec. 6 extension lemma (σ∘deff)"),
        PairingSpec("sigma-hess", _S, _R, "hess", "div_div", Fraction(1), "Sec. 6 extension lemma (σ∘hess)"),
        PairingSpec("g-sym-curl", _S, _T, "sym_curl", "curl", Fraction(1), "Sec. 6 extension lemma (g∘sym curl)"),
        PairingSpec("g-inc", _S, _S, "inc", "inc", Fraction(1), "Sec. 6 extension lemma (g∘inc)"),
        PairingSpec("tau-curl", _T, _S, "curl", "sym_curl", Fraction(1), "Sec. 6 extension lemma (τ∘curl)"),
        PairingSpec("tau-dev-grad", _T, _V, "dev_grad", "div", Fraction(-1), "Sec. 6 extension lemma (τ∘dev grad)"),
        # Adjoint chain: curl div T tau = div T curl tau (identity eq2), then one
        # div adjoint (a minus) and the eq3/eq5 trades give
        # (tau ∘ curl deff)(u) = -1/2 (curl div T tau)(u).
        PairingSpec("tau-curl-deff", _T, _V, "curl_deff", "curl_div_t", Fraction(-1, 2),
                    "Sec. 6 extension lemma (τ∘curl deff)"),
    ]
}


def verify_ibp(which: str, samples: int, degree: int, seed: int) -> CheckResult:
    return _PAIRINGS[which].verify(SuiteConfig(seed=seed, degree=degree, samples=samples), {})


class MembershipStep(NamedTuple):
    """One step of the Thm 2.3 proof: a random `input_kind` field times bump(1),
    made moment-orthogonal to `project` (before the weight, which the projection
    applies) unless that is None, is mapped by OPS[op] into the annihilator of `target`."""

    name: str
    anchor: str
    input_kind: FieldKind
    op: str
    target: MomentSpace
    project: MomentSpace | None = None

    case_name = property(attrgetter("name"))

    def sample(self, degree: int, seed: int, index: int) -> TypedField:
        psi = random_field(self.input_kind, degree, derived_rng(seed, "membership", self.name, index))
        return psi.mul_scalar_poly(bump(1)) if self.project is None else project_moment_orthogonal(psi, self.project)

    def holds(self, f: TypedField) -> bool:
        return moment_orthogonal(OPS[self.op](f), self.target) is None

    def witness(self, f: TypedField) -> str:
        """The field, then `image:` and its image, then the pairing and the basis field it pairs with."""
        try:
            image = OPS[self.op](f)
            basis, value = moment_orthogonal(image, self.target)
        except KindError as err:  # the image broke a kind predicate: there is no pairing to print
            return f"{field_to_text(f)}\n{err}"
        pairing = f"pairing = {value} with:\n{field_to_text(basis)}"
        return f"{field_to_text(f)}\nimage:\n{field_to_text(image)}\n{pairing}"

    def verify(self, cfg: SuiteConfig, memo: dict) -> CheckResult:
        draw = functools.partial(self.sample, cfg.degree, cfg.seed)
        return run_check(self.case_name, self.anchor, cfg.samples, draw, self.holds, self.witness)


_MEMBERSHIP_STEPS = (
    MembershipStep("div of bumped trace-free field ⊥ RT", "Thm 2.3 proof (τ : id vanishes)", _T, "div", RT_SPACE),
    MembershipStep("div of bumped symmetric field ⊥ ND", "Thm 2.3 proof (symmetry)", _S, "div", ND_SPACE),
    MembershipStep("div of bumped ND-orthogonal vector ⊥ P1", "Thm 2.3 proof (grad p ∈ ND)", _V, "div", P1_SPACE,
                   ND_SPACE),
    MembershipStep("curl of bumped RT-orthogonal vector ⊥ ND", "Thm 2.3 proof (curl r = 2b)", _V, "curl", ND_SPACE,
                   RT_SPACE),
    MembershipStep("grad of bumped mean-zero scalar ⊥ RT", "Thm 2.3 proof (zero mean)", _R, "grad", RT_SPACE,
                   CONSTANTS_SCALAR),
)


# -- closed forms ---------------------------------------------------------


def _unit_ball_volume() -> PiScalar:
    return integrate_ball(P_ONE)


def _x1_squared_integral() -> PiScalar:
    return integrate_ball(Poly3.monomial((2, 0, 0)))


def _p1_detects_a_constant() -> bool:
    """The negative control: a constant field is not orthogonal to P1, a space that contains it."""
    found = moment_orthogonal(TypedField.scalar(P_ONE), P1_SPACE)
    return found is not None and not found[1].is_zero


def _undetected(detected: bool) -> str:
    return "orthogonality unexpectedly held"


# `eq`, not `PiScalar.__eq__`: a value of any other type compares unequal, where the method's NotImplemented is true.
_QUADRATURE = "quadrature closed form"
_INTEGRALS = (
    ClosedForm("unit ball volume = 4/3*pi", _QUADRATURE, _unit_ball_volume,
               functools.partial(eq, PiScalar(Fraction(4, 3)))),
    ClosedForm("integral of x1^2 = 4/15*pi", _QUADRATURE, _x1_squared_integral,
               functools.partial(eq, PiScalar(Fraction(4, 15)))),
)
_NEGATIVE_CONTROL = ClosedForm("negative control: constant vs P1 detected", "Thm 2.3 proof", _p1_detects_a_constant,
                               bool, _undetected)


def pairing_rows() -> list:
    """The pairings suite: the two ball integrals, the pairing identities, the membership steps, the control."""
    return [*_INTEGRALS, *_PAIRINGS.values(), *_MEMBERSHIP_STEPS, _NEGATIVE_CONTROL]


def verify_membership_steps(samples: int, degree: int, seed: int) -> list[CheckResult]:
    """Moment-membership steps: images of bump-weighted fields land in the
    annihilators of the expected test spaces, exactly; then the negative control."""
    cfg = SuiteConfig(seed=seed, degree=degree, samples=samples)
    return [row.verify(cfg, {}) for row in (*_MEMBERSHIP_STEPS, _NEGATIVE_CONTROL)]
