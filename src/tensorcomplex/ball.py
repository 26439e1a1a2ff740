"""Exact integration over the unit ball, L2 pairings, moment spaces.

The domain is the open unit ball: star-shaped about the origin (so the
degree-raising homotopy operators apply), with every monomial integral a
rational multiple of pi.  Compact support is modeled by bump weights
(1 - |x|^2)^k, which vanish to order k on the boundary sphere and keep all
integration-by-parts boundary terms exactly zero.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

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
from .operators import CheckResult, OPS, curl, derived_rng, div, grad, random_field, run_check
from .poly import MAX_EXPONENT, P_ONE, Poly3, check_product, monomial_code
from .rational import PiScalar, RatMatrix


@functools.cache
def _moments(half: int) -> tuple[int, dict[int, int]]:
    """Integer ball moments for exponent sums up to 2*half, as (scale, table).

    For even a, b, c with S = a + b + c the closed form is
        integral over the unit ball of x1^a x2^b x3^c
            = 4*pi (a-1)!! (b-1)!! (c-1)!! / (S+3)!!
    (the unit-sphere moment divided by S + 3).  The table stores that
    coefficient of pi times scale = (2*half + 3)!!, an integer because
    (S+3)!! divides it, keyed by `monomial_code`, so the key of a product
    monomial is the sum of the codes of its factors.  Monomials with an odd
    exponent integrate to zero and are absent, as are those with an exponent
    past MAX_EXPONENT, which no code names.  The cached table is shared:
    callers must not mutate it.
    """
    top = 2 * half
    scale = _odd_factorial(top + 3)
    table = {}
    for a in range(0, min(top, MAX_EXPONENT) + 1, 2):
        for b in range(0, min(top - a, MAX_EXPONENT) + 1, 2):
            for c in range(0, min(top - a - b, MAX_EXPONENT) + 1, 2):
                moment = 4 * _odd_factorial(a - 1) * _odd_factorial(b - 1) * _odd_factorial(c - 1)
                table[monomial_code((a, b, c))] = moment * (scale // _odd_factorial(a + b + c + 3))
    return scale, table


def _odd_factorial(n: int) -> int:
    """n!! for odd n >= -1."""
    return math.prod(range(n, 0, -2))


def _common_denominator(polys) -> int:
    return math.lcm(*(p.denominator for p in polys))


def _pair_integral(pairs: list[tuple[Poly3, Poly3]]) -> PiScalar:
    """Integral over the unit ball of sum p*q over the pairs, from the term pairs.

    The product polynomials are never formed.  Only terms in the same parity
    class (`Poly3.parity_classes`) are paired, because any other pair has an
    odd exponent and integrates to zero; the moment of a pair is read at the
    sum of the two monomial codes.  So no exponent of a product may pass
    MAX_EXPONENT (ExponentLimitError, as for `Poly3.__mul__`); total degree
    is not limited.  Each pair's integer sum is scaled once to the common
    denominators of the left and right sides.  The sum runs in Python ints;
    one Fraction is built at the end.
    """
    pairs = [(p, q) for p, q in pairs if not (p.is_zero or q.is_zero)]
    if not pairs:
        return PiScalar(Fraction(0))
    den_left = _common_denominator(p for p, _ in pairs)
    den_right = _common_denominator(q for _, q in pairs)
    top = max(p.degree() + q.degree() for p, q in pairs)
    if top > MAX_EXPONENT:  # a code sum must not carry from one exponent into the next
        for p, q in pairs:
            check_product(p, q)
    scale, table = _moments(top // 2)  # an even-exponent product has an even degree
    total = 0
    for p, q in pairs:
        left = p.parity_classes()
        pair_total = 0
        for parity, right in q.parity_classes().items():
            for code, num in left.get(parity, ()):
                pair_total += num * sum(n * table[code + k] for k, n in right)
        total += pair_total * (den_left // p.denominator * (den_right // q.denominator))
    return PiScalar(Fraction(total, den_left * den_right * scale))


def integrate_ball(p: Poly3) -> PiScalar:
    return _pair_integral([(p, P_ONE)])


def l2_pair(a: TypedField, b: TypedField) -> PiScalar:
    """Integral over the unit ball of the pointwise product (uv, u.v or u:v)."""
    return _pair_integral(pairing_components(a, b))


def bump(k: int) -> Poly3:
    """(1 - |x|^2)^k; k = 0 is the constant 1."""
    if k < 0:
        raise ValueError("bump order must be >= 0")
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


@dataclass(frozen=True)
class MomentSpace:
    """A finite-dimensional test space with an explicit polynomial basis."""

    name: str
    kind: FieldKind
    basis: tuple[TypedField, ...]

    @functools.cached_property
    def weighted_gram(self) -> tuple[list[TypedField], list[dict[int, Fraction]]]:
        """Each basis field b_i times bump(1), and Gram row i, {j: (b_j bump(1), b_i)}; built once."""
        weighted = [b.mul_scalar_poly(bump(1)) for b in self.basis]
        return weighted, [{j: l2_pair(wb, b).coeff for j, wb in enumerate(weighted)} for b in self.basis]


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


def moment_orthogonal(f: TypedField, space: MomentSpace) -> tuple[bool, TypedField | None, PiScalar | None]:
    """True iff (f, b) = 0 exactly for every basis element of the space.

    On failure, returns the offending basis element and the nonzero pairing.
    """
    if f.kind is not space.kind:
        raise KindError(f"{space.name} tests {space.kind.value} fields, got {f.kind.value}")
    for b in space.basis:
        v = l2_pair(f, b)
        if not v.is_zero:
            return False, b, v
    return True, None, None


def project_moment_orthogonal(f: TypedField, space: MomentSpace) -> TypedField:
    """Subtract a bump-weighted combination of basis fields to kill all moments.

    Returns f - sum_i c_i * bump(1) * b_i, so the result is orthogonal to the
    whole space.  The c_i solve the exact Gram system G c = r; G is
    invertible for a basis, so (c, 1) is the one kernel vector of [G | -r].
    """
    weighted, gram = space.weighted_gram
    n = len(weighted)
    system = RatMatrix(n + 1, [row | {n: -l2_pair(f, b).coeff} for row, b in zip(gram, space.basis)])
    kernel = system.nullspace()
    if len(kernel) != 1 or kernel[0].get(n) != 1:
        raise ValueError(f"the Gram matrix of {space.name} is singular")
    out = f
    for j, c in kernel[0].items():
        if j != n:
            out = out - weighted[j].scale(c)
    return out


# -- pairing identities --------------------------------------------------
#
# Each entry verifies one extension identity: with phi a bump-weighted test
# field, the pairing of `field` against op(phi) equals the stated multiple of
# the pairing of adj_op(field) against phi.  Requirements on the bump order
# guarantee the boundary terms vanish identically.

_PAIRINGS: dict[str, dict] = {
    "q-grad": dict(
        field_kind=FieldKind.VECTOR,
        test_kind=FieldKind.SCALAR,
        op="grad",
        adj="div",
        factor=Fraction(-1),
        min_bump=1,
        anchor="Sec. 6 extension lemma (q∘grad)",
    ),
    "sigma-deff": dict(
        field_kind=FieldKind.SYMMETRIC,
        test_kind=FieldKind.VECTOR,
        op="deff",
        adj="div",
        factor=Fraction(-1),
        min_bump=1,
        anchor="Sec. 6 extension lemma (σ∘deff)",
    ),
    "sigma-hess": dict(
        field_kind=FieldKind.SYMMETRIC,
        test_kind=FieldKind.SCALAR,
        op="hess",
        adj="div_div",
        factor=Fraction(1),
        min_bump=2,
        anchor="Sec. 6 extension lemma (σ∘hess)",
    ),
    "g-sym-curl": dict(
        field_kind=FieldKind.SYMMETRIC,
        test_kind=FieldKind.TRACEFREE,
        op="sym_curl",
        adj="curl",
        factor=Fraction(1),
        min_bump=1,
        anchor="Sec. 6 extension lemma (g∘sym curl)",
    ),
    "g-inc": dict(
        field_kind=FieldKind.SYMMETRIC,
        test_kind=FieldKind.SYMMETRIC,
        op="inc",
        adj="inc",
        factor=Fraction(1),
        min_bump=2,
        anchor="Sec. 6 extension lemma (g∘inc)",
    ),
    "tau-curl": dict(
        field_kind=FieldKind.TRACEFREE,
        test_kind=FieldKind.SYMMETRIC,
        op="curl",
        adj="sym_curl",
        factor=Fraction(1),
        min_bump=1,
        anchor="Sec. 6 extension lemma (τ∘curl)",
    ),
    "tau-dev-grad": dict(
        field_kind=FieldKind.TRACEFREE,
        test_kind=FieldKind.VECTOR,
        op="dev_grad",
        adj="div",
        factor=Fraction(-1),
        min_bump=1,
        anchor="Sec. 6 extension lemma (τ∘dev grad)",
    ),
    "tau-curl-deff": dict(
        # Adjoint chain: curl div T tau = div T curl tau (identity eq2),
        # then one div adjoint (a minus) and the eq3/eq5 trades give
        # (tau ∘ curl deff)(u) = -1/2 (curl div T tau)(u).
        field_kind=FieldKind.TRACEFREE,
        test_kind=FieldKind.VECTOR,
        op="curl_deff",
        adj="curl_div_t",
        factor=Fraction(-1, 2),
        min_bump=2,
        anchor="Sec. 6 extension lemma (τ∘curl deff)",
    ),
}

PAIRING_NAMES = tuple(_PAIRINGS)


def verify_ibp(which: str, samples: int, degree: int, bump_order: int, seed: int) -> CheckResult:
    """Both sides of the named pairing agree as exact pi-multiples."""
    spec = _PAIRINGS[which]
    if bump_order < spec["min_bump"]:
        raise ValueError(
            f"{which} needs bump order >= {spec['min_bump']} for boundary terms to vanish"
        )
    w = bump(bump_order)
    op = OPS[spec["op"]]
    adj = OPS[spec["adj"]]
    factor: Fraction = spec["factor"]

    def draw(s: int) -> tuple[TypedField, TypedField]:
        rng = derived_rng(seed, "ibp", which, s)
        f = random_field(spec["field_kind"], degree, rng)
        return f, random_field(spec["test_kind"], degree, rng).mul_scalar_poly(w)

    def holds(sample: tuple[TypedField, TypedField]) -> bool:
        f, phi = sample
        return (l2_pair(f, op(phi)) - l2_pair(adj(f), phi) * factor).is_zero

    return run_check(which, spec["anchor"], samples, draw, holds, lambda sample: field_to_text(sample[0]))


def verify_all_ibp(samples: int, degree: int, bump_order: int, seed: int) -> list[CheckResult]:
    return [verify_ibp(name, samples, degree, bump_order, seed) for name in _PAIRINGS]


def verify_membership_steps(samples: int, degree: int, seed: int) -> list[CheckResult]:
    """Moment-membership steps: images of bump-weighted fields land in the
    annihilators of the expected test spaces, exactly."""

    def run(name: str, anchor: str, produce, space: MomentSpace) -> CheckResult:
        return run_check(
            name,
            anchor,
            samples,
            lambda s: moment_orthogonal(produce(derived_rng(seed, "membership", name, s)), space),
            lambda outcome: outcome[0],
            lambda outcome: f"pairing with {field_to_text(outcome[1])} = {outcome[2]}",
        )

    w1 = bump(1)

    return [
        run(
            "div of bumped trace-free field ⊥ RT",
            "Thm 2.3 proof (τ : id vanishes)",
            lambda rng: div(random_field(FieldKind.MATRIX, degree, rng).dev().mul_scalar_poly(w1)),
            RT_SPACE,
        ),
        run(
            "div of bumped symmetric field ⊥ ND",
            "Thm 2.3 proof (symmetry)",
            lambda rng: div(random_field(FieldKind.MATRIX, degree, rng).sym().mul_scalar_poly(w1)),
            ND_SPACE,
        ),
        run(
            "div of bumped ND-orthogonal vector ⊥ P1",
            "Thm 2.3 proof (grad p ∈ ND)",
            lambda rng: div(
                project_moment_orthogonal(
                    random_field(FieldKind.VECTOR, degree, rng).mul_scalar_poly(w1), ND_SPACE
                )
            ),
            P1_SPACE,
        ),
        run(
            "curl of bumped RT-orthogonal vector ⊥ ND",
            "Thm 2.3 proof (curl r = 2b)",
            lambda rng: curl(
                project_moment_orthogonal(
                    random_field(FieldKind.VECTOR, degree, rng).mul_scalar_poly(w1), RT_SPACE
                )
            ),
            ND_SPACE,
        ),
        run(
            "grad of bumped mean-zero scalar ⊥ RT",
            "Thm 2.3 proof (zero mean)",
            lambda rng: grad(
                project_moment_orthogonal(
                    random_field(FieldKind.SCALAR, degree, rng).mul_scalar_poly(w1), CONSTANTS_SCALAR
                )
            ),
            RT_SPACE,
        ),
        # negative control: a constant field is not orthogonal to a space containing it
        run_check(
            "negative control: constant vs P1 detected",
            "Thm 2.3 proof",
            1,
            lambda s: moment_orthogonal(TypedField.scalar(P_ONE), P1_SPACE),
            lambda outcome: not outcome[0] and not outcome[2].is_zero,
            lambda outcome: "orthogonality unexpectedly held",
        ),
    ]
