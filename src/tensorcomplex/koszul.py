"""Degree-raising homotopy operators and the right-inverse constructions.

On a homogeneous degree-k component, with x the coordinate field:

    tg(v) = (v . x) / (k + 1)      potential for grad
    tc(q) = (q x x) / (k + 2)      potential for curl
    td(u) = (x u)   / (k + 3)      potential for div

Each, and each row map, is one `Poly3.shift_rows` call on a table of x_i
shifts, one pass over the input terms: each input component is scaled once
by 1/(k+c) per degree k, c = 1, 2, 3, then shifted into each output it feeds.
They satisfy the four identities of HOMOTOPY exactly and unconditionally on
polynomials, so tg / tc / td are right inverses of grad / curl / div on
curl-free / divergence-free / arbitrary inputs respectively.

Every matrix-space right inverse is a chain of these: a `RightInverseSpec` row
of RIGHT_INVERSES, with the diagram operator it inverts.  A chain is a word,
read right to left by `apply_word`; a `WordSum` letter sums words over one
field, and a chain that splits a field or reuses one is a function, the one
letter of its row's word.  A row's `holds` checks its defining identity, that
operator applied to the output gives the input back, and its `verify` runs
that check on sampled inputs; `right_inverse_rows` is the suite.
Compact-support or boundary-condition semantics are not modeled;
moment-orthogonality preconditions are optional ("strict" mode) because the
homogeneous operators do not need them.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache, partial
from math import comb, lcm
from typing import NamedTuple

from .ball import MomentSpace, ND_SPACE, P1_SPACE, RT_SPACE, moment_orthogonal
from .fields import (
    _COMPONENT_COUNT, DIAGONAL, MATRIX_KINDS, OFF_DIAGONAL, X_FIELD, FieldKind, KindError, TypedField, field_to_text, vskw
)
from .operators import (
    BasisKindError, CheckResult, ClosedForm, Identity, OPS, ORDER, OperatorId, PreconditionError, SuiteConfig,
    components_equal, curl, deff, derived_rng, div, draw_ints, inc, random_field, run_check,
)
from .poly import P_ONE, P_ZERO, Poly3, monomials_up_to
from .rational import RatMatrix


# -- the three homotopy operators -----------------------------------------


_S, _T, _V, _W = FieldKind.SYMMETRIC, FieldKind.TRACEFREE, FieldKind.VECTOR, FieldKind.SCALAR
# Per output component, the (sign, input component, i) triples of its x_i shifts: v . x, q x x and x u.
_TG = (((1, 0, 1), (1, 1, 2), (1, 2, 3)),)
_TC = (((1, 1, 3), (-1, 2, 2)), ((1, 2, 1), (-1, 0, 3)), ((1, 0, 2), (-1, 1, 1)))
_TD = (((1, 0, 1),), ((1, 0, 2),), ((1, 0, 3),))


def _each_row(rows: tuple, width: int) -> tuple:
    """The rows applied to each of three consecutive runs of `width` input components, run by run."""
    return tuple(tuple((sign, c + width * r, i) for sign, c, i in row) for r in range(3) for row in rows)


# Each map as one `Poly3.shift_rows` table: (input kinds, offset c of 1/(k+c), output kind, rows).
_SHIFTS = {
    "tg": ((_V,), 1, _W, _TG),
    "tc": ((_V,), 2, _V, _TC),
    "td": ((_W,), 3, _V, _TD),
    "tg_rows": (MATRIX_KINDS, 1, _V, _each_row(_TG, 3)),
    "tc_rows": (MATRIX_KINDS, 2, FieldKind.MATRIX, _each_row(_TC, 3)),
    "td_component_rows": ((_V,), 3, FieldKind.MATRIX, _each_row(_TD, 1)),
}


def _shift(name: str, f: TypedField) -> TypedField:
    kinds, offset, kind, rows = _SHIFTS[name]
    if f.kind not in kinds:
        raise KindError(f"{name} needs a {kinds[0].value} field")
    return TypedField(kind, Poly3.shift_rows(f.components, rows, offset))


def tg(v: TypedField) -> TypedField:
    """Scalar potential of a vector field: per degree k, (v . x)/(k+1)."""
    return _shift("tg", v)


def tc(q: TypedField) -> TypedField:
    """Vector potential of a divergence-free field: per degree k, (q x x)/(k+2)."""
    return _shift("tc", q)


def td(u: TypedField) -> TypedField:
    """Vector potential of a scalar field: per degree k, (x u)/(k+3)."""
    return _shift("td", u)


def tg_rows(m: TypedField) -> TypedField:
    """tg of each row of a matrix field; grad of the result is m when every row is curl-free."""
    return _shift("tg_rows", m)


def tc_rows(m: TypedField) -> TypedField:
    """tc of each row; row-wise curl of the result is m when every row is divergence-free."""
    return _shift("tc_rows", m)


def td_component_rows(v: TypedField) -> TypedField:
    """Matrix whose row i is td(v_i); its row-wise divergence is v."""
    return _shift("td_component_rows", v)


class WordSum(tuple):
    """Words applied to one field by `apply_word` and summed: a side of a HOMOTOPY row, or a chain letter."""

    def apply(self, f: TypedField) -> TypedField:
        first, *rest = (apply_word(word, f) for word in self)
        return sum(rest, first)

    __call__ = apply


def _minus_value_at_0(w: TypedField) -> TypedField:
    return TypedField.scalar(w.comp(1) - Poly3.const(w.comp(1).constant_term()))


# The four exact homotopy identities, as `Identity` rows whose two sides are sums of words.
HOMOTOPY: dict[str, Identity] = {
    name: Identity(name, "Eq. (17) realization", kind, tuple(map(WordSum, sides)), ("homotopy", name))
    for name, kind, sides in [
        ("tg(grad w) = w - w(0)", FieldKind.SCALAR, ((("tg", "grad"),), ((_minus_value_at_0,),))),
        ("grad(tg v) + tc(curl v) = v", FieldKind.VECTOR, ((("grad", "tg"), ("tc", "curl")), ((),))),
        ("curl(tc q) + td(div q) = q", FieldKind.VECTOR, ((("curl", "tc"), ("td", "div")), ((),))),
        ("div(td u) = u", FieldKind.SCALAR, ((("div", "td"),), ((),))),
    ]
}


def homotopy_check(samples: int, degree: int, seed: int) -> list[CheckResult]:
    """The four exact homotopy identities on random fields."""
    return [row.verify(SuiteConfig(seed=seed, degree=degree, samples=samples), {}) for row in HOMOTOPY.values()]


# -- kernel sampling --------------------------------------------------------


@cache
def _slots(kind: FieldKind) -> tuple[dict[int, int], ...]:
    """The free slots of the kind, in basis order, each a {component: sign} map."""
    if kind is FieldKind.SYMMETRIC:  # the upper triangle, row by row
        return tuple(sorted([{k: 1} for k in DIAGONAL] + [{k: 1, t: 1} for k, t in OFF_DIAGONAL], key=min))
    if kind is FieldKind.SKEW:
        return tuple({k: 1, t: -1} for k, t in OFF_DIAGONAL)
    if kind is FieldKind.TRACEFREE:  # off-diagonal entries plus two traceless diagonal modes
        d0, d1, d2 = DIAGONAL
        return tuple([{k: 1} for k in range(9) if k not in DIAGONAL] + [{d0: 1, d2: -1}, {d1: 1, d2: -1}])
    return tuple({k: 1} for k in range(_COMPONENT_COUNT[kind]))


@cache
def kind_basis(kind: FieldKind, degree: int) -> tuple[TypedField, ...]:
    """Monomial basis of the kind-constrained polynomial space of degree <= degree,
    built once per (kind, degree) as a tuple that no caller can change: slot by
    slot, each monomial p gives the field with sign * p on the slot's components."""
    n = _COMPONENT_COUNT[kind]
    return tuple(
        TypedField(kind, tuple(Poly3.monomial(m, slot[k]) if k in slot else P_ZERO for k in range(n)))
        for slot in _slots(kind)
        for m in monomials_up_to(degree)
    )


@cache
def _symbol(name: str, kind: FieldKind) -> tuple[dict, ...]:
    """Per slot s of the kind, {alpha: nonzero (component, coefficient) pairs of the
    constant image of x^alpha e_s} over |alpha| = r = ORDER[name], from one probe
    x^beta e_s, beta = (r, r, r), whose image at x^(beta - alpha) is binom(beta, alpha) times that."""
    r = ORDER[name]
    wrong = ValueError(f"ORDER[{name!r}] = {r} is not the order of {name} on {kind.value} fields")
    out, x_beta = [], Poly3.monomial((r, r, r))
    for e_s in kind_basis(kind, 0):  # the constant field of slot s
        probe = TypedField(kind, tuple(p if p.is_zero else p * x_beta for p in e_s.components))
        try:
            image = OPS[name](probe)
        except KindError as err:
            raise BasisKindError(f"{name}: {err}", field_to_text(probe)) from err
        symbol = {}
        for ci, p in enumerate(image.components):
            for m, c in p.coefficients().items():
                x, y, z = alpha = tuple(r - e for e in m)
                if x + y + z != r:  # a part of another order
                    raise wrong
                symbol.setdefault(alpha, []).append((ci, c / (comb(r, x) * comb(r, y) * comb(r, z))))
        out.append(symbol)
    if not any(out):
        raise wrong
    return tuple(out)


class KernelBasis(NamedTuple):
    """A kernel basis of `size` fields of `kind`, degree <= `degree`, as one table:
    per component, flat (monomial index, basis index, numerator over `denom`)
    triples of the nonzero entries of every basis field."""

    kind: FieldKind
    degree: int
    size: int
    denom: int
    table: tuple[tuple[int, ...], ...]

    def combine(self, weights) -> TypedField:
        """Sum of weights[b] * (basis field b) over the int weights, one row per component."""
        comps = []
        for entries in self.table:
            row = [0] * len(monomials_up_to(self.degree))
            it = iter(entries)
            for i, b, n in zip(it, it, it):
                row[i] += weights[b] * n
            comps.append(Poly3.from_row(self.degree, row, self.denom))
        return TypedField(self.kind, tuple(comps))


@cache
def kernel_basis(op_names: tuple[str, ...], kind: FieldKind, degree: int) -> KernelBasis:
    """Exact basis of the joint kernel of the named operators on the
    kind-constrained degree-bounded space, built once per (op_names, kind,
    degree) as one immutable table.  The cache, like `_symbol`'s, is keyed by
    operator name (so op_names is a tuple): empty both when an operator changes.

    x^m e maps to the sum over alpha of binom(m, alpha) x^(m - alpha) times the
    constant image of x^alpha e, read off by `_symbol` and scaled to ints per
    operator: one column per `kind_basis` field, one row per reached (operator,
    image component, monomial), one basis field per sparse nullspace vector,
    built only by `combine`.  ValueError if ORDER is wrong; BasisKindError,
    with the probe as witness, if its image breaks its kind."""
    slots, monomials = _slots(kind), monomials_up_to(degree)
    symbols = {}
    for name in op_names:
        symbol = _symbol(name, kind)
        scale = lcm(*(c.denominator for pairs in symbol for e in pairs.values() for _, c in e))
        symbols[name] = [[(alpha, [(ci, int(c * scale)) for ci, c in e]) for alpha, e in pairs.items()]
                         for pairs in symbol]
    rows = {}
    for s in range(len(slots)):
        for j, (a, b, c) in enumerate(monomials, s * len(monomials)):
            for name in op_names:
                for (x, y, z), entries in symbols[name][s]:
                    if factor := comb(a, x) * comb(b, y) * comb(c, z):  # zero unless alpha <= m
                        for ci, coeff in entries:
                            rows.setdefault((name, ci, (a - x, b - y, c - z)), {})[j] = factor * coeff
    vectors = RatMatrix(len(slots) * len(monomials), rows.values()).nullspace()
    den = lcm(*(w.denominator for v in vectors for w in v.values()))
    table = [[] for _ in range(_COMPONENT_COUNT[kind])]
    for b, v in enumerate(vectors):
        for j, w in v.items():
            s, i = divmod(j, len(monomials))
            n = w.numerator * (den // w.denominator)
            for k, sign in slots[s].items():
                table[k] += i, b, sign * n
    return KernelBasis(kind, degree, len(vectors), den, tuple(map(tuple, table)))


def sample_kernel(op_names: tuple[str, ...], kind: FieldKind, degree: int, seed: int, index: int = 0) -> TypedField:
    """A random exact kernel element: the basis combined with integer weights in
    [-9, 9], drawn again while all are zero."""
    kernel = kernel_basis(op_names, kind, degree)
    if not kernel.size:
        raise ValueError(f"kernel is trivial at this degree: {op_names} on {kind.value}")
    rng = derived_rng(seed, "kernel", *op_names, kind.value, degree, index)
    weights = draw_ints(rng, kernel.size)
    while not any(weights):  # the basis is independent, so only all-zero weights give zero
        weights = draw_ints(rng, kernel.size)
    return kernel.combine(weights)


# -- right-inverse chains -----------------------------------------------------


def _check_zero(f: TypedField, what: str):
    """A step of a chain that its lemma makes zero on every valid input: a
    nonzero value means a broken operator, not a bad input, so it raises the
    KindError that a check records as a fail of the input it drew."""
    if not f.is_zero:
        raise KindError(f"{what} is nonzero")


class _Zero(NamedTuple):
    """A chain letter: `_check_zero` of OPS[op] of its input, which it passes on."""

    op: str
    what: str

    def __call__(self, f: TypedField) -> TypedField:
        _check_zero(OPS[self.op](f), f"{self.what} inside the chain")
        return f


# The degree-raising letters of a chain.  They are not constant-coefficient,
# so they stay out of OPS, where ORDER and `_symbol` would see them.
_RAISE = {"tg": tg, "tc": tc, "td": td, "tg_rows": tg_rows, "tc_rows": tc_rows, "td_component_rows": td_component_rows}


def apply_word(word: tuple, f: TypedField):
    """The word applied to f, right to left.  A str letter is a RIGHT_INVERSES
    name, which applies that row's word without its preconditions, a `_RAISE`
    key or an OPS key; any other callable letter, a zero check, a WordSum or a
    chain function, is called; a number scales."""
    for letter in reversed(word):
        if isinstance(letter, str):
            if letter in RIGHT_INVERSES:
                f = apply_word(RIGHT_INVERSES[letter].chain, f)
            else:
                f = _RAISE[letter](f) if letter in _RAISE else OPS[letter](f)
        else:
            f = letter(f) if callable(letter) else f.scale(letter)
    return f


def _rgc_tilde_dgc_tilde(tau: TypedField) -> tuple[TypedField, TypedField]:
    """(g, u) with tau = curl(g + deff u), for trace-free div-free tau."""
    gamma = tc_rows(tau)             # curl gamma = tau
    g = gamma.sym()
    v = vskw(gamma)
    _check_zero(div(v), "div vskw gamma (= tr tau / 2) inside the chain")
    u = tc(v).scale(-2)              # v = -1/2 curl u
    return g, u


def _dgc(tau: TypedField) -> TypedField:
    """Vector with curl deff of it = tau, for div tau = 0 and sym curl T tau = 0."""
    g, u = _rgc_tilde_dgc_tilde(tau)
    _check_zero(inc(g), "inc of the symmetric potential inside the chain")
    return apply_word(("Rgg_tilde",), g) + u


def _rgg(g: TypedField) -> TypedField:
    """Vector with deff of it = g, for symmetric g with inc g = 0."""
    u = apply_word(("Rgg_tilde",), g)  # curl(g - deff u) = 0
    v = tg_rows(g - deff(u))         # grad v = g - deff u
    _check_zero(curl(v), "curl of the gradient potential inside the chain")
    return u + v


def _rgcT(tau: TypedField) -> TypedField:
    """Vector q with (1/2) dev grad q = tau, for trace-free tau with sym curl tau = 0."""
    w = tg(OPS["div_t"](tau)).comp(1)  # grad w = div T tau
    half_w_id = TypedField.identity_scaled(w.scale(Fraction(1, 2)))
    q = tg_rows(tau + half_w_id).scale(2)  # tau + w/2 id = 1/2 grad q
    residual = div(q) - TypedField.scalar(w.scale(3))
    _check_zero(residual, "div q - 3w inside the chain")
    return q


def _rcc(sigma: TypedField) -> TypedField:
    """Trace-free field whose sym curl is sigma, for div div sigma = 0."""
    s1 = apply_word(("Rcc_tilde",), sigma)
    rho = tc_rows(sigma - OPS["sym_curl"](s1))  # curl rho = sigma - sym curl s1
    return s1 + rho.dev()


class RightInverseSpec(NamedTuple):
    """One right-inverse operator: its domain, preconditions, chain, and the
    diagram operator `op` it inverts.  Its defining identity is op(out) = input,
    with both sides taken through OPS[after] first when `after` is set."""

    name: str
    anchor: str
    input_kind: FieldKind
    kernel_ops: tuple[str, ...]             # exact kernel constraints on the input
    moment_space: MomentSpace | None        # enforced only in strict mode
    chain: tuple                            # the construction as a word, read right to left by apply_word
    output_kind: FieldKind
    op: OperatorId                          # the operator this chain inverts
    statement: str
    after: str | None = None                # an OPS key: the identity holds only after it
    part: int | None = None                 # the chain builds a pair (g, u); this operator gives piece `part`

    @property
    def case_name(self) -> str:
        return f"{self.name}: {self.statement}"

    def piece(self, out, index: int):
        """Piece `index` of the chain's output: the output itself, or, of a Lemma 3.11 pair (g, u), g, u or
        g + deff u.  The row's operator gives piece `part or 0`, and op inverts the last piece."""
        return out if self.part is None else out[index] if index < 2 else out[0] + deff(out[1])

    def construct(self, f: TypedField, strict_preconditions: bool = False):
        """The chain's full output on f, after its preconditions are verified exactly."""
        if f.kind is not self.input_kind:
            raise KindError(f"{self.name} needs a {self.input_kind.value} field, got {f.kind.value}")
        for op_name in self.kernel_ops:
            out = OPS[op_name](f)
            if not out.is_zero:
                raise PreconditionError(f"kernel constraint failed: {op_name}(input) is nonzero", field_to_text(out))
        space = self.moment_space
        if strict_preconditions and space is not None and (found := moment_orthogonal(f, space)):
            basis, pairing = found
            raise PreconditionError(f"moment precondition failed: pairing with {space.name} element is {pairing}",
                                    field_to_text(basis))
        return apply_word(self.chain, f)

    def outcome(self, f: TypedField, strict_preconditions: bool) -> tuple[list[FieldKind], bool]:
        """The kinds of the chain's parts on f, and whether op of the last part gives f back (after `after`)."""
        out = self.construct(f, strict_preconditions)
        parts = [self.piece(out, index) for index in range(1 if self.part is None else 3)]
        image, target = self.op.apply(parts[-1]), f
        if self.after is not None:
            image, target = OPS[self.after](image), OPS[self.after](target)
        return [p.kind for p in parts], components_equal(image, target)

    def holds(self, f: TypedField, strict_preconditions: bool = False, memo: dict | None = None) -> bool:
        """The output has its declared kind and satisfies the defining identity.  The rows of one pair, given
        one `memo` dict, build and check each input once: the record is keyed by the field and by the row's
        input kind, preconditions, chain, op and after, so a row reads only what its own check computes."""
        if memo is None or self.part is None:
            kinds, verdict = self.outcome(f, strict_preconditions)
        else:
            key = f, self.input_kind, self.kernel_ops, self.moment_space, self.chain, self.op, self.after
            if key not in memo:
                memo[key] = self.outcome(f, strict_preconditions)
            kinds, verdict = memo[key]
        return kinds[self.part or 0] is self.output_kind and verdict

    def sample(self, degree: int, seed: int, index: int) -> TypedField:
        """A genuine domain element: kernel-sampled when there are kernel constraints, otherwise a random field."""
        if self.kernel_ops:
            return sample_kernel(self.kernel_ops, self.input_kind, degree, seed, index)
        return random_field(self.input_kind, degree, derived_rng(seed, "ri-input", self.name, index))

    def verify(self, cfg: SuiteConfig, memo: dict) -> CheckResult:
        draw = partial(self.sample, cfg.degree, cfg.seed)
        return run_check(self.case_name, self.anchor, cfg.samples, draw,
                         partial(self.holds, strict_preconditions=cfg.strict_preconditions, memo=memo))


_THIRD, _HALF = Fraction(1, 3), Fraction(1, 2)

RIGHT_INVERSES: dict[str, RightInverseSpec] = {
    spec.name: spec
    for spec in [
        # curl eta = sigma, then curl gamma = S eta
        RightInverseSpec("Dcc", "Lemma 3.1", _S, ("div",), None,
                         ("sym", "tc_rows", _Zero("div", "div(S eta)"), "S", "tc_rows"), _S, OperatorId("inc"),
                         "inc(Dcc s) = s"),
        # grad q = T curl g, then q = 1/2 curl u
        RightInverseSpec("Rgg_tilde", "Lemma 3.2", _S, ("inc",), None,
                         (2, "tc", _Zero("div", "div q (= tr T curl g)"), "tg_rows", "t_curl"), _V,
                         OperatorId("deff"), "curl deff(R~gg g) = curl g", after="curl"),
        # grad u = g, then grad (tg u) = u
        RightInverseSpec("Dgg", "Lemma 3.3", _S, ("curl",), None, ("tg", _Zero("curl", "curl u"), "tg_rows"), _W,
                         OperatorId("hess"), "hess(Dgg g) = g"),
        # div q = w, then div tau = q
        RightInverseSpec("Ddd", "Lemma 3.5", _W, (), P1_SPACE, ("sym", "td_component_rows", "td"), _S,
                         OperatorId("div_div"), "div div(Ddd w) = w"),
        # curl u = div sigma, then div tau = 2u
        RightInverseSpec("Rcc_tilde", "Lemma 3.6", _S, ("div_div",), None,
                         ("t", "dev", "td_component_rows", 2, "tc", "div"), _T, OperatorId("sym_curl"),
                         "div sym curl(R~cc s) = div s", after="div"),
        # curl u = v, then div tau = u
        RightInverseSpec("Dcd", "Lemma 3.9", _V, ("div",), ND_SPACE, ("dev", "td_component_rows", "tc"), _T,
                         OperatorId("curl_div"), "curl div(Dcd v) = v"),
        # the two halves of one construction and their sum, each checked through curl of g + deff u
        RightInverseSpec("Rgc_tilde", "Lemma 3.11", _T, ("div",), None, (_rgc_tilde_dgc_tilde,), _S,
                         OperatorId("curl"), "tau = curl(R~gc tau + deff D~gc tau)", part=0),
        RightInverseSpec("Dgc_tilde", "Lemma 3.11", _T, ("div",), None, (_rgc_tilde_dgc_tilde,), _V,
                         OperatorId("curl"), "tau = curl(R~gc tau + deff D~gc tau)", part=1),
        RightInverseSpec("Rgc", "Lemma 3.12", _T, ("div",), None, (_rgc_tilde_dgc_tilde,), _S, OperatorId("curl"),
                         "curl(Rgc tau) = tau", part=2),
        RightInverseSpec("Dgc", "Lemma 3.13", _T, ("div", "sym_curl_t"), None, (_dgc,), _V, OperatorId("curl_deff"),
                         "curl deff(Dgc tau) = tau"),
        # grad w = v, then div q = 3w
        RightInverseSpec("Dgd", "Lemma 3.14", _V, ("curl",), RT_SPACE, ("td", 3, "tg"), _V,
                         OperatorId("grad_div", _THIRD), "(1/3) grad div(Dgd v) = v"),
        RightInverseSpec("Rgg", "Lemma 3.15", _S, ("inc",), None, (_rgg,), _V, OperatorId("deff"), "deff(Rgg g) = g"),
        # div tau = v, then div q = tr tau
        RightInverseSpec("Rgd", "Lemma 3.16", _V, (), RT_SPACE,
                         (WordSum((("dev",), (_HALF, "t_dev_grad", "td", "tr"))), "td_component_rows"), _T,
                         OperatorId("div"), "div(Rgd v) = v"),
        RightInverseSpec("RgcT", "Lemma 3.17", _T, ("sym_curl",), None, (_rgcT,), _V, OperatorId("dev_grad", _HALF),
                         "(1/2) dev grad(RgcT tau) = tau"),
        RightInverseSpec("Rcc", "Lemma 3.18", _S, ("div_div",), None, (_rcc,), _T, OperatorId("sym_curl"),
                         "sym curl(Rcc s) = s"),
        # div gamma = q, then div tau = -2 vskw gamma
        RightInverseSpec("Rcd", "Lemma 3.19", _V, (), ND_SPACE,
                         (WordSum((("sym",), ("sym_curl_t", "dev", "td_component_rows", -2, "vskw"))),
                          "td_component_rows"), _S, OperatorId("div"), "div(Rcd q) = q"),
        RightInverseSpec("Rg", "Lemma 3.20", _V, ("curl",), RT_SPACE, (3, "tg"), _W, OperatorId("grad", _THIRD),
                         "(1/3) grad(Rg v) = v"),
        RightInverseSpec("Rc_plain", "Lemma 3.20", _V, ("div",), ND_SPACE, (2, "tc"), _V, OperatorId("curl", _HALF),
                         "(1/2) curl(Rc q) = q"),
        RightInverseSpec("Rd_plain", "Lemma 3.20", _W, (), P1_SPACE, ("td",), _V, OperatorId("div"), "div(Rd w) = w"),
    ]
}


def right_inverse(name: str, f: TypedField, strict_preconditions: bool = False) -> TypedField:
    """Run the named chain after verifying its preconditions exactly."""
    spec = RIGHT_INVERSES[name]
    return spec.piece(spec.construct(f, strict_preconditions), spec.part or 0)


def verify_right_inverse(name: str, samples: int, degree: int, seed: int,
                         strict_preconditions: bool = False) -> CheckResult:
    cfg = SuiteConfig(seed=seed, degree=degree, samples=samples, strict_preconditions=strict_preconditions)
    return RIGHT_INVERSES[name].verify(cfg, {})


def _ddd_of_one() -> TypedField:
    return right_inverse("Ddd", TypedField.scalar(P_ONE))


def _is_x_xt_over_12(out: TypedField) -> bool:
    """out is x x^T / 12, and its double divergence is 1."""
    x = X_FIELD.components
    expected = TypedField(FieldKind.SYMMETRIC, tuple((a * b).scale(Fraction(1, 12)) for a in x for b in x))
    return components_equal(out, expected) and components_equal(OPS["div_div"](out), TypedField.scalar(P_ONE))


_DDD_OF_ONE = ClosedForm("Ddd(1) = x x^T / 12, div div = 1", "Lemma 3.5", _ddd_of_one, _is_x_xt_over_12, field_to_text)


def right_inverse_rows() -> list:
    """The homotopy identities, every row of RIGHT_INVERSES, then the closed form of Ddd(1)."""
    return [*HOMOTOPY.values(), *RIGHT_INVERSES.values(), _DDD_OF_ONE]
