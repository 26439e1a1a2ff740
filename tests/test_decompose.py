import codecs
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import tensorcomplex.decompose as decompose_module
from tensorcomplex.decompose import (
    _DECOMPOSERS,
    DECOMPOSITION_NAMES,
    decompose,
    regdec_cc,
    regdec_dd,
    regdec_short,
    verify_decomposition,
)
from tensorcomplex.cli import main
from tensorcomplex.fields import FieldKind, KindError, TypedField, X_FIELD, field_from_text, field_to_text
from tensorcomplex.koszul import RIGHT_INVERSES, _RAISE, WordSum, _Zero, apply_word, tc, td
from tensorcomplex.operators import (
    OPS,
    ORDER,
    OperatorId,
    components_equal,
    curl,
    deff,
    div,
    grad,
    derived_rng,
    hess,
    random_field,
)
from tensorcomplex.poly import P_ZERO, Poly3, X1, X2, X3
from tensorcomplex.suites import SuiteConfig, run_suite

from conftest import FullStream, field_degree, matrix, run_cli, zero_field


@pytest.mark.parametrize("name", DECOMPOSITION_NAMES)
def test_each_stored_contribution_is_its_reassembly_applied_to_its_potential(name):
    # The cascade keeps each contribution as it takes it off the residual, and
    # the reassembled sum reads them back instead of applying the operators again.
    spec = _DECOMPOSERS[name]
    for s in range(3):
        f = random_field(spec.input_kind, 2, derived_rng(7, "contribution", name, s))
        dec = decompose(name, f)
        for part, (_, _, reassembly) in zip(dec.parts, spec.steps, strict=True):
            applied = part.potential if reassembly == "identity" else OPS[reassembly](part.potential)
            assert part.reassembly == OperatorId(reassembly)
            assert part.contribution == applied, (name, part.label)
        assert components_equal(dec.reassembled, f)


def test_all_decompositions_reconstruct_exactly():
    results = [verify_decomposition(name, samples=4, degree=2, seed=7) for name in DECOMPOSITION_NAMES]
    assert len(results) == 6
    assert all(r.passed for r in results), [r.name for r in results if not r.passed]


def test_cc_on_hessian_field():
    g = hess(TypedField.scalar(X1 * X2 * X3))
    dec = regdec_cc(g)
    assert dec.parts[0].potential.is_zero  # inc g = 0 so the leading part vanishes
    assert dec.is_exact


def test_cc_on_zero():
    dec = regdec_cc(zero_field(FieldKind.SYMMETRIC))
    assert all(p.potential.is_zero for p in dec.parts)


def test_dd_leading_projector_on_unit_witness():
    sigma = matrix(
        [[(Poly3.variable(i) * Poly3.variable(j)).scale(Fraction(1, 12)) for j in range(1, 4)] for i in range(1, 4)],
        FieldKind.SYMMETRIC,
    )
    dec = regdec_dd(sigma)
    assert components_equal(dec.parts[0].potential, sigma)
    assert dec.parts[1].potential.is_zero and dec.parts[2].potential.is_zero


def test_dd_on_inc_image_hits_zero_branch():
    from tensorcomplex.operators import inc

    sigma = inc(random_field(FieldKind.SYMMETRIC, 2, derived_rng(5, "incimg")))
    dec = regdec_dd(sigma)
    assert dec.parts[0].potential.is_zero  # div div sigma = 0
    assert dec.is_exact


def test_dd_idempotent_on_own_leading_part():
    rng = derived_rng(7, "idem")
    sigma = random_field(FieldKind.SYMMETRIC, 2, rng)
    s0 = regdec_dd(sigma).parts[0].potential
    again = regdec_dd(s0)
    assert components_equal(again.parts[0].potential, s0)
    assert again.parts[1].potential.is_zero and again.parts[2].potential.is_zero


def test_cd_zero_branch_on_t_dev_grad_image():
    rng = derived_rng(3, "cdzero")
    tau = OPS["t_dev_grad"](random_field(FieldKind.VECTOR, 3, rng))
    dec = decompose("cd", tau)
    assert dec.parts[0].potential.is_zero  # curl div tau = 0
    assert dec.is_exact


def test_part_kinds():
    rng = derived_rng(11, "kinds")
    dec = decompose("cc", random_field(FieldKind.SYMMETRIC, 2, rng))
    assert [p.potential.kind for p in dec.parts] == [FieldKind.SYMMETRIC, FieldKind.VECTOR, FieldKind.SCALAR]
    dec = decompose("dd", random_field(FieldKind.SYMMETRIC, 2, rng))
    assert [p.potential.kind for p in dec.parts] == [FieldKind.SYMMETRIC, FieldKind.TRACEFREE, FieldKind.SYMMETRIC]
    dec = decompose("cd", random_field(FieldKind.TRACEFREE, 2, rng))
    assert [p.potential.kind for p in dec.parts] == [
        FieldKind.TRACEFREE,
        FieldKind.SYMMETRIC,
        FieldKind.VECTOR,
        FieldKind.VECTOR,
    ]


def test_short_cc_on_deff_image():
    rng = derived_rng(13, "short")
    g = deff(random_field(FieldKind.VECTOR, 3, rng))
    dec = regdec_short(g, "cc")
    assert dec.parts[0].potential.is_zero
    assert components_equal(deff(dec.parts[1].potential), g)


def test_short_dd_on_sym_curl_image():
    rng = derived_rng(17, "short")
    sigma = OPS["sym_curl"](random_field(FieldKind.TRACEFREE, 3, rng))
    dec = regdec_short(sigma, "dd")
    assert dec.parts[0].potential.is_zero
    assert dec.is_exact


def test_short_cd_zero_input():
    dec = regdec_short(zero_field(FieldKind.TRACEFREE), "cd")
    assert all(p.potential.is_zero for p in dec.parts)


def test_degree_growth_bounded_by_two():
    rng = derived_rng(19, "deg")
    for name in DECOMPOSITION_NAMES:
        f = random_field(_DECOMPOSERS[name].input_kind, 2, rng)
        dec = decompose(name, f)
        for p in dec.parts:
            if not p.potential.is_zero:
                assert field_degree(p.potential) <= field_degree(f) + 2, (name, p.label)


def test_decompositions_are_deterministic():
    rng = derived_rng(23, "det")
    f = random_field(FieldKind.SYMMETRIC, 2, rng)
    assert regdec_cc(f).to_text() == regdec_cc(f).to_text()


def test_serialization_round_trips_parts():
    rng = derived_rng(29, "ser")
    dec = regdec_dd(random_field(FieldKind.SYMMETRIC, 2, rng))
    text = dec.to_text()
    blocks = text.split("\n\n")
    assert blocks[0].startswith("input:")
    # each part block carries its reassembly operator and parses back
    for block, part in zip(blocks[1:], dec.parts):
        header, _, body = block.partition("\n")
        assert part.reassembly.name in header
        assert components_equal(field_from_text(body), part.potential)


def test_kind_preconditions():
    with pytest.raises(KindError):
        regdec_cc(zero_field(FieldKind.TRACEFREE))
    with pytest.raises(KindError):
        decompose("cd", zero_field(FieldKind.SYMMETRIC))
    with pytest.raises(ValueError):
        regdec_short(zero_field(FieldKind.SYMMETRIC), "nope")


def test_wrong_kind_report():
    r = verify_decomposition("cc", samples=1, degree=1, seed=5)
    assert r.passed


@pytest.mark.parametrize(
    "text, message",
    [
        (field_to_text(X_FIELD), "regdec cc needs a symmetric field, got a vector field"),
        ("\n".join(field_to_text(X_FIELD).splitlines()[:-1]), "missing component 3 1 of a vector field"),
        ("kind: bogus\n1 1 : 0", "bad kind header 'kind: bogus'; a kind is one of scalar, vector,"),
        (
            field_to_text(TypedField.identity_scaled(X1)).replace("1 2 : 0", "1 2 : 1 * x1^0 x2^0 x3^0"),
            "bad field text: kind header says symmetric, but the components are not symmetric",
        ),
        (
            field_to_text(TypedField.identity_scaled(X1)).replace("x1^1", "x1^256"),
            "bad field text: bad component line '1 1 : 1 * x1^256 x2^0 x3^0': exponent past 255 in monomial",
        ),
        (
            # accepted, but the Koszul operators of cc would raise x1^255 to x1^256
            field_to_text(TypedField.identity_scaled(X1)).replace("x1^1", "x1^255"),
            "cannot decompose this field: x1 * p has an exponent of x1 past 255",
        ),
        (
            # Fraction would read it, slowly: the time grows with the exponent
            field_to_text(TypedField.identity_scaled(X1)).replace("1 * x1^1", "1e-3000000 * x1^1"),
            "bad field text: bad component line '1 1 : 1e-3000000 * x1^1 x2^0 x3^0': bad coefficient '1e-3000000'",
        ),
        (
            # int() would read it as x1^10
            field_to_text(TypedField.identity_scaled(X1)).replace("x1^1", "x1^1_0"),
            "bad field text: bad component line '1 1 : 1 * x1^1_0 x2^0 x3^0': bad monomial factor 'x1^1_0'",
        ),
    ],
    ids=["wrong-kind", "missing-component", "unknown-kind", "asymmetric-symmetric", "exponent-past-limit",
         "decomposition-past-limit", "coefficient-not-printed", "exponent-not-printed"],
)
def test_decompose_reports_bad_input_on_one_line(text, message):
    proc = run_cli("decompose", "cc", input=text)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert len(proc.stderr.splitlines()) == 1 and proc.stderr.startswith("error: ") and message in proc.stderr
    assert proc.stdout == ""


@pytest.mark.parametrize("args, what", [([], "missing decomposition name"), (["bogus"], "unknown decomposition 'bogus'"),
                                        (["dd-short", "field.txt"], "unknown decomposition 'dd-short'")])
def test_decompose_reports_a_missing_or_unknown_decomposition_on_one_line(args, what):
    proc = run_cli("decompose", *args)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == f"error: {what} (one of cc, dd, cd, short-cc, short-dd, short-cd)\n"


def test_decompose_reports_a_missing_file_on_one_line(tmp_path):
    missing = tmp_path / "missing.txt"
    proc = run_cli("decompose", "cc", str(missing))
    assert proc.returncode == 2
    assert proc.stderr == f"error: cannot read {missing}: No such file or directory\n"
    assert proc.stdout == ""


def test_decompose_refuses_an_argument_past_the_file(tmp_path):
    # Only the first file was read before: the missing one went unnoticed.
    good = tmp_path / "a.txt"
    good.write_text(field_to_text(TypedField.identity_scaled(X1)))
    missing = tmp_path / "missing.txt"
    proc = run_cli("decompose", "cc", str(good), str(missing), "extra")
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith("usage: ")
    assert proc.stderr.splitlines()[-1].endswith(f"error: unrecognized arguments: {missing} extra")


def test_decompose_reports_undecodable_input_on_one_line(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"\xff\xfe")
    from_file = run_cli("decompose", "cc", str(bad), text=False)
    from_stdin = run_cli("decompose", "cc", input=b"\xff\xfe", text=False)
    for proc, source in ((from_file, str(bad)), (from_stdin, "stdin")):
        assert proc.returncode == 2
        assert proc.stderr.decode() == f"error: cannot read {source}: not UTF-8 text (byte 0)\n"
        assert proc.stdout == b""


def test_decompose_decomposes_good_input():
    proc = run_cli("decompose", "cc", input=field_to_text(TypedField.identity_scaled(X1)))
    assert proc.returncode == 0 and "exact reconstruction: True" in proc.stdout


def test_decompose_drops_a_leading_byte_order_mark(tmp_path):
    # A UTF-8 file that starts with a byte-order mark was refused as having no kind header.
    text = field_to_text(TypedField.identity_scaled(X1)).encode()
    plain, marked = tmp_path / "plain.txt", tmp_path / "marked.txt"
    plain.write_bytes(text)
    marked.write_bytes(codecs.BOM_UTF8 + text)
    runs = [run_cli("decompose", "cc", str(plain), text=False), run_cli("decompose", "cc", str(marked), text=False),
            run_cli("decompose", "cc", input=codecs.BOM_UTF8 + text, text=False)]
    assert [(r.returncode, r.stdout, r.stderr) for r in runs] == [(0, runs[0].stdout, b"")] * 3
    # Every byte after the mark is read as strictly as before, and counted from the start of the input.
    marked.write_bytes(codecs.BOM_UTF8 + b"kind: \xff")
    proc = run_cli("decompose", "cc", str(marked))
    assert (proc.returncode, proc.stderr) == (2, f"error: cannot read {marked}: not UTF-8 text (byte 9)\n")


def test_decompose_reports_a_closed_stdin_on_one_line():
    proc = run_cli("decompose", "cc", closed=(0,))
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", "error: cannot read stdin: Bad file descriptor\n")


def test_decompose_prints_the_golden_decomposition_text(tmp_path):
    path = tmp_path / "field.txt"
    path.write_text(field_to_text(random_field(FieldKind.SYMMETRIC, 1, derived_rng(7, "golden"))))
    proc = run_cli("decompose", "dd", str(path))
    golden = (Path(__file__).parent / "data" / "golden_decomposition.txt").read_text()
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, golden + "\nexact reconstruction: True\n", "")


def decompose_in_process(name, text, tmp_path, capsys):
    """The exit code and (stdout, stderr) of `tensorcomplex decompose`, run in this process so a patched
    operator reaches it."""
    path = tmp_path / "field.txt"
    path.write_text(text)
    code = main(["decompose", name, str(path)])
    out = capsys.readouterr()
    return code, (out.out, out.err)


def test_decompose_reports_a_step_failing_inside_the_chain_as_a_failed_decomposition(tmp_path, capsys, broken_curl):
    # The dd witness is a symmetric field, of the kind dd takes: the broken
    # curl, not the input, makes div(S eta) nonzero inside the Dcc chain.
    witness = verify_decomposition("dd", samples=2, degree=2, seed=7).witness
    assert field_from_text(witness).kind is FieldKind.SYMMETRIC
    code, out = decompose_in_process("dd", witness, tmp_path, capsys)
    message = "error: decomposition failed: div(S eta) inside the chain is nonzero\n"
    assert (code, out) == (1, ("", message))


def test_decompose_reports_a_failed_write_as_one_line_exit_two(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(sys, "stdout", FullStream())
    code, out = decompose_in_process("cc", field_to_text(TypedField.identity_scaled(X1)), tmp_path, capsys)
    assert (code, out[1]) == (2, "error: cannot write stdout: No space left on device\n")


def test_decompose_reports_a_wrong_kind_as_bad_input_in_process(tmp_path, capsys):
    tau = random_field(FieldKind.TRACEFREE, 2, derived_rng(7, "script", "dd"))
    code, out = decompose_in_process("dd", field_to_text(tau), tmp_path, capsys)
    assert (code, out) == (2, ("", "error: regdec dd needs a symmetric field, got a trace-free field\n"))


def chain_of(name):
    """The chain of the RIGHT_INVERSES row `name`, without its preconditions."""
    return lambda f: apply_word((name,), f)


def patch_chain(monkeypatch, name, kick):
    """Add `kick` to the output of the RIGHT_INVERSES row `name`, which every
    decomposition word that names it reads."""
    spec = RIGHT_INVERSES[name]
    broken = spec._replace(chain=(lambda f: apply_word(spec.chain, f) + kick,))
    monkeypatch.setitem(RIGHT_INVERSES, name, broken)


def failing_decompositions():
    """The failing cases of the decompositions suite; each witness must parse
    back to the input kind, and its decomposition must not be exact."""
    report = run_suite(SuiteConfig(suite="decompositions", seed=7, degree=2, samples=2))
    failing = {c.name: c for c in report.cases if c.status == "fail"}
    for name, case in failing.items():
        name = name.removeprefix("regdec ")
        f = field_from_text(case.witness)
        assert f.kind is _DECOMPOSERS[name].input_kind, name
        assert not decompose(name, f).is_exact, name
    return sorted(failing)


_VECTOR_KICK = TypedField.vector([X1 * X2, P_ZERO, P_ZERO])  # deff, T dev grad and curl deff of it are nonzero
_TRACEFREE_KICK = matrix([[P_ZERO, X3 * X3, P_ZERO], [P_ZERO] * 3, [P_ZERO] * 3], FieldKind.TRACEFREE)


def test_perturbed_hessian_part_fails_decompositions(monkeypatch):
    patch_chain(monkeypatch, "Dgg", TypedField.scalar(X1 * X2))
    # only the hess part S2 of cc uses Dgg; short-cc builds its S1~ with Rgg
    assert failing_decompositions() == ["regdec cc"]


def test_perturbed_rgcT_fails_exactly_the_cd_decompositions(monkeypatch):
    patch_chain(monkeypatch, "RgcT", _VECTOR_KICK)  # not a conformal Killing field: T dev grad kick != 0
    # 1/2 RgcT . t, the only word here that names RgcT, builds S3 of cd and S2~ of short-cd
    assert failing_decompositions() == ["regdec cd", "regdec short-cd"]


@pytest.mark.parametrize(
    "chain, kick, failing",
    [
        ("Rgg", _VECTOR_KICK, ["regdec short-cc"]),
        ("Rcc", _TRACEFREE_KICK, ["regdec short-dd"]),  # sym curl of the kick is nonzero
        ("Dgd", _VECTOR_KICK, ["regdec cd"]),
        ("Rc_plain", _VECTOR_KICK, ["regdec cd"]),
    ],
)
def test_perturbed_chain_fails_exactly_the_decompositions_that_use_it(monkeypatch, chain, kick, failing):
    patch_chain(monkeypatch, chain, kick)
    assert failing_decompositions() == failing


def word_gain(word) -> int:
    """The degrees a word gains, read from data alone: +1 per `_RAISE` letter,
    -ORDER per OPS letter, ORDER of its row's op per RIGHT_INVERSES name, the
    one gain of all its words per `WordSum` letter, and 0 per scale or zero
    check.  Every str letter must resolve, in one table."""
    gain = 0
    for letter in word:
        if isinstance(letter, _Zero):
            assert letter.op in OPS, letter
        elif isinstance(letter, WordSum):
            gains = {word_gain(w) for w in letter}
            assert len(gains) == 1, letter  # every word of a sum gains the same
            gain += gains.pop()
        elif isinstance(letter, str):
            assert [letter in table for table in (_RAISE, OPS, RIGHT_INVERSES)].count(True) == 1, letter
            gain += 1 if letter in _RAISE else -ORDER[letter] if letter in OPS else ORDER[RIGHT_INVERSES[letter].op.name]
        else:
            assert isinstance(letter, (int, Fraction)), letter  # a chain function shows no gain
    return gain


def test_every_word_gains_the_order_of_its_operator():
    # A right-inverse word gains the order of the operator it inverts, and a
    # decomposition step the order of its reassembly (0 for the identity).
    words = {name: spec.chain for name, spec in RIGHT_INVERSES.items()
             if all(isinstance(letter, (str, int, Fraction, _Zero, WordSum)) for letter in spec.chain)}
    assert len(words) == 12
    assert {name: word_gain(word) for name, word in words.items()} == {
        name: ORDER[RIGHT_INVERSES[name].op.name] for name in words}
    steps = {(name, label): (word, how) for name, row in _DECOMPOSERS.items() for label, word, how in row.steps}
    assert len(steps) == 17
    assert {key: word_gain(word) for key, (word, _) in steps.items()} == {
        key: 0 if how == "identity" else ORDER[how] for key, (_, how) in steps.items()}


def composed_parts(name, f):
    """(label, reassembly name, potential) of each part, composed without one
    cascade per decomposition: cc, dd and short-cd as three-step cascades, cd
    by splitting S2~ of short-cd into r = td(div S2~) and 2 tc(S2~ - r), and
    short-cc / short-dd by merging S1 + grad S2 / S1 + T curl S2 of cc / dd."""
    steps = {
        "cc": (("S0", "inc", chain_of("Dcc"), "identity"), ("S1", None, chain_of("Rgg_tilde"), "deff"),
               ("S2", None, chain_of("Dgg"), "hess")),
        "dd": (("S0", "div_div", chain_of("Ddd"), "identity"), ("S1", None, chain_of("Rcc_tilde"), "sym_curl"),
               ("S2", None, chain_of("Dcc"), "inc")),
        "cd": (
            ("S0", "curl_div", chain_of("Dcd"), "identity"),
            ("S1", "sym_curl_t", chain_of("Dcc"), "curl"),
            ("S2~", None, lambda rho: chain_of("RgcT")(rho.transpose()).scale(Fraction(1, 2)), "t_dev_grad"),
        ),
    }
    residual, parts = f, []
    for label, pre, chain, reassembly in steps[name.removeprefix("short-")]:
        if parts:
            _, how, potential = parts[-1]
            residual = residual - (potential if how == "identity" else OPS[how](potential))
        parts.append((label, reassembly, chain(residual if pre is None else OPS[pre](residual))))
    if name == "cd":
        s2_tilde = parts.pop()[2]
        r = td(div(s2_tilde))
        parts += [("S2", "t_dev_grad", r), ("S3", "curl_deff", tc(s2_tilde - r).scale(2))]
    elif name in ("short-cc", "short-dd"):
        (_, _, s2), (_, how, s1) = parts.pop(), parts.pop()
        parts.append(("S1~", how, s1 + OPS["grad" if name == "short-cc" else "t_curl"](s2)))
    return parts


@pytest.mark.parametrize("degree", range(6))
def test_every_cascade_equals_the_composed_decomposition(degree):
    for name in DECOMPOSITION_NAMES:
        for seed in range(4):
            f = random_field(_DECOMPOSERS[name].input_kind, degree, derived_rng(seed, "composed", name))
            got = [(p.label, p.reassembly, p.potential.components) for p in decompose(name, f).parts]
            want = [(label, OperatorId(how), p.components) for label, how, p in composed_parts(name, f)]
            assert got == want, (name, seed)


@pytest.mark.parametrize("degree", [1, 2, 3])
def test_cascade_relations_between_the_decompositions(degree):
    # cd and short-cd share S0 and S1, S2~ of short-cd is S2 + 1/2 curl S3 of
    # cd, and S1~ of short-cc / short-dd is S1 + grad S2 / S1 + T curl S2 of cc / dd
    def potentials(name, f):
        return [p.potential for p in decompose(name, f).parts]

    for seed in range(3):
        tau = random_field(FieldKind.TRACEFREE, degree, derived_rng(seed, "relations", "cd"))
        s0, s1, s2, s3 = potentials("cd", tau)
        short_s0, short_s1, s2_tilde = potentials("short-cd", tau)
        assert components_equal(s0, short_s0) and components_equal(s1, short_s1)
        assert components_equal(s2 + curl(s3).scale(Fraction(1, 2)), s2_tilde)
        g = random_field(FieldKind.SYMMETRIC, degree, derived_rng(seed, "relations", "cc"))
        s0, s1, s2 = potentials("cc", g)
        assert components_equal(potentials("short-cc", g)[1], s1 + grad(s2))
        sigma = random_field(FieldKind.SYMMETRIC, degree, derived_rng(seed, "relations", "dd"))
        s0, s1, s2 = potentials("dd", sigma)
        assert components_equal(potentials("short-dd", sigma)[1], s1 + OPS["t_curl"](s2))


@pytest.mark.parametrize("degree", [1, 2, 3, 4])
def test_third_chain_sends_the_leading_part_to_zero(degree):
    # The invariant stated in `_cascade`: the third step (Dgg for cc, Dcc for
    # dd, 1/2 Dgd . div for cd, 1/2 RgcT . t for short-cd) maps S0 to exactly 0, so
    # S2 / S2~ is the same whether or not S0 is still in the residual.
    leading = []
    for seed in range(4):
        g = random_field(FieldKind.SYMMETRIC, degree, derived_rng(seed, "leading", "cc"))
        sigma = random_field(FieldKind.SYMMETRIC, degree, derived_rng(seed, "leading", "dd"))
        tau = random_field(FieldKind.TRACEFREE, degree, derived_rng(seed, "leading", "cd"))
        third_steps = (("cc", g, chain_of("Dgg")), ("dd", sigma, chain_of("Dcc")),
                       ("cd", tau, lambda s0: chain_of("Dgd")(div(s0))),
                       ("short-cd", tau, lambda s0: chain_of("RgcT")(s0.transpose()).scale(Fraction(1, 2))))
        for name, f, third in third_steps:
            s0 = decompose(name, f).parts[0].potential
            assert third(s0).is_zero, (name, seed)
            leading.append(s0)
    if degree > 1:  # the leading parts are nonzero, so the check has content
        assert not any(s0.is_zero for s0 in leading)


def test_kind_error_inside_a_decomposition_is_a_fail_with_the_field_as_witness(broken_curl):
    # A curl whose first entry drops its -d3 c2 term takes a symmetric field to
    # a matrix with a nonzero trace, so the cc cascade raises KindError both
    # in the check and again in its witness; the case must still fail and print the field.
    r = verify_decomposition("cc", samples=2, degree=2, seed=7)
    assert r.status == "fail"
    f = field_from_text(r.witness)
    assert f.kind is FieldKind.SYMMETRIC
    with pytest.raises(KindError):
        regdec_cc(f)


def test_a_part_kind_mismatch_fails_with_the_field_and_the_part_kinds(monkeypatch):
    # With the expected part kinds of cc patched to end in vector, every sample
    # fails; the witness prints the input field, then the part kinds it gives.
    row = _DECOMPOSERS["cc"]
    wrong = (*row.part_kinds[:-1], FieldKind.VECTOR)
    monkeypatch.setitem(_DECOMPOSERS, "cc", row._replace(part_kinds=wrong))
    r = verify_decomposition("cc", samples=2, degree=2, seed=7)
    assert r.status == "fail"
    field_text, _, line = r.witness.rpartition("\n")
    f = field_from_text(field_text)
    assert f.kind is row.input_kind
    kinds = tuple(p.potential.kind.value for p in decompose("cc", f).parts)
    assert kinds != tuple(k.value for k in wrong)
    assert line == f"part kinds {kinds} != expected {tuple(k.value for k in wrong)}"


def test_a_broken_curl_fails_every_decomposition_with_its_input_as_witness(broken_curl):
    # A step inside a chain that its lemma makes zero is nonzero only when an
    # operator is broken; the drawn input has no precondition to violate, so
    # every case must fail (never error) with that input as its witness.
    report = run_suite(SuiteConfig(suite="decompositions", seed=7, degree=2, samples=2))
    assert [c.status for c in report.cases] == ["fail"] * len(DECOMPOSITION_NAMES)
    s, t = FieldKind.SYMMETRIC, FieldKind.TRACEFREE
    input_kinds = {"cc": s, "dd": s, "cd": t, "short-cc": s, "short-dd": s, "short-cd": t}
    for name, case in zip(DECOMPOSITION_NAMES, report.cases):
        assert case.name == f"regdec {name}"
        f = field_from_text(case.witness)
        assert f.kind is input_kinds[name], name
        try:
            assert not decompose(name, f).is_exact, name
        except KindError:
            pass  # the decomposition raises on its witness again: it still does not pass
