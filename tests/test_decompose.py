import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import tensorcomplex.decompose as decompose_module
from tensorcomplex.decompose import (
    DECOMPOSITION_NAMES,
    decompose,
    regdec_cc,
    regdec_dd,
    regdec_short,
    verify_all_decompositions,
    verify_decomposition,
)
from tensorcomplex.fields import FieldKind, KindError, TypedField, X_FIELD, field_from_text, field_to_text
from tensorcomplex.operators import (
    components_equal,
    curl,
    deff,
    grad,
    derived_rng,
    hess,
    random_field,
    sym_curl,
    t_curl,
    t_dev_grad,
)
from tensorcomplex.poly import P_ZERO, Poly3, X1, X2, X3
from tensorcomplex.suites import SuiteConfig, run_suite

from conftest import zero_field


def test_all_decompositions_reconstruct_exactly():
    results = verify_all_decompositions(samples=4, degree=2, seed=7)
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
    sigma = TypedField.matrix(
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
    tau = t_dev_grad(random_field(FieldKind.VECTOR, 3, rng))
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
    sigma = sym_curl(random_field(FieldKind.TRACEFREE, 3, rng))
    dec = regdec_short(sigma, "dd")
    assert dec.parts[0].potential.is_zero
    assert dec.is_exact


def test_short_cd_zero_input():
    dec = regdec_short(zero_field(FieldKind.TRACEFREE), "cd")
    assert all(p.potential.is_zero for p in dec.parts)


def test_degree_growth_bounded_by_two():
    rng = derived_rng(19, "deg")
    for name in DECOMPOSITION_NAMES:
        from tensorcomplex.decompose import _DECOMPOSERS

        kind = _DECOMPOSERS[name][1]
        f = random_field(kind, 2, rng)
        dec = decompose(name, f)
        for p in dec.parts:
            if not p.potential.is_zero:
                assert p.potential.degree() <= f.degree() + 2, (name, p.label)


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


_SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "decompose_field.py"


def run_script(name, text):
    return subprocess.run([sys.executable, str(_SCRIPT), name], input=text, capture_output=True, text=True)


@pytest.mark.parametrize(
    "text, message",
    [
        (field_to_text(X_FIELD), "regdec_cc needs a symmetric field, got a vector field"),
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
    ],
    ids=["wrong-kind", "missing-component", "unknown-kind", "asymmetric-symmetric", "exponent-past-limit",
         "decomposition-past-limit"],
)
def test_script_reports_bad_input_on_one_line(text, message):
    proc = run_script("cc", text)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert len(proc.stderr.splitlines()) == 1 and message in proc.stderr
    assert proc.stdout == ""


def test_script_reports_a_missing_file_on_one_line(tmp_path):
    missing = tmp_path / "missing.txt"
    proc = subprocess.run([sys.executable, str(_SCRIPT), "cc", str(missing)], capture_output=True, text=True)
    assert proc.returncode == 2
    assert proc.stderr == f"decompose_field.py: cannot read {missing}: No such file or directory\n"
    assert proc.stdout == ""


def test_script_reports_undecodable_input_on_one_line(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"\xff\xfe")
    from_file = subprocess.run([sys.executable, str(_SCRIPT), "cc", str(bad)], capture_output=True)
    from_stdin = subprocess.run([sys.executable, str(_SCRIPT), "cc"], input=b"\xff\xfe", capture_output=True)
    for proc, source in ((from_file, str(bad)), (from_stdin, "stdin")):
        assert proc.returncode == 2
        assert proc.stderr.decode() == f"decompose_field.py: cannot read {source}: not UTF-8 text (byte 0)\n"
        assert proc.stdout == b""


def test_script_decomposes_good_input():
    proc = run_script("cc", field_to_text(TypedField.identity_scaled(X1)))
    assert proc.returncode == 0 and "exact reconstruction: True" in proc.stdout


def test_perturbed_hessian_part_fails_decompositions(monkeypatch):
    true_dgg = decompose_module._dgg
    monkeypatch.setattr(decompose_module, "_dgg", lambda g: true_dgg(g) + TypedField.scalar(X1 * X2))
    report = run_suite(SuiteConfig(suite="decompositions", seed=7, degree=2, samples=2))
    failing = {c.name: c for c in report.cases if c.status == "fail"}
    # the hess part S2 of cc is merged into S1~ by short-cc; no other decomposition uses it
    assert sorted(failing) == ["regdec cc", "regdec short-cc"]
    for name, case in failing.items():
        f = field_from_text(case.witness)
        assert f.kind is FieldKind.SYMMETRIC
        assert not decompose(name.removeprefix("regdec "), f).is_exact, name


def test_perturbed_rgcT_fails_exactly_the_cd_decompositions(monkeypatch):
    true_rgcT = decompose_module._rgcT
    kick = TypedField.vector([X1 * X2, P_ZERO, P_ZERO])  # not a conformal Killing field: T dev grad kick != 0
    monkeypatch.setattr(decompose_module, "_rgcT", lambda tau: true_rgcT(tau) + kick)
    report = run_suite(SuiteConfig(suite="decompositions", seed=7, degree=2, samples=2))
    failing = {c.name: c for c in report.cases if c.status == "fail"}
    # cd splits the S2~ part of short-cd into S2 and S3; no other decomposition uses the RgcT chain
    assert sorted(failing) == ["regdec cd", "regdec short-cd"]
    for name, case in failing.items():
        f = field_from_text(case.witness)
        assert f.kind is FieldKind.TRACEFREE
        assert not decompose(name.removeprefix("regdec "), f).is_exact, name


@pytest.mark.parametrize("degree", [1, 2, 3])
def test_cascade_relations_between_the_decompositions(degree):
    # cd and short-cd share S0 and S1, cd splits S2~ into S2 + 1/2 curl S3, and
    # short-cc / short-dd merge the last two parts of cc / dd
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
        assert components_equal(potentials("short-dd", sigma)[1], s1 + t_curl(s2))
