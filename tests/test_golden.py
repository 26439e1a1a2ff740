"""Golden files pin the report JSON schema, the decomposition text format and the seeded draws."""

from pathlib import Path

from tensorcomplex.decompose import _DECOMPOSERS, DECOMPOSITION_NAMES, decompose, regdec_dd
from tensorcomplex.fields import FieldKind, field_to_text
from tensorcomplex.koszul import RIGHT_INVERSES, sample_kernel
from tensorcomplex.operators import derived_rng, random_field
from tensorcomplex.suites import SUITE_NAMES, SuiteConfig, run_suite

DATA = Path(__file__).parent / "data"


def test_suite_all_runs_the_suites_in_published_order():
    assert SUITE_NAMES == (
        "identities",
        "cells",
        "two-complex",
        "derived-complexes",
        "right-inverses",
        "decompositions",
        "pairings",
    )


def test_report_json_matches_golden():
    rep = run_suite(SuiteConfig(suite="cells", seed=7, degree=1, samples=2))
    assert rep.to_json() == (DATA / "golden_report_cells.json").read_text()


def test_decomposition_text_matches_golden():
    dec = regdec_dd(random_field(FieldKind.SYMMETRIC, 1, derived_rng(7, "golden")))
    assert dec.to_text() + "\n" == (DATA / "golden_decomposition.txt").read_text()


def golden_decompositions_text() -> str:
    """Every decomposition of a seeded field of its input kind, at degree 1
    (where every leading part S0 vanishes) and at degree 2 (where S0 is
    nonzero except for dd)."""
    blocks = []
    for degree in (1, 2):
        for name in DECOMPOSITION_NAMES:
            f = random_field(_DECOMPOSERS[name][1], degree, derived_rng(7, "golden", name))
            blocks.append(f"decompose {name} degree {degree}\n{decompose(name, f).to_text()}")
    return "\n\n".join(blocks) + "\n"


def test_decompositions_match_golden():
    assert golden_decompositions_text() == (DATA / "golden_decompositions.txt").read_text()


def golden_draws_text() -> str:
    """The seeded inputs at seed 7, degree 2: one field of each kind drawn in
    turn from one stream, then one kernel sample for each kernel a right
    inverse samples from."""
    rng = derived_rng(7, "golden-draws")
    blocks = [f"random_field {kind.value}\n{field_to_text(random_field(kind, 2, rng))}" for kind in FieldKind]
    kernels = dict.fromkeys((spec.kernel_ops, spec.input_kind) for spec in RIGHT_INVERSES.values() if spec.kernel_ops)
    blocks += [
        f"sample_kernel {' '.join(ops)} {kind.value}\n{field_to_text(sample_kernel(ops, kind, 2, 7))}"
        for ops, kind in kernels
    ]
    return "\n\n".join(blocks) + "\n"


def test_seeded_draws_match_golden():
    # Every suite case passes, so no report shows a sampled field: this file
    # is what pins the sampled inputs themselves, byte for byte.
    assert golden_draws_text() == (DATA / "golden_draws.txt").read_text()
