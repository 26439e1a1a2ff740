"""Golden files pin the report JSON schema and the decomposition text format."""

from pathlib import Path

from tensorcomplex.decompose import regdec_dd
from tensorcomplex.fields import FieldKind
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
