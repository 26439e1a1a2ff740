"""Golden files pin the report JSON schema, the decomposition text format, the seeded draws,
the pairings the pairings suite computes and the diagram dump; the benchmark's recorded
report digests pin the reports of its workloads."""

import hashlib
import importlib.util
import json
from pathlib import Path

import pytest

from tensorcomplex import ball, diagram
from tensorcomplex.cli import main
from tensorcomplex.decompose import _DECOMPOSERS, DECOMPOSITION_NAMES, decompose, regdec_dd
from tensorcomplex.fields import FieldKind, field_to_text
from tensorcomplex.koszul import RIGHT_INVERSES, sample_kernel
from tensorcomplex.operators import derived_rng, random_field
from tensorcomplex.suites import SUITE_NAMES, SuiteConfig, run_suite, suite_rows

from conftest import curl_mutation

DATA = Path(__file__).parent / "data"
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


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
            f = random_field(_DECOMPOSERS[name].input_kind, degree, derived_rng(7, "golden", name))
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


def golden_pairings_text() -> str:
    """str() of every `ball.l2_pair` value, one a line, in call order, while the
    pairings suite runs at seed 7, degree 2, 2 samples.  The Gram rows of the
    moment spaces are built once and cached, so they are read first: the record
    then does not depend on what ran before it."""
    for space in (ball.CONSTANTS_SCALAR, ball.P1_SPACE, ball.RT_SPACE, ball.ND_SPACE):
        ball._gram_rows(space)
    values = []
    true_pair = ball.l2_pair

    def recording_pair(a, b, bump_order=0):
        value = true_pair(a, b, bump_order)
        values.append(str(value))
        return value

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ball, "l2_pair", recording_pair)
        assert run_suite(SuiteConfig(suite="pairings", seed=7, degree=2, samples=2)).all_passed
    return "\n".join(values) + "\n"


def test_pairings_match_golden():
    # Passing reports show no sampled field, so this file pins the work of the
    # pairings suite itself: each pairing of a sampled field, in order.
    assert golden_pairings_text() == (DATA / "golden_pairings.txt").read_text()


@pytest.mark.parametrize("flavor", ["with-bc", "no-bc"])
@pytest.mark.parametrize("fmt, suffix", [("json", "json"), ("markdown", "md")])
def test_dump_diagram_matches_golden(flavor, fmt, suffix, capsys):
    assert main(["dump-diagram", "--flavor", flavor, "--format", fmt]) == 0
    assert capsys.readouterr().out == (DATA / f"golden_diagram_{flavor}.{suffix}").read_text()


def test_derived_complex_case_names():
    cfg = SuiteConfig(seed=7, degree=1, samples=1)
    results = [row.verify(cfg, {}) for row in suite_rows("derived-complexes")]
    assert [r.name for r in results] == [
        "hessian: curl ∘ hess = 0",
        "hessian: div ∘ curl = 0",
        "elasticity: inc ∘ deff = 0",
        "elasticity: div ∘ inc = 0",
        "divdiv: sym_curl ∘ 1/2 dev_grad = 0",
        "divdiv: div_div ∘ sym_curl = 0",
    ]


def _benchmark_workloads():
    """The `WORKLOADS` and `SAMPLES` of perfbench/child.py, read from the file."""
    spec = importlib.util.spec_from_file_location("perfbench_child", PERFBENCH / "child.py")
    child = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(child)
    return child.WORKLOADS, child.SAMPLES


@pytest.mark.parametrize("seed", ["7", "11"])
def test_benchmark_reports_match_recorded_digests(seed):
    # perfbench/run.py hashes each workload's report JSON, concatenated in
    # suite order; its BASELINE.json records the digests every change must keep.
    workloads, samples = _benchmark_workloads()
    recorded = json.loads((PERFBENCH / "BASELINE.json").read_text())["report_sha256"][seed]
    for name, workload in workloads.items():
        text = "".join(
            run_suite(SuiteConfig(suite=suite, seed=int(seed), degree=workload.degree, samples=samples)).to_json()
            for suite in workload.suites
        )
        assert hashlib.sha256(text.encode()).hexdigest() == recorded[name], name


@pytest.mark.parametrize("seed", [7, 11])
def test_reports_under_the_shared_mutation_match_their_recorded_digests(seed):
    # The sha256 of every suite's JSON and markdown report under
    # `curl_mutation` at degree 2 with 2 samples, each suite run on fresh
    # kernel caches: the failing cases and their witnesses, byte for byte.
    expected = json.loads((DATA / "mutation_report_digests.json").read_text())[f"seed {seed}"]
    got = {}
    for suite in SUITE_NAMES:
        with curl_mutation():
            report = run_suite(SuiteConfig(suite=suite, seed=seed, degree=2, samples=2))
        for fmt, text in (("json", report.to_json()), ("md", report.to_markdown())):
            got[f"{suite}.{fmt}"] = hashlib.sha256(text.encode()).hexdigest()
    assert got == expected
