"""scripts/bench_pairs.py: the summary of paired benchmark runs, from canned result lines."""

import importlib.util
import json
from pathlib import Path

import pytest

_SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", _SCRIPT)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

_END_TO_END = [
    {"name": "verdict_kref", "unit": "kref", "better": "lower", "bound": 0.25},
    {"name": "checks_per_kref", "unit": "1/kref", "better": "higher", "bound": 0.25},
]


def result_line(verdict_kref, checks_per_kref, correct=True):
    metrics = {"verdict_kref": {"value": verdict_kref, "unit": "kref"},
               "checks_per_kref": {"value": checks_per_kref, "unit": "1/kref"}}
    return json.dumps({"correct": correct, "attempted": 64, "failed": 0, "metrics": metrics})


def test_summary_gives_medians_quartiles_and_wins_in_each_metrics_direction():
    parent = [result_line(v, c) for v, c in [(1.0, 600), (2.0, 610), (3.0, 620), (4.0, 630), (5.0, 640)]]
    # Pairs 1-3 are won in both metrics; pair 4 ties in verdict_kref and loses checks_per_kref, pair 5 the other
    # way round.  A tie is no win.
    change = [result_line(v, c) for v, c in [(0.5, 700), (1.5, 700), (2.5, 700), (4.0, 600), (6.0, 640)]]
    header, verdict, checks = bench_pairs.summarize(_END_TO_END, parent, change)
    assert header.split()[:2] == ["metric", "better"]
    assert verdict.split() == ["verdict_kref", "lower", "3", "[2,", "4]", "2.5", "[1.5,", "4]", "3/5"]
    assert checks.split() == ["checks_per_kref", "higher", "620", "[610,", "630]", "700", "[640,", "700]", "3/5"]


def test_summary_of_one_pair_reads_its_values_as_the_quartiles():
    (_, verdict, _) = bench_pairs.summarize(_END_TO_END, [result_line(2.0, 500)], [result_line(1.0, 400)])
    assert verdict.split() == ["verdict_kref", "lower", "2", "[2,", "2]", "1", "[1,", "1]", "1/1"]


@pytest.mark.parametrize("bad", [
    result_line(1.0, 600, correct=False),
    "error: the run ended early",
    json.dumps({"attempted": 1}),
])
def test_summary_stops_on_a_result_line_that_is_not_correct(bad):
    good = result_line(1.0, 600)
    for parent, change in (([bad], [good]), ([good], [bad])):
        with pytest.raises(bench_pairs.BenchPairsError):
            bench_pairs.summarize(_END_TO_END, parent, change)


def test_summary_needs_as_many_runs_on_each_side():
    with pytest.raises(bench_pairs.BenchPairsError, match="equal, nonzero run counts"):
        bench_pairs.summarize(_END_TO_END, [result_line(1.0, 600)] * 2, [result_line(1.0, 600)])
    with pytest.raises(bench_pairs.BenchPairsError, match="equal, nonzero run counts"):
        bench_pairs.summarize(_END_TO_END, [], [])
