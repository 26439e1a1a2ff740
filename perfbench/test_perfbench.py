"""Tests of the benchmark's own code: span arithmetic, patching and counters."""

import json
import signal
import time
from fractions import Fraction
from pathlib import Path

from child import WORKLOADS, ReferenceTimer
from tracing import Tracer, layer_stats

from tensorcomplex import decompose, fields, koszul, operators
from tensorcomplex.poly import X1, Poly3
from tensorcomplex.suites import SUITE_NAMES, SuiteConfig, run_suite

BENCHMARK = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())


def test_layer_stats_on_synthetic_span_tree():
    spans = [
        ["a", 0.0, 10.0, -1, 1.0],  # root, 1 s in hot calls
        ["b", 1.0, 4.0, 0, 0.5],
        ["c", 2.0, 3.0, 1, 0.0],
        ["b", 5.0, 9.0, 0, 0.0],
        ["b", 6.0, 8.0, 3, 0.0],  # b inside b: counts once in busy time
    ]
    stats = layer_stats(spans)
    assert stats["a"] == {"calls": 1, "busy_s": 10.0, "self_s": 10.0 - 3.0 - 4.0 - 1.0}
    assert stats["b"] == {"calls": 3, "busy_s": 3.0 + 4.0, "self_s": (3.0 - 1.0 - 0.5) + (4.0 - 2.0) + 2.0}
    assert stats["c"] == {"calls": 1, "busy_s": 1.0, "self_s": 1.0}


def test_hot_calls_leave_the_enclosing_span_self_time():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    leaf = tracer.hot_wrapper("leaf", lambda: None)
    outer = tracer.span_wrapper("outer", lambda: (leaf(), leaf()))
    outer()  # clock: outer opens 0, leaf 1-2, leaf 3-4, outer closes 5
    assert tracer.hot["leaf"] == [2, 2.0]
    assert layer_stats(tracer.spans)["outer"] == {"calls": 1, "busy_s": 5.0, "self_s": 3.0}


def _bindings():
    """Every module-level binding of the library, with dicts and their values copied."""
    from tracing import _library_modules

    out = {}
    for mod in _library_modules():
        for key, val in vars(mod).items():
            out[(mod.__name__, key)] = (val, dict(val) if isinstance(val, dict) else None)
    for cls in (Poly3, fields.TypedField, decompose.Decomposition):
        out[(cls.__name__, "__dict__")] = (None, dict(cls.__dict__))
    return out


def _same(a, b):
    return a.keys() == b.keys() and all(
        a[k][0] is b[k][0]
        and (a[k][1] is None or a[k][1].keys() == b[k][1].keys() and all(a[k][1][d] is b[k][1][d] for d in a[k][1]))
        for k in a
    )


def test_wrappers_patch_every_binding_and_are_restored():
    before = _bindings()
    originals = {
        "tg": koszul.tg, "tc": koszul.tc, "td": koszul.td, "tg_rows": koszul.tg_rows,
        "moment_orthogonal": koszul.moment_orthogonal, "grad": operators.OPS["grad"],
    }
    tracer = Tracer()
    tracer.install()
    try:
        for name in ("tg", "tc", "td", "tg_rows"):
            assert getattr(decompose, name) is not originals[name]
            assert getattr(decompose, name) is getattr(koszul, name)
        assert koszul.moment_orthogonal is not originals["moment_orthogonal"]
        assert operators.OPS["grad"] is operators.grad is not originals["grad"]
        run_suite(SuiteConfig(suite="decompositions", seed=1, degree=1, samples=1))
    finally:
        tracer.restore()
    assert _same(before, _bindings())
    assert tracer.metrics()["decompose.decompose.calls"] > 0


def test_coeff_mults_counts_each_term_pair():
    mul = Poly3.__mul__
    tracer = Tracer()
    tracer.install()
    try:
        one = Poly3.const(1)
        product = (one + X1) * (one - X1)
    finally:
        tracer.restore()
    assert product == Poly3({(0, 0, 0): Fraction(1), (2, 0, 0): Fraction(-1)})
    assert tracer.metrics()["poly.mul.coeff_mults"] == 4
    assert Poly3.__mul__ is mul


def test_traced_reports_are_byte_equal_to_untraced():
    configs = [SuiteConfig(suite=s, seed=3, degree=1, samples=2) for s in SUITE_NAMES]
    plain = [run_suite(cfg).to_json() for cfg in configs]
    tracer = Tracer()
    tracer.install()
    try:
        traced = [run_suite(cfg).to_json() for cfg in configs]
    finally:
        tracer.restore()
    assert traced == plain
    metrics = tracer.metrics()
    for spec in BENCHMARK["per_layer"]:
        if spec["name"] != "trace.overhead_frac":
            assert spec["name"] in metrics
    for layer in ("poly.mul", "ball.l2_pair", "koszul.tc", "koszul.kernel_basis", "diagram.apply_path"):
        assert metrics[f"{layer}.calls"] > 0


def test_benchmark_json_names_the_child_workloads():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    assert all(s in SUITE_NAMES for w in WORKLOADS.values() for s in w.suites)


def test_reference_timer_samples_until_stopped():
    timer = ReferenceTimer()
    timer.start()
    try:
        deadline = time.perf_counter() + 0.3
        while time.perf_counter() < deadline:
            pass
    finally:
        timer.stop()
    assert timer.samples >= 2 and timer.seconds > 0
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
