"""Layer tracing for the benchmark's traced run, installed from outside the library.

Each wrapped public function opens a span (name, start, end, parent) when it is
called. The hot ``Poly3`` and ``TypedField`` methods are called hundreds of
thousands of times per run, so they keep aggregated counters in memory instead
of one span each; their time is still taken out of the enclosing span's self
time. They call no traced function, so a span never opens inside a hot call.
Work counters (coefficient multiplications, zero operands, even product terms,
kernel-cache hits) are taken in the wrappers, so they depend only on the inputs.

A name imported into several modules is patched everywhere it is bound: in
module globals, in registry dicts such as ``operators.OPS``, and inside tuples
held by those dicts. ``restore`` puts every original back.
"""

from __future__ import annotations

import functools
import inspect
import math
import statistics
import sys
import time
from collections import Counter

# Spans are records [name, start, end, parent index (-1 for a root), hot child seconds].
NAME, START, END, PARENT, HOT = range(5)


def layer_stats(spans) -> dict[str, dict[str, float]]:
    """``calls``, ``busy_s`` and ``self_s`` per span name.

    Self time is a span's duration minus its direct child spans and the hot
    calls made directly inside it. Busy time is the union of the intervals of a
    name's spans, so recursion is not counted twice. Spans must be listed in the
    order they were opened.
    """
    child_s = [0.0] * len(spans)
    for rec in spans:
        if rec[PARENT] >= 0:
            child_s[rec[PARENT]] += rec[END] - rec[START]
    out: dict[str, dict[str, float]] = {}
    covered_until: dict[str, float] = {}
    for i, (name, start, end, _parent, hot_s) in enumerate(spans):
        st = out.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        st["calls"] += 1
        st["self_s"] += (end - start) - child_s[i] - hot_s
        until = covered_until.get(name, -math.inf)
        if end > until:
            st["busy_s"] += end - max(start, until)
            covered_until[name] = end
    return out


class Tracer:
    """Spans and counters for one process; ``install`` patches, ``restore`` undoes."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self.hot: dict[str, list] = {}  # name -> [calls, self seconds]
        self.counts: Counter = Counter()
        self.cases_per_call: dict[str, int] = {}
        self._stack: list[list] = []  # open frames: [seconds of hot calls made inside]
        self._open_spans: list[int] = []
        self._sites: list[tuple] = []  # (container, key, original)
        self._kernel_keys: set = set()
        self._span_names: set[str] = set()

    # -- wrappers ------------------------------------------------------------

    def hot_wrapper(self, name, fn, count=None):
        agg = self.hot.setdefault(name, [0, 0.0])
        stack, clock = self._stack, self.clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if count is not None:
                count(*args)
            frame = [0.0]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                agg[0] += 1
                agg[1] += dt - frame[0]
                if stack:
                    stack[-1][0] += dt

        return wrapper

    def span_wrapper(self, name, fn, after=None):
        spans, stack, open_spans, clock = self.spans, self._stack, self._open_spans, self.clock
        self._span_names.add(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, open_spans[-1] if open_spans else -1, 0.0]
            open_spans.append(len(spans))
            spans.append(rec)
            frame = [0.0]
            stack.append(frame)
            rec[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = clock()
                stack.pop()
                open_spans.pop()
                rec[HOT] = frame[0]
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    # -- patching --------------------------------------------------------------

    def _set(self, container, key, value):
        if isinstance(container, dict):
            self._sites.append((container, key, container[key]))
            container[key] = value
        else:
            self._sites.append((container, key, container.__dict__[key]))
            setattr(container, key, value)

    def patch_everywhere(self, fn, wrapper) -> int:
        """Rebind every module-level reference to ``fn`` in the library; returns the count."""
        n = 0
        for mod in _library_modules():
            for key, val in list(vars(mod).items()):
                if key.startswith("__"):
                    continue
                if val is fn:
                    self._set(mod, key, wrapper)
                    n += 1
                elif isinstance(val, dict):
                    for dkey, dval in list(val.items()):
                        if dval is fn:
                            self._set(val, dkey, wrapper)
                            n += 1
                        elif isinstance(dval, tuple) and any(x is fn for x in dval):
                            self._set(val, dkey, tuple(wrapper if x is fn else x for x in dval))
                            n += 1
        if n == 0:
            raise LookupError(f"{fn.__qualname__} is bound nowhere in the library")
        return n

    def restore(self):
        while self._sites:
            container, key, original = self._sites.pop()
            if isinstance(container, dict):
                container[key] = original
            else:
                setattr(container, key, original)

    # -- the library's layers ------------------------------------------------

    def install(self):
        """Wrap every traced layer of tensorcomplex (modules must be importable)."""
        from tensorcomplex import ball, decompose, diagram, fields, koszul, operators, poly, rational, suites

        counts = self.counts
        p = poly.Poly3

        def count_mul(a, b):
            counts["poly.mul.coeff_mults"] += len(a.terms) * len(b.terms)
            if not a.terms or not b.terms:
                counts["poly.mul.zero_operands"] += 1

        def count_terms(key):
            def count(a, *_):
                counts[key] += len(a.terms)

            return count

        def method(cls, attr, name, count=None, hot=False):
            fn = cls.__dict__[attr]
            wrap = self.hot_wrapper(name, fn, count) if hot else self.span_wrapper(name, fn, count)
            self._set(cls, attr, wrap)

        method(p, "__mul__", "poly.mul", count_mul, hot=True)
        method(p, "__add__", "poly.add", hot=True)
        method(p, "scale", "poly.scale", count_terms("poly.scale.coeff_mults"), hot=True)
        method(p, "partial", "poly.partial", count_terms("poly.partial.coeff_mults"), hot=True)
        method(fields.TypedField, "__init__", "fields.construct", hot=True)

        def note_cols(args, _kw, _result):
            counts["rational.nullspace.max_cols"] = max(counts["rational.nullspace.max_cols"], args[0].cols)

        method(rational.RatMatrix, "nullspace", "rational.nullspace", note_cols)
        method(suites.Report, "to_json", "suites.to_json")
        reassembled = decompose.Decomposition.__dict__["reassembled"]
        self._set(
            decompose.Decomposition,
            "reassembled",
            property(self.span_wrapper("decompose.reassemble", reassembled.fget)),
        )

        def note_terms(args, _kw, _result):
            terms = args[0].terms
            counts["ball.integrate_ball.terms"] += len(terms)
            counts["ball.integrate_ball.even_terms"] += sum(
                1 for a, b, c in terms if not (a % 2 or b % 2 or c % 2)
            )

        kernel_signature = inspect.signature(koszul.kernel_basis)

        def note_kernel(args, kwargs, _result):
            bound = kernel_signature.bind(*args, **kwargs).arguments
            key = (tuple(bound["op_names"]), bound["kind"], bound["degree"])
            counts["koszul.kernel_basis.hits"] += key in self._kernel_keys
            self._kernel_keys.add(key)

        def note_cases(fn):
            def after(_args, _kw, result):
                self.cases_per_call[fn.__name__] = len(result) if isinstance(result, list) else 1

            return after

        functions = [(fn, "operators.apply", None) for fn in dict.fromkeys(operators.OPS.values())]
        functions += [
            (operators.random_field, "operators.random_field", None),
            (operators.components_equal, "operators.components_equal", None),
            (fields.pairing_product, "fields.pairing_product", None),
            (diagram.apply_path, "diagram.apply_path", None),
            (koszul.tg, "koszul.tg", None),
            (koszul.tc, "koszul.tc", None),
            (koszul.td, "koszul.td", None),
            (koszul.tg_rows, "koszul.tg_rows", None),
            (koszul.sample_kernel, "koszul.sample_kernel", None),
            (koszul.kernel_basis, "koszul.kernel_basis", note_kernel),
            (koszul.right_inverse, "koszul.right_inverse", None),
            (ball.l2_pair, "ball.l2_pair", None),
            (ball.integrate_ball, "ball.integrate_ball", note_terms),
            (ball.moment_orthogonal, "ball.moment_orthogonal", None),
            (ball.project_moment_orthogonal, "ball.project_moment_orthogonal", None),
        ]
        functions += [
            (fn, "decompose.decompose", None)
            for fn in (decompose.decompose, decompose.regdec_cc, decompose.regdec_dd,
                       decompose.regdec_cd, decompose.regdec_short)
        ]
        # The public per-case verify calls; some cover several cases in one call.
        functions += [
            (fn, "suites.case", note_cases(fn))
            for fn in (operators.verify_identity, diagram.check_cell, diagram.check_two_complex,
                       diagram.check_derived_complex, koszul.homotopy_check, koszul.verify_right_inverse,
                       decompose.verify_decomposition, ball.verify_ibp, ball.verify_membership_steps)
        ]
        for fn, name, after in functions:
            self.patch_everywhere(fn, self.span_wrapper(name, fn, after))

    # -- results ---------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Flat per-layer metrics of everything recorded so far."""
        out: dict[str, float] = {}
        for name, (calls, self_s) in self.hot.items():
            out[f"{name}.calls"] = calls
            out[f"{name}.self_s"] = self_s
        stats = {name: {"calls": 0, "busy_s": 0.0, "self_s": 0.0} for name in self._span_names}
        stats.update(layer_stats(self.spans))
        for name, st in stats.items():
            for key, value in st.items():
                out[f"{name}.{key}"] = value
        c = self.counts
        out["poly.mul.coeff_mults"] = c["poly.mul.coeff_mults"]
        out["poly.mul.zero_operand_ratio"] = _ratio(c["poly.mul.zero_operands"], out["poly.mul.calls"])
        out["poly.scale.coeff_mults"] = c["poly.scale.coeff_mults"]
        out["poly.partial.coeff_mults"] = c["poly.partial.coeff_mults"]
        out["rational.nullspace.max_cols"] = c["rational.nullspace.max_cols"]
        out["koszul.kernel_basis.hit_ratio"] = _ratio(
            c["koszul.kernel_basis.hits"], out["koszul.kernel_basis.calls"]
        )
        out["ball.integrate_ball.even_term_ratio"] = _ratio(
            c["ball.integrate_ball.even_terms"], c["ball.integrate_ball.terms"]
        )
        cases = [rec[END] - rec[START] for rec in self.spans if rec[NAME] == "suites.case"]
        out["suites.case_s.p50"] = statistics.median(cases) if cases else 0.0
        out["suites.case_s.max"] = max(cases, default=0.0)
        return out


def _ratio(num, den) -> float:
    """num / den, and 0.0 when nothing was attempted."""
    return num / den if den else 0.0


def _library_modules():
    return [m for name, m in sorted(sys.modules.items()) if name.split(".")[0] == "tensorcomplex" and m]
