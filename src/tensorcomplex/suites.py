"""Verification suites with seeded determinism and machine-readable reports.

Identical configs produce byte-identical reports; wall-clock timings are
therefore excluded from reports unless explicitly requested.

This module loads `operators` and `diagram` (with `fields` and `poly`) and
nothing more, so a run pays to import and compile only what its suites call:

  * identities, cells, two-complex, derived-complexes: nothing more, since
    the 70 constant-coefficient rows live in `operators` and `diagram`;
  * pairings: `ball`, and through it `rational`, at its first case;
  * right-inverses: `koszul`, and through it `ball` and `rational`;
  * decompositions: `decompose`, and through it `koszul`, `ball` and `rational`.

Each runner imports its modules inside the function for that reason.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import NamedTuple

from . import diagram, operators
from .fields import X_FIELD, FieldKind, TypedField
from .operators import CheckResult, components_equal, run_check
from .poly import MAX_EXPONENT, P_ONE, Poly3


class SuiteConfig(NamedTuple):
    suite: str = "all"
    seed: int = 0
    degree: int = 3
    samples: int = 10
    format: str = "json"
    strict_preconditions: bool = False
    timings: bool = False


class Report:
    """The cases of one run, in order; `run_suite` fills its own `cases` list."""

    __slots__ = ("suite", "config", "cases")

    def __init__(self, suite: str, config: SuiteConfig):
        object.__setattr__(self, "suite", suite)
        object.__setattr__(self, "config", config)
        object.__setattr__(self, "cases", [])

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r} of a Report")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r} of a Report")

    @property
    def counts(self) -> dict[str, int]:
        out = {"pass": 0, "fail": 0, "error": 0}
        for c in self.cases:
            out[c.status] += 1
        out["total"] = len(self.cases)
        return out

    @property
    def all_passed(self) -> bool:
        return all(c.status == "pass" for c in self.cases)

    def to_dict(self) -> dict:
        cfg = self.config._asdict()
        cfg.pop("timings", None)
        cases = []
        for c in self.cases:
            d = {"name": c.name, "anchor": c.anchor, "status": c.status}
            if c.witness is not None:
                d["witness"] = c.witness
            if self.config.timings:
                d["duration_ms"] = c.duration_ms
            cases.append(d)
        return {"schema": 1, "suite": self.suite, "config": cfg, "cases": cases, "summary": self.counts}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    def to_markdown(self) -> str:
        lines = [
            f"# Suite: {self.suite}",
            "",
            f"config: seed={self.config.seed} degree={self.config.degree} "
            f"samples={self.config.samples} strict_preconditions={self.config.strict_preconditions}",
            "",
            "| case | anchor | status |" + (" time (ms) |" if self.config.timings else ""),
            "|-|-|-|" + ("-|" if self.config.timings else ""),
        ]
        for c in self.cases:
            row = f"| {c.name} | {c.anchor} | {c.status} |"
            if self.config.timings:
                row += f" {c.duration_ms} |"
            lines.append(row)
        s = self.counts
        lines += ["", f"summary: {s['pass']} pass, {s['fail']} fail, {s['error']} error of {s['total']}"]
        for c in self.cases:
            if c.witness is not None:
                lines += ["", f"## witness: {c.name}", "", "```", c.witness, "```"]
        return "\n".join(lines) + "\n"


def _suite_identities(cfg: SuiteConfig) -> list[CheckResult]:
    return operators.verify_all_identities(cfg.samples, cfg.degree, cfg.seed)


def _suite_cells(cfg: SuiteConfig) -> list[CheckResult]:
    return diagram.check_all_cells(cfg.samples, cfg.degree, cfg.seed)


def _suite_two_complex(cfg: SuiteConfig) -> list[CheckResult]:
    return diagram.check_two_complex(cfg.samples, cfg.degree, cfg.seed)


def _suite_derived(cfg: SuiteConfig) -> list[CheckResult]:
    return diagram.check_all_derived_complexes(cfg.samples, cfg.degree, cfg.seed)


def _ddd_unit_witness() -> CheckResult:
    """The closed-form check: Ddd(1) = x x^T / 12 with double divergence 1."""
    from . import koszul

    one = TypedField.scalar(P_ONE)
    x = X_FIELD.components
    expected = TypedField(FieldKind.SYMMETRIC, tuple((a * b).scale(Fraction(1, 12)) for a in x for b in x))
    return run_check(
        "Ddd(1) = x x^T / 12, div div = 1",
        "Lemma 3.5",
        1,
        lambda s: koszul.right_inverse("Ddd", one),
        lambda out: components_equal(out, expected) and components_equal(operators.OPS["div_div"](out), one),
    )


def _suite_right_inverses(cfg: SuiteConfig) -> list[CheckResult]:
    from . import koszul

    return [
        *koszul.homotopy_check(cfg.samples, cfg.degree, cfg.seed),
        *koszul.verify_right_inverses(cfg.samples, cfg.degree, cfg.seed, cfg.strict_preconditions),
        _ddd_unit_witness(),
    ]


def _suite_decompositions(cfg: SuiteConfig) -> list[CheckResult]:
    from . import decompose

    return decompose.verify_all_decompositions(cfg.samples, cfg.degree, cfg.seed)


def _ball_integral(name: str, p: Poly3, expected: str) -> CheckResult:
    """The closed-form check: the ball integral of p prints as `expected`."""
    from . import ball

    return run_check(
        name, "quadrature closed form", 1, lambda s: str(ball.integrate_ball(p)), lambda v: v == expected, str
    )


def _suite_pairings(cfg: SuiteConfig) -> list[CheckResult]:
    from . import ball

    return [
        _ball_integral("unit ball volume = 4/3*pi", P_ONE, "4/3*pi"),
        _ball_integral("integral of x1^2 = 4/15*pi", Poly3.monomial((2, 0, 0)), "4/15*pi"),
        *ball.verify_all_ibp(cfg.samples, cfg.degree, cfg.seed),
        *ball.verify_membership_steps(cfg.samples, cfg.degree, cfg.seed),
    ]


_SUITES = {
    "identities": _suite_identities,
    "cells": _suite_cells,
    "two-complex": _suite_two_complex,
    "derived-complexes": _suite_derived,
    "right-inverses": _suite_right_inverses,
    "decompositions": _suite_decompositions,
    "pairings": _suite_pairings,
}

SUITE_NAMES = tuple(_SUITES)


def check_config(cfg: SuiteConfig) -> None:
    """ValueError for an unknown suite, a degree outside 0..MAX_EXPONENT or no samples, before any work is done."""
    if cfg.suite != "all" and cfg.suite not in _SUITES:
        raise ValueError(f"unknown suite {cfg.suite!r}; choose from {', '.join(SUITE_NAMES)} or all")
    if cfg.degree < 0 or cfg.samples < 1:  # either would pass every case with nothing checked
        raise ValueError("degree must be >= 0 and samples >= 1")
    if cfg.degree > MAX_EXPONENT:  # refused before any monomial table or draw is built
        raise ValueError(f"degree {cfg.degree} is past {MAX_EXPONENT}, the largest exponent a monomial can hold")


def run_suite(cfg: SuiteConfig) -> Report:
    check_config(cfg)
    report = Report(cfg.suite, cfg)
    names = SUITE_NAMES if cfg.suite == "all" else (cfg.suite,)
    for name in names:
        report.cases.extend(_SUITES[name](cfg))
    return report
