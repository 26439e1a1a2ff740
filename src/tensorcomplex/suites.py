"""Verification suites with seeded determinism and machine-readable reports.

Identical configs produce byte-identical reports; wall-clock timings are
therefore excluded from reports unless explicitly requested.

A suite is its rows: `suite_rows(name)` builds them, in report order, and
`run_suite` calls `row.verify(cfg, memo)` on each.  This module loads
`operators` and `diagram` (with `fields` and `poly`); a suite imports what
else its rows need:

  * identities, cells, two-complex, derived-complexes: nothing more;
  * pairings: `ball`, and through it `rational`;
  * right-inverses: `koszul`, and through it `ball` and `rational`;
  * decompositions: `decompose`, and through it `koszul`, `ball` and `rational`.
"""

from __future__ import annotations

import json
from importlib import import_module
from typing import NamedTuple

from . import diagram, operators
from .operators import CheckResult, SuiteConfig
from .poly import MAX_EXPONENT


class Report(NamedTuple):
    """The cases of one run, in order."""

    suite: str
    config: SuiteConfig
    cases: tuple[CheckResult, ...] = ()

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


# Each suite, in report order, and what builds its rows from the current data; `koszul`, `decompose` and
# `ball` are imported when their suite runs, not before.
_SUITES = {
    "identities": operators.IDENTITIES.values,
    "cells": diagram.cell_rows,
    "two-complex": diagram.two_complex_rows,
    "derived-complexes": diagram.derived_complex_rows,
    "right-inverses": lambda: import_module(".koszul", __package__).right_inverse_rows(),
    "decompositions": lambda: import_module(".decompose", __package__).decomposition_rows(),
    "pairings": lambda: import_module(".ball", __package__).pairing_rows(),
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


def suite_rows(name: str) -> list:
    """The rows of the named suite, in report order, built from the current data."""
    return list(_SUITES[name]())


def run_suite(cfg: SuiteConfig) -> Report:
    """Every row of the configured suite, or of each suite in turn, verified with one memo for the run."""
    check_config(cfg)
    names, memo = SUITE_NAMES if cfg.suite == "all" else (cfg.suite,), {}
    return Report(cfg.suite, cfg, tuple(row.verify(cfg, memo) for name in names for row in suite_rows(name)))
