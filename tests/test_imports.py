"""The import graph: a run loads only the modules its suites call.

Without a bytecode cache every loaded module is compiled from source, so an
import that a suite never calls still costs it time before its first case.
"""

import ast
import json
import subprocess
import sys
from pathlib import Path

_SRC = Path(__file__).resolve().parents[1] / "src"

_WATCHED = ("tensorcomplex.koszul", "tensorcomplex.ball", "tensorcomplex.decompose", "tensorcomplex.rational",
            "dataclasses")

# Run in a fresh interpreter without site hooks, so only the library decides what is loaded.
_SCRIPT = f"""
import json, sys
sys.path.insert(0, {str(_SRC)!r})
import tensorcomplex.cli
from tensorcomplex.suites import SuiteConfig, run_suite

def loaded():
    return [name for name in {_WATCHED!r} if name in sys.modules]

stages = {{"import": loaded()}}
for suite in ("identities", "cells", "two-complex", "derived-complexes", "pairings"):
    assert run_suite(SuiteConfig(suite=suite, degree=1, samples=1)).all_passed
    stages[suite] = loaded()
print(json.dumps(stages))
"""


def test_the_diagram_suites_load_no_koszul_ball_decompose_rational_or_dataclasses():
    proc = subprocess.run([sys.executable, "-S", "-c", _SCRIPT], capture_output=True, text=True, check=True)
    stages = json.loads(proc.stdout)
    for stage in ("import", "identities", "cells", "two-complex", "derived-complexes"):
        assert stages[stage] == [], stage
    assert stages["pairings"] == ["tensorcomplex.ball", "tensorcomplex.rational"]


def test_no_library_module_imports_dataclasses():
    # Each decorated class costs `dataclasses` and `inspect` at import, and generated code on top.
    for path in sorted((_SRC / "tensorcomplex").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            assert "dataclasses" not in names, path.name
