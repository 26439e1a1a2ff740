import ast
from pathlib import Path

_ROOT = Path(__file__).resolve().parents[1]
_PACKAGE = _ROOT / "src" / "tensorcomplex"


def _production_files() -> list[Path]:
    """The library, the scripts and the benchmark harness; test files excluded."""
    bench = [p for p in sorted((_ROOT / "perfbench").glob("*.py")) if not p.name.startswith("test_")]
    return sorted(_PACKAGE.glob("*.py")) + sorted((_ROOT / "scripts").glob("*.py")) + bench


def _definitions(tree: ast.Module) -> list[tuple[str, str]]:
    """(qualified name, bare name) of each module-level function or class and
    each non-dunder method."""
    out = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            out.append((node.name, node.name))
        if isinstance(node, ast.ClassDef):
            out.extend(
                (f"{node.name}.{m.name}", m.name)
                for m in node.body
                if isinstance(m, ast.FunctionDef) and not (m.name.startswith("__") and m.name.endswith("__"))
            )
    return out


def test_every_library_definition_is_reached_outside_the_tests():
    # A definition whose name appears nowhere in production code but in its own
    # `def` / `class` line is surface that only tests keep alive: move it into
    # the test that needs it, or delete it.  The match is by bare name, so a
    # name shared with something that is used is never flagged.
    used = {
        node.id if isinstance(node, ast.Name) else node.attr
        for path in _production_files()
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
        if isinstance(node, (ast.Name, ast.Attribute))
    }
    unused = [
        f"{path.stem}.{qualified}"
        for path in sorted(_PACKAGE.glob("*.py"))
        for qualified, name in _definitions(ast.parse(path.read_text(encoding="utf-8"), str(path)))
        if name not in used
    ]
    assert unused == []


def test_every_operator_key_is_named_outside_the_operators_module():
    # The composite operators are words in OPS, not `def`s, so the scan above
    # cannot see them.  Every OPS key must be named as a string in production
    # code outside operators.py (a diagram, pairing, right-inverse or
    # decomposition table) or by a side of an IDENTITIES row, or it is a dead
    # word.
    from tensorcomplex.operators import IDENTITIES, OPS

    named = {
        node.value
        for path in _production_files()
        if path != _PACKAGE / "operators.py"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
    }
    named |= {side.name for ident in IDENTITIES.values() for side in ident.sides}
    assert [name for name in OPS if name not in named] == []


def _is_class_or_static(method: ast.FunctionDef) -> bool:
    return any(isinstance(d, ast.Name) and d.id in ("classmethod", "staticmethod") for d in method.decorator_list)


def _calls_through(tree: ast.AST, owners: tuple[str, ...]) -> set[str]:
    """Attribute names read off a name or attribute in `owners`, anywhere in tree."""
    return {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and ((isinstance(node.value, ast.Name) and node.value.id in owners)
             or (isinstance(node.value, ast.Attribute) and node.value.attr in owners))
    }


def test_every_class_or_static_method_is_reached_through_its_class():
    # The bare-name scan above cannot tell `TypedField.zero` from a used
    # `Poly3.zero`.  A classmethod or staticmethod must be read in production
    # code as `ClassName.method`, or as `cls.method` / `self.method` inside
    # its own class.
    trees = [ast.parse(path.read_text(encoding="utf-8"), str(path)) for path in _production_files()]
    unused = []
    for path in sorted(_PACKAGE.glob("*.py")):
        for cls in ast.parse(path.read_text(encoding="utf-8"), str(path)).body:
            if not isinstance(cls, ast.ClassDef):
                continue
            reached = set().union(*(_calls_through(tree, (cls.name,)) for tree in trees))
            reached |= _calls_through(cls, ("cls", "self"))
            unused += [
                f"{path.stem}.{cls.name}.{m.name}"
                for m in cls.body
                if isinstance(m, ast.FunctionDef) and _is_class_or_static(m) and m.name not in reached
            ]
    assert unused == []



def test_every_instance_method_is_reached_as_an_attribute():
    # The bare-name scan above also counts local variables: `row` is a loop
    # variable in rational.py.  A non-dunder instance method must be read as
    # an attribute, `x.method`, somewhere in production code.  The match is by
    # attribute name, so a data attribute of the same name still counts.
    read = {
        node.attr
        for path in _production_files()
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
        if isinstance(node, ast.Attribute)
    }
    unused = [
        f"{path.stem}.{cls.name}.{m.name}"
        for path in sorted(_PACKAGE.glob("*.py"))
        for cls in ast.parse(path.read_text(encoding="utf-8"), str(path)).body
        if isinstance(cls, ast.ClassDef)
        for m in cls.body
        if isinstance(m, ast.FunctionDef)
        and not (m.name.startswith("__") and m.name.endswith("__"))
        and not _is_class_or_static(m)
        and m.name not in read
    ]
    assert unused == []


def _calls(node: ast.AST, name: str) -> bool:
    """Whether node calls a function or method of the given name."""
    return isinstance(node, ast.Call) and getattr(node.func, "id", getattr(node.func, "attr", None)) == name


def _argument(call: ast.Call, index: int, name: str) -> ast.expr | None:
    """The call's argument at position `index` or with keyword `name`."""
    if len(call.args) > index:
        return call.args[index]
    return next((k.value for k in call.keywords if k.arg == name), None)


def test_no_sampled_case_hands_run_check_a_closure():
    # Every case checks through a method or field of its row (`row.holds`, or
    # `partial(row.holds, ...)`) or a module-level function, so the check of
    # any case can be reached by name outside the call that runs it.  A lambda,
    # a function defined inside another function or a local variable as
    # `holds` hides it.  The closed forms, checked once, are rows too.
    offenders = []
    for path in sorted(_PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        module_functions = {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}
        for call in ast.walk(tree):
            if not _calls(call, "run_check"):
                continue
            holds = _argument(call, 4, "holds")
            if _calls(holds, "partial"):
                holds = holds.args[0]
            if not (isinstance(holds, ast.Attribute) or isinstance(holds, ast.Name) and holds.id in module_functions):
                offenders.append(f"{path.stem}:{call.lineno}")
    assert offenders == []
