"""Rules the source tree keeps, checked on its syntax trees."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _public_definitions():
    """(module, name) of each public top-level function or class of the
    package, outside its __init__."""
    for path in sorted((ROOT / "src" / "rigpose").glob("*.py")):
        if path.name != "__init__.py":
            for node in ast.parse(path.read_text()).body:
                if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name[0] != "_":
                    yield path.stem, node.name


def _references(path, strings: bool) -> set:
    """Names a file loads or reads as attributes, and with strings its
    string constants: the benchmark's tracer wraps functions it names by
    (module, name) strings."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)
    return names


def test_every_public_name_has_a_reference_outside_the_tests():
    used = set().union(*(_references(p, strings=False)
                         for p in (ROOT / "src" / "rigpose").glob("*.py")),
                       *(_references(p, strings=True) for p in (ROOT / "perfbench").glob("*.py")))
    public = list(_public_definitions())
    assert len(public) > 50
    unused = [f"{module}.{name}" for module, name in public if name not in used]
    assert not unused, f"public names only the tests use: {unused}"


def test_json_input_is_read_only_in_errors():
    # errors.read_json and errors.build_block hold the one rule for JSON
    # input; a module that parsed JSON itself would bring rules of its own.
    readers = {"load", "loads", "JSONDecodeError"}
    where = {}
    for path in sorted((ROOT / "src" / "rigpose").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.module == "json":
                used = {alias.name for alias in node.names}
            elif isinstance(node, ast.Attribute):
                used = {node.attr}
            else:
                used = {node.id} if isinstance(node, ast.Name) else set()
            for name in used & readers:
                where.setdefault(name, set()).add(path.name)
    assert where == {name: {"errors.py"} for name in ("load", "JSONDecodeError")}, where
