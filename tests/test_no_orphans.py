"""Every top-level function and class of the package has a caller outside
the tests: a reference in other package code, or in the benchmark harness,
which binds engine functions by name for its tracer."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def parse_all(folder: Path, skip=()) -> dict:
    return {path.name: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
            for path in sorted(folder.glob("*.py")) if path.name not in skip}


def identifiers(node, strings=False) -> set:
    """The names and attribute names read anywhere under ``node``, and its
    string constants when ``strings`` is set.  An import alone reads nothing."""
    found = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            found.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            found.add(sub.attr)
        elif strings and isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            found.add(sub.value)
    return found


def test_every_package_definition_has_a_caller_outside_the_tests():
    package = parse_all(ROOT / "src" / "multisecretary", skip=("__init__.py",))
    harness = set().union(*(identifiers(tree, strings=True)
                            for tree in parse_all(ROOT / "perfbench").values()))
    # the references of every top-level statement of the package
    statements = [(stmt, identifiers(stmt)) for tree in package.values() for stmt in tree.body]
    orphans, checked = [], 0
    for home, tree in package.items():
        for stmt in tree.body:
            if not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            name = stmt.name
            checked += 1
            called = name in harness or any(
                name in refs for other, refs in statements if other is not stmt)
            if not called:
                orphans.append(f"{home}:{name}")
    assert checked > 50
    assert orphans == []
