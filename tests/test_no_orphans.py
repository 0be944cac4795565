"""Every top-level function and class of the package, and every attribute
that a package class sets, has a reader outside the tests: other package
code, or the benchmark harness, which binds engine functions by name for
its tracer.  Both guards match by name."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def parse_all(folder: Path, skip=()) -> dict:
    return {path.name: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
            for path in sorted(folder.glob("*.py")) if path.name not in skip}


def package_and_harness() -> tuple[dict, dict]:
    return (parse_all(ROOT / "src" / "multisecretary", skip=("__init__.py",)),
            parse_all(ROOT / "perfbench"))


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


def attribute_reads(node) -> set:
    """The attribute names read anywhere under ``node`` (an assignment to
    ``x.attr`` reads nothing), and its string constants."""
    found = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Attribute) and not isinstance(sub.ctx, ast.Store):
            found.add(sub.attr)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            found.add(sub.value)
    return found


def class_attributes(cls: ast.ClassDef) -> set:
    """The attributes ``cls`` sets: each name its body assigns or annotates
    (dataclass fields among them), each method but the dunder ones, and each
    ``self.x`` that a method assigns."""
    found = set()
    for stmt in cls.body:
        if isinstance(stmt, ast.Assign):
            found.update(target.id for target in stmt.targets if isinstance(target, ast.Name))
        elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
            found.add(stmt.target.id)
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if not (stmt.name.startswith("__") and stmt.name.endswith("__")):
                found.add(stmt.name)
            found.update(sub.attr for sub in ast.walk(stmt)
                         if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Store)
                         and isinstance(sub.value, ast.Name) and sub.value.id == "self")
    return found


def test_every_package_definition_has_a_caller_outside_the_tests():
    package, harness_trees = package_and_harness()
    harness = set().union(*(identifiers(tree, strings=True) for tree in harness_trees.values()))
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


def test_every_class_attribute_is_read_outside_the_tests():
    package, harness = package_and_harness()
    reads = set().union(*(attribute_reads(tree) for tree in [*package.values(), *harness.values()]))
    orphans, checked = [], 0
    for home, tree in package.items():
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            for name in sorted(class_attributes(cls)):
                checked += 1
                if name not in reads:
                    orphans.append(f"{home}:{cls.name}.{name}")
    assert checked > 40
    assert orphans == []
