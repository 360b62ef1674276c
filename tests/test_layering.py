"""Module layering that the code relies on but no other test would notice."""

import ast
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "patgf"


def _imported_modules(path: Path) -> set[str]:
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            names.add("." * node.level + (node.module or ""))
    return names


def test_perms_imports_no_package_module_but_errors():
    # the census is the oracle: it must not reach the engine's block decomposition
    package = {m for m in _imported_modules(SRC / "perms.py") if m.startswith((".", "patgf"))}
    assert package == {".errors"}


def test_patternquery_is_the_one_pattern_validator():
    # a query's patterns are checked in one place: PatternQuery (and the
    # pattern parser) in perms call is_permutation, and the engine leaves
    # the 132 check to decompose
    callers = sorted(p.name for p in SRC.glob("*.py")
                     for node in ast.walk(ast.parse(p.read_text(encoding="utf-8")))
                     if isinstance(node, ast.Call)
                     and "is_permutation" in (getattr(node.func, "id", None),
                                              getattr(node.func, "attr", None)))
    assert set(callers) == {"perms.py"}, callers
    engine = ast.parse((SRC / "engine.py").read_text(encoding="utf-8"))
    imported = {alias.name for node in ast.walk(engine) if isinstance(node, ast.ImportFrom)
                for alias in node.names}
    assert not imported & {"PATTERN_132", "is_permutation"}, imported


def _fraction_uses(tree: ast.Module) -> set[str]:
    """Where the name `Fraction` is used, a string forward reference to it
    included: the qualified name of the enclosing function, or of the
    module-level assignment, for each use."""
    places = set()

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        elif isinstance(node, ast.Assign) and not scope:
            scope = ",".join(ast.unparse(t) for t in node.targets)
        if (isinstance(node, ast.Name) and node.id == "Fraction") or \
                (isinstance(node, ast.Attribute) and node.attr == "Fraction") or \
                (isinstance(node, ast.Constant) and node.value == "Fraction"):
            places.add(scope)
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, "")
    return places


def test_no_module_uses_fractions():
    # every number is an int: polynomials are over Z, and a series is taken
    # only where den(0) = 1, so no module imports fractions or names Fraction
    for path in SRC.glob("*.py"):
        assert "fractions" not in _imported_modules(path), path.name
        assert not _fraction_uses(ast.parse(path.read_text(encoding="utf-8"))), path.name


def test_import_leaves_out_dataclasses_inspect_and_fractions():
    # the package and its CLI load only what they use: records are named
    # tuples or slotted classes, and no module imports Fraction
    script = ("import sys, patgf, patgf.cli\n"
              "print(sorted(m for m in ('dataclasses', 'inspect', 'fractions') if m in sys.modules))")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env={"PYTHONPATH": str(SRC.parent)}, check=True)
    assert proc.stdout.strip() == "[]"
