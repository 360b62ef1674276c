"""Module layering that the code relies on but no other test would notice."""

import ast
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


def test_only_ratfunc_imports_fractions():
    # the coefficient type lives in one module, so changing it is one edit
    users = sorted(p.name for p in SRC.glob("*.py") if "fractions" in _imported_modules(p))
    assert users == ["ratfunc.py"]


def test_perms_imports_no_package_module_but_errors():
    # the census is the oracle: it must not reach the engine's block decomposition
    package = {m for m in _imported_modules(SRC / "perms.py") if m.startswith((".", "patgf"))}
    assert package == {".errors"}
