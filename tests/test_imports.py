"""Module boundaries: no ``ctcspot`` module reads another's private name."""

import ast
from pathlib import Path

import ctcspot

PACKAGE = Path(ctcspot.__file__).resolve().parent


def _private_imports(path: Path) -> list[str]:
    """``module.name`` for each single-underscore name the file imports from
    a sibling module (relative) or any ``ctcspot`` module (absolute)."""
    out = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(node, ast.ImportFrom):
            continue
        module = node.module or ""
        if node.level == 0 and module != "ctcspot" and not module.startswith("ctcspot."):
            continue
        for alias in node.names:
            name = alias.name
            if name.startswith("_") and not name.startswith("__"):
                out.append(f"{'.' * node.level}{module}.{name}")
    return out


def test_no_module_imports_a_private_name_from_another():
    found = {
        path.name: names
        for path in sorted(PACKAGE.glob("*.py"))
        if (names := _private_imports(path))
    }
    assert found == {}
