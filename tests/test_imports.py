"""Module boundaries: no ``ctcspot`` module reads another's private name
or imports a name it never uses, the package exports exactly what it
binds, and the CLI module runs."""

import ast
import os
import subprocess
import sys
import types
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


def _unused_imports(path: Path) -> list[str]:
    """The names the file imports (``__future__`` features aside) and never
    reads; ``import a.b`` binds ``a``."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


# bench/drive.py patches pipeline.spot_offline by name, so pipeline binds it
UNUSED_IMPORTS_KEPT = {"pipeline.py": ["spot_offline"]}


def test_no_module_imports_a_name_it_never_uses():
    """``__init__`` is left out: it imports names to export them."""
    found = {
        path.name: names
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "__init__.py" and (names := _unused_imports(path))
    }
    assert found == UNUSED_IMPORTS_KEPT


def test_all_names_exactly_the_public_bindings():
    """Every name in ``__all__`` resolves, and every public name that
    ``__init__`` binds, apart from its submodules, is in ``__all__``."""
    assert all(hasattr(ctcspot, name) for name in ctcspot.__all__)
    bound = {
        name
        for name, value in vars(ctcspot).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert bound == set(ctcspot.__all__)


def test_module_entry_point_prints_help():
    done = subprocess.run(
        [sys.executable, "-B", "-m", "ctcspot.cli", "--help"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)},
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("usage: ctcspot")
