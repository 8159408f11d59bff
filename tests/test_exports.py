"""Every name a permbinom module lists in __all__ must exist, so a deletion
cannot leave a stale export behind; and no module reaches into a sibling's
private names, so a sibling can rename them freely."""

import ast
import importlib
import pkgutil
from pathlib import Path

import permbinom


def test_all_exports_resolve():
    stale = []
    for info in pkgutil.iter_modules(permbinom.__path__):
        module = importlib.import_module(f"permbinom.{info.name}")
        stale += [f"{info.name}.{name}" for name in getattr(module, "__all__", ())
                  if not hasattr(module, name)]
    assert stale == []


def _private_imports(path: Path) -> list[str]:
    """`from .x import _y` (or from permbinom.x) in one module; dunders such
    as __version__ are public."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(node, ast.ImportFrom):
            continue
        if not node.level and not (node.module or "").startswith("permbinom"):
            continue
        found += [f"{path.stem}: from {'.' * node.level}{node.module or ''} import {alias.name}"
                  for alias in node.names
                  if alias.name.startswith("_") and not alias.name.endswith("__")]
    return found


def test_no_private_sibling_imports():
    found = []
    for path in sorted(Path(permbinom.__path__[0]).glob("*.py")):
        found += _private_imports(path)
    assert found == []
