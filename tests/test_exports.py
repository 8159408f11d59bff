"""Every name a permbinom module lists in __all__ must exist, and every name
it imports must be used or exported, so a deletion cannot leave a stale
export or import behind; and no module reaches into a sibling's private
names, so a sibling can rename them freely."""

import ast
import importlib
import itertools
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


def _unused_imports(path: Path) -> list[str]:
    """Names a module imports but neither uses nor lists in __all__; a name
    used only in a string annotation counts as used."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((alias.asname or alias.name.split(".")[0], node.lineno) for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update((alias.asname or alias.name, node.lineno) for alias in node.names)
    annotations = [node.annotation for node in ast.walk(tree)
                   if isinstance(node, (ast.arg, ast.AnnAssign)) and node.annotation]
    annotations += [node.returns for node in ast.walk(tree)
                    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns]
    quoted = [ast.parse(node.value, mode="eval") for ann in annotations for node in ast.walk(ann)
              if isinstance(node, ast.Constant) and isinstance(node.value, str)]
    used = set()
    for node in itertools.chain(ast.walk(tree), *map(ast.walk, quoted)):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return [f"{path.stem}:{line}: {name}" for name, line in sorted(imported.items()) if name not in used]


def test_no_unused_imports():
    found = []
    for path in sorted(Path(permbinom.__path__[0]).glob("*.py")):
        found += _unused_imports(path)
    assert found == []


def _rational_names(path: Path, allowed_functions=()) -> list[str]:
    """Each use of the name Fraction or RatPoly in one module, as a name, an
    attribute or an import, outside the bodies of allowed_functions; the
    import that those functions need is allowed with them."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    skipped = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and node.name in allowed_functions:
            skipped.update(map(id, ast.walk(node)))
        elif allowed_functions and isinstance(node, ast.ImportFrom) and node.module == "fractions":
            skipped.update(map(id, ast.walk(node)))
    found = []
    for node in ast.walk(tree):
        names = (getattr(node, "id", None), getattr(node, "attr", None))
        if isinstance(node, ast.alias):
            names = (node.name, node.asname)
        if id(node) not in skipped and {"Fraction", "RatPoly"} & set(names):
            found.append(f"{path.stem}:{node.lineno}")
    return found


def test_exact_algebra_names_no_rational_ring():
    # Z is the one exact ring of the algebra: exactalg and powersum name
    # neither Fraction nor RatPoly, except where identity_value builds the
    # rational value that a report prints
    src = Path(permbinom.__path__[0])
    assert _rational_names(src / "exactalg.py") == []
    assert _rational_names(src / "powersum.py", ("_identity_sum", "identity_value")) == []
