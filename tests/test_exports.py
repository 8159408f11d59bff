"""Every name a permbinom module lists in __all__ must exist, so a deletion
cannot leave a stale export behind."""

import importlib
import pkgutil

import permbinom


def test_all_exports_resolve():
    stale = []
    for info in pkgutil.iter_modules(permbinom.__path__):
        module = importlib.import_module(f"permbinom.{info.name}")
        stale += [f"{info.name}.{name}" for name in getattr(module, "__all__", ())
                  if not hasattr(module, name)]
    assert stale == []
