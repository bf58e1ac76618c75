"""The package's public names all resolve."""

import importlib
import pkgutil

import phdfuse


def test_every_exported_name_resolves():
    modules = [phdfuse] + [
        importlib.import_module(f"phdfuse.{info.name}")
        for info in pkgutil.iter_modules(phdfuse.__path__)
    ]
    stale = [
        f"{module.__name__}.{name}"
        for module in modules
        for name in getattr(module, "__all__", ())
        if not hasattr(module, name)
    ]
    assert stale == []
