"""The public names: every entry of an `__all__` is defined."""
from __future__ import annotations

import importlib
import pkgutil

import kdvcorr


def test_every_exported_name_resolves():
    modules = [kdvcorr] + [
        importlib.import_module(f"kdvcorr.{info.name}")
        for info in pkgutil.iter_modules(kdvcorr.__path__)
    ]
    missing = [
        f"{module.__name__}.{name}"
        for module in modules
        for name in getattr(module, "__all__", ())
        if not hasattr(module, name)
    ]
    assert not missing
    assert len(set(kdvcorr.__all__)) == len(kdvcorr.__all__)
