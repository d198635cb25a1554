"""Every exported name resolves: a name left in an ``__all__`` after its code
is gone fails here rather than at a caller's ``from ... import *``."""

import importlib
import pkgutil

import pytest

import moditer

MODULES = sorted(m.name for m in pkgutil.iter_modules(moditer.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_module_exports_resolve(name):
    module = importlib.import_module(f"moditer.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, missing


def test_package_exports_resolve():
    # the package does not import every submodule it lists (cli among them)
    for name in MODULES:
        importlib.import_module(f"moditer.{name}")
    missing = [n for n in moditer.__all__ if not hasattr(moditer, n)]
    assert not missing, missing
