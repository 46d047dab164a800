"""Every name in a module's ``__all__`` resolves, so that a stale export fails here
instead of breaking ``from eigensphere.<module> import *``."""
import importlib
import pkgutil

import pytest

import eigensphere

MODULES = sorted(m.name for m in pkgutil.iter_modules(eigensphere.__path__) if m.name != "__main__")


@pytest.mark.parametrize("name", MODULES)
def test_exports_resolve(name):
    module = importlib.import_module(f"eigensphere.{name}")
    assert not [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
