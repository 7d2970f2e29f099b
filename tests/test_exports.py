"""Every name in a ``dualqa`` module's ``__all__`` resolves, so a deletion
cannot leave a stale export behind."""

import importlib
import pkgutil

import pytest

import dualqa

MODULES = sorted(m.name for m in pkgutil.iter_modules(dualqa.__path__))


@pytest.mark.parametrize("module", MODULES)
def test_all_names_resolve(module):
    mod = importlib.import_module(f"dualqa.{module}")
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []
