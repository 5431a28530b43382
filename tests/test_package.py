"""The public surface: every exported name resolves."""

import importlib
import pkgutil

import pytest

import regimeplan

MODULES = ["regimeplan"] + [f"regimeplan.{info.name}"
                            for info in pkgutil.iter_modules(regimeplan.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ())
               if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"
