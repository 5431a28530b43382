"""The public surface: every exported name resolves; only the CLI writes CSV."""

import ast
import importlib
import pkgutil
from pathlib import Path

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


def test_only_cli_imports_csv():
    importers = []
    for name in MODULES:
        tree = ast.parse(Path(importlib.import_module(name).__file__).read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                found = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                found = [node.module]
            else:
                continue
            if "csv" in found:
                importers.append(name)
    assert importers == ["regimeplan.cli"]
