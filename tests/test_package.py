"""The public surface: every exported name resolves; only the CLI writes files;
the package imports nothing beyond the standard library and numpy."""

import ast
import importlib
import pkgutil
import subprocess
import sys
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


def _writes_file(call: ast.Call) -> bool:
    """json.dump, write_text/write_bytes, or open with a w/a/x mode literal."""
    func = call.func
    name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
    if name in ("write_text", "write_bytes"):
        return True
    if name == "dump":
        return isinstance(func, ast.Attribute) and getattr(func.value, "id", None) == "json"
    if name != "open":
        return False
    modes = call.args[:2] + [kw.value for kw in call.keywords if kw.arg == "mode"]
    return any(isinstance(arg, ast.Constant) and isinstance(arg.value, str)
               and set(arg.value) <= set("rwaxbt+") and set(arg.value) & set("wax")
               for arg in modes)


def test_only_cli_writes_files():
    writers = set()
    for name in MODULES:
        tree = ast.parse(Path(importlib.import_module(name).__file__).read_text())
        if any(isinstance(node, ast.Call) and _writes_file(node) for node in ast.walk(tree)):
            writers.add(name)
    assert sorted(writers) == ["regimeplan.cli"]


def test_only_chain_walks():
    # the regime walk, its tables and their checks live in chain alone
    users = set()
    for name in MODULES:
        tree = ast.parse(Path(importlib.import_module(name).__file__).read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                found = [node.id]
            elif isinstance(node, ast.Attribute):
                found = [node.attr]
            elif isinstance(node, ast.ImportFrom):
                found = [alias.name for alias in node.names]
            else:
                continue
            if {"_block_walk", "_jump_tables"} & set(found):
                users.add(name)
    assert sorted(users) == ["regimeplan.chain"]


def test_only_pool_imports_subprocess():
    # worker processes start, and are reaped, in one place
    importers = []
    for name in MODULES:
        tree = ast.parse(Path(importlib.import_module(name).__file__).read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                found = [alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                found = [node.module.split(".")[0]]
            else:
                continue
            if "subprocess" in found:
                importers.append(name)
    assert importers == ["regimeplan._pool"]


def test_only_main_maps_exit_codes():
    # commands raise; cli.main alone turns ValueError into 2 and NonConvergence into 3
    users = set()
    for name in MODULES:
        tree = ast.parse(Path(importlib.import_module(name).__file__).read_text())
        for top in tree.body:
            for node in ast.walk(top):
                if (isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
                        and node.id in ("EXIT_CONFIG", "EXIT_SOLVER")):
                    users.add(f"{name}.{getattr(top, 'name', '<module>')}")
    assert sorted(users) == ["regimeplan.cli.main"]


def test_src_imports_only_stdlib_and_numpy():
    # numpy is the one runtime dependency (pyproject.toml); scipy is not
    allowed = set(sys.stdlib_module_names) | {"numpy"}
    foreign = set()
    for name in MODULES:
        tree = ast.parse(Path(importlib.import_module(name).__file__).read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                roots = [alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                roots = [node.module.split(".")[0]]
            else:
                continue
            foreign.update(f"{name}: {root}" for root in roots if root not in allowed)
    assert not foreign, sorted(foreign)


def test_import_loads_no_process_machinery():
    # the engine imports its worker machinery only when it starts a worker
    code = ("import sys, regimeplan, regimeplan.cli; print(sorted(name for name in "
            "('multiprocessing', 'concurrent', 'subprocess') if name in sys.modules))")
    src = str(Path(regimeplan.__file__).parents[1])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={"PYTHONPATH": src}, check=True)
    assert out.stdout.strip() == "[]"
