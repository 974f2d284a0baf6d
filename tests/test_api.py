"""Public names: every `__all__` entry and every package re-export resolves."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import hipllm

MODULES = sorted(m.name for m in pkgutil.iter_modules(hipllm.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_entries_resolve(name):
    module = importlib.import_module(f"hipllm.{name}")
    names = getattr(module, "__all__", [])
    assert len(set(names)) == len(names), "duplicate __all__ entries"
    assert [n for n in names if not hasattr(module, n)] == []


def test_package_reexports_resolve():
    tree = ast.parse(Path(hipllm.__file__).read_text())
    reexports = [
        (node.module, alias.name)
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]
    assert reexports
    for module_name, name in reexports:
        module = importlib.import_module(f"hipllm.{module_name}")
        assert name in module.__all__, f"{module_name}.{name} is not public"
        assert getattr(hipllm, name) is getattr(module, name)
