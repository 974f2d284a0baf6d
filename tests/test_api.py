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


def test_one_exception_per_exit_code():
    from hipllm import baselines, config, hyperposterior, model, numerics

    assert hyperposterior.NumericalError is numerics.NumericalError is baselines.NumericalError
    assert config.ConfigError is model.ConfigError
    assert issubclass(model.ValidationError, model.ConfigError)
    errors = [name for name, value in vars(numerics).items() if isinstance(value, type) and issubclass(value, Exception)]
    assert errors == ["NumericalError"]


def test_baselines_imports_no_engine_module():
    # the closed-form baselines stand apart from the grid posterior and the
    # Monte Carlo engine: they share only the data model and the numerics
    tree = ast.parse((Path(hipllm.__file__).parent / "baselines.py").read_text())
    relative = {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.level}
    assert relative and relative <= {"model", "numerics"}
