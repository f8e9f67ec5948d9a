"""Checks over every klrim module: docstring examples, no bare asserts."""
import ast
import doctest
import importlib
import inspect
import pkgutil

import klrim


def test_docstring_examples():
    attempted = 0
    for info in pkgutil.iter_modules(klrim.__path__):
        module = importlib.import_module(f"klrim.{info.name}")
        result = doctest.testmod(module)
        assert result.failed == 0, info.name
        attempted += result.attempted
    assert attempted > 0


def test_invariants_survive_optimized_mode():
    # python -O strips assert statements, so invariants must raise explicitly
    for info in pkgutil.iter_modules(klrim.__path__):
        module = importlib.import_module(f"klrim.{info.name}")
        tree = ast.parse(inspect.getsource(module))
        asserts = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
        assert asserts == [], (info.name, asserts)
