"""Run the examples in the docstrings of every klrim module."""
import doctest
import importlib
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
