"""Checks over every klrim module: docstring examples, no bare asserts, no
raised AssertionError and no unused import."""
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


def _raises_assertion_error(node: ast.AST) -> bool:
    if not isinstance(node, ast.Raise) or node.exc is None:
        return False
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return isinstance(exc, ast.Name) and exc.id == "AssertionError"


def test_invariants_survive_optimized_mode():
    # python -O strips assert statements, so invariants must raise explicitly;
    # a broken invariant raises RuntimeError, never AssertionError, which
    # reads as a failed assert
    for info in pkgutil.iter_modules(klrim.__path__):
        module = importlib.import_module(f"klrim.{info.name}")
        tree = ast.parse(inspect.getsource(module))
        asserts = [
            node.lineno
            for node in ast.walk(tree)
            if isinstance(node, ast.Assert) or _raises_assertion_error(node)
        ]
        assert asserts == [], (info.name, asserts)


def _imported_names(tree: ast.Module) -> dict[str, int]:
    """Name bound by each import -> its line; ``__future__`` is no name."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def test_every_import_is_used():
    # __init__ imports in order to re-export, so it is not scanned
    unused, scanned = {}, 0
    for info in pkgutil.iter_modules(klrim.__path__):
        module = importlib.import_module(f"klrim.{info.name}")
        tree = ast.parse(inspect.getsource(module))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        imported = _imported_names(tree)
        scanned += len(imported)
        unused.update((f"{info.name}.{name}", line) for name, line in imported.items() if name not in used)
    assert scanned > 0 and unused == {}
