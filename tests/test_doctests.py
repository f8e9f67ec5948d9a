"""Checks over every klrim module: docstring examples, no bare asserts, no
raised AssertionError, no unused import (in the test support module too)
and no read of the environment."""
import ast
import doctest
import importlib
import inspect
import pkgutil

import klrim
import support


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
    # __init__ imports in order to re-export, so it is not scanned; the test
    # support module, which holds the oracles, is
    unused, scanned = {}, 0
    modules = [importlib.import_module(f"klrim.{info.name}") for info in pkgutil.iter_modules(klrim.__path__)]
    for module in modules + [support]:
        tree = ast.parse(inspect.getsource(module))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        imported = _imported_names(tree)
        scanned += len(imported)
        unused.update((f"{module.__name__}.{name}", line) for name, line in imported.items() if name not in used)
    assert scanned > 0 and unused == {}


_ENVIRONMENT_NAMES = {"environ", "environb", "getenv", "getenvb"}


def _environment_reads(tree: ast.Module) -> list[int]:
    """Lines that import ``os`` or name a part of its environment API."""
    lines = set()
    for node in ast.walk(tree):
        modules, names = [], {getattr(node, "attr", None), getattr(node, "id", None)}
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            modules = [node.module or ""]
            names.update(alias.name for alias in node.names)
        if any(m.partition(".")[0] == "os" for m in modules) or names & _ENVIRONMENT_NAMES:
            lines.add(node.lineno)
    return sorted(lines)


def test_no_module_reads_the_environment():
    # --max-n is the only search bound: no module imports os or reads an
    # environment variable; the sample shows that the scan sees each form
    sample = "import os.path\nfrom posix import getenv\nbound = os.environ.get('N')\n"
    assert _environment_reads(ast.parse(sample)) == [1, 2, 3]
    reads, scanned = {}, 0
    for info in pkgutil.iter_modules(klrim.__path__):
        module = importlib.import_module(f"klrim.{info.name}")
        scanned += 1
        lines = _environment_reads(ast.parse(inspect.getsource(module)))
        if lines:
            reads[info.name] = lines
    assert scanned > 0 and reads == {}
