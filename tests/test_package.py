"""Each public name is declared once, in its module's ``__all__``: the package
re-exports those lists and names no public name itself, so the two cannot
drift (a module's list once named a function the package did not export)."""

import ast
import sys
from pathlib import Path

import tsketch

# Every module but the CLI, whose one name, ``main``, is its entry point.
MODULES = ("ensembles", "errors", "evaluate", "formats", "recover", "sketch", "tensor")


def test_the_package_exports_each_modules_all() -> None:
    here = {path.stem for path in Path(tsketch.__file__).parent.glob("*.py")}
    assert here - {"__init__", "cli"} == set(MODULES)
    modules = [sys.modules[f"tsketch.{name}"] for name in MODULES]
    names = [name for module in modules for name in module.__all__]
    assert len(names) == len(set(names))
    assert sorted(tsketch.__all__) == sorted(names)
    for module in modules:
        for name in module.__all__:
            assert getattr(tsketch, name) is getattr(module, name), (module.__name__, name)
    assert sys.modules["tsketch.sketch"].sketch is tsketch.sketch  # the package's `sketch` is the function


def test_the_package_imports_no_name_by_hand() -> None:
    """``__init__.py`` imports its modules and their ``*``, never a name."""
    tree = ast.parse(Path(tsketch.__file__).read_text(encoding="utf-8"))
    named = [(node.module, alias.name) for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) and node.module for alias in node.names if alias.name != "*"]
    assert named == []
