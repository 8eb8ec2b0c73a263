"""The demos' and the README's names from tfdl resolve, checked without running
them, and the package's public surface holds no modules."""

import ast
import importlib
import importlib.util
import re
import types
from pathlib import Path

import pytest

import tfdl

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def _tfdl_names(tree):
    """(module, name) for every ``from tfdl... import name`` and ``tfdl.<name>``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "tfdl":
            yield from ((node.module, alias.name) for alias in node.names)
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id == "tfdl"):
            yield "tfdl", node.attr


def _resolves(module, name):
    """``name`` is an attribute of ``module`` or, for a package, a submodule."""
    mod = importlib.import_module(module)
    return hasattr(mod, name) or (hasattr(mod, "__path__") and
                                  importlib.util.find_spec(f"{module}.{name}") is not None)


def test_every_demo_is_checked():
    assert len(DEMOS) >= 6


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_imports_resolve(path):
    names = set(_tfdl_names(ast.parse(path.read_text(), filename=str(path))))
    assert names
    assert [f"{m}.{n}" for m, n in sorted(names) if not _resolves(m, n)] == []


def test_public_names_resolve_and_are_not_modules():
    assert tfdl.__all__
    assert [name for name in tfdl.__all__ if not hasattr(tfdl, name)] == []
    assert [name for name in tfdl.__all__
            if isinstance(getattr(tfdl, name), types.ModuleType)] == []


def test_readme_python_names_resolve():
    blocks = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    names = {pair for block in blocks for pair in _tfdl_names(ast.parse(block))}
    assert names
    assert [f"{m}.{n}" for m, n in sorted(names) if not _resolves(m, n)] == []
