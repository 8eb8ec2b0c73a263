"""The demos' names from tfdl resolve, checked without running the demos."""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


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
