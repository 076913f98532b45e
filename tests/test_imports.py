"""Every name a package module imports is used in that module."""

import ast
from pathlib import Path

import pytest

import qtmat

_MODULES = sorted(p for p in Path(qtmat.__file__).parent.glob("*.py")
                  if p.name != "__init__.py")


def _unused_imports(source):
    """Names bound by import statements that the module never reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


@pytest.mark.parametrize("path", _MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert _unused_imports(path.read_text()) == []


def test_the_check_sees_an_unused_import():
    source = "import math\nfrom os import path, sep\nprint(path)\n"
    assert _unused_imports(source) == [(1, "math"), (2, "sep")]
