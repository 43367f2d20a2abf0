"""Every name a library module imports is used in that module.

No linter ships with the test dependencies, so this walks each module's
syntax tree.  The package `__init__` is left out: it imports to re-export.
"""

import ast
from pathlib import Path

import pytest

import chercomb

MODULES = sorted(p for p in Path(chercomb.__file__).parent.glob("*.py") if p.name != "__init__.py")


def imported_names(tree):
    """name bound by each import in the module -> line of the import"""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = {name: line for name, line in imported_names(tree).items() if name not in used}
    assert not unused, f"{path.name} imports names it never uses: {unused}"
