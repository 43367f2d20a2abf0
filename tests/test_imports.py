"""Every name a library module imports is used in that module, and every
top-level function or class it defines, and every method or property of
such a class, is named somewhere else.

No linter ships with the test dependencies, so this walks each module's
syntax tree.  The package `__init__` is left out: it imports to re-export.
"""

import ast
from pathlib import Path

import pytest

import chercomb

PACKAGE = Path(chercomb.__file__).parent
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
REPO = Path(__file__).resolve().parent.parent


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


def named(tree, strings):
    """Every identifier the tree reads, as a name or an attribute; with
    strings, also the last dotted part of each string constant (the
    benchmark names the functions it wraps)."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            out.add(node.value.rsplit(".", 1)[-1])
    return out


def definitions(tree):
    """Each top-level function or class, and each method or property of a
    top-level class (dunders left out: the interpreter calls those), as
    (qualified name, name)."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not (
                    item.name.startswith("__") and item.name.endswith("__")
                ):
                    yield f"{node.name}.{item.name}", item.name


def test_no_dead_definitions():
    # a string counts as a use only in the benchmark: elsewhere it is a JSON
    # key or a message, such as "degree", "rows" or "order"
    readers = [*MODULES, *(REPO / "tests").glob("*.py"), *(REPO / "perfbench").glob("*.py")]
    used = set().union(
        *(named(ast.parse(p.read_text(encoding="utf-8")), p.parent.name == "perfbench") for p in readers)
    )
    dead = [
        f"{path.name}: {qualified}"
        for path in MODULES
        for qualified, name in definitions(ast.parse(path.read_text(encoding="utf-8")))
        if name not in used
    ]
    assert not dead, f"defined but never named outside the package __init__: {dead}"


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.stem)
def test_parses_as_python_3_10(path):
    """pyproject.toml declares requires-python >=3.10: no module may use
    syntax added after 3.10, such as `except*`."""
    ast.parse(path.read_text(encoding="utf-8"), feature_version=(3, 10))
