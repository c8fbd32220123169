"""Every module of the package reads each name it imports, so a deletion
leaves no import behind. ``__init__.py`` is the public surface and is not
checked; elsewhere ``# noqa: F401`` on an import statement's first line marks
the names it binds as re-exports."""

import ast
import pathlib

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "graphbo"
MODULES = sorted(path for path in PACKAGE.glob("*.py") if path.name != "__init__.py")


def unused_imports(source):
    """(line, name) of each name an import statement of ``source`` binds
    and no expression of it reads."""
    tree = ast.parse(source)
    lines = source.splitlines()
    bound = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if "# noqa: F401" in lines[node.lineno - 1]:
            continue
        # ``import a.b`` binds ``a``
        bound += [(node.lineno, alias.asname or alias.name.split(".")[0])
                  for alias in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [(line, name) for line, name in bound if name not in read]


def test_the_check_sees_unused_and_marked_imports():
    source = ("import os\n"
              "import numpy.random\n"
              "from math import inf, pi\n"
              "from json import dumps  # noqa: F401\n"
              "print(pi)\n")
    assert unused_imports(source) == [(1, "os"), (2, "numpy"), (3, "inf")]


@pytest.mark.parametrize("path", MODULES, ids=[path.name for path in MODULES])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
