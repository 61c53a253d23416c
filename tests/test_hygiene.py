"""Source hygiene checks that need no linter: every import in the package is used."""

import ast
from pathlib import Path

import pytest

import lagsol

SOURCES = sorted(Path(lagsol.__file__).parent.glob("*.py"))


def unused_imports(source: str):
    """Names bound by an import statement and never read elsewhere in source.

    A name counts as read when it appears as a bare name or as the head of an
    attribute chain, or is listed in __all__.
    """
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound.setdefault(name, node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound.setdefault(alias.asname or alias.name, node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used |= {e.value for e in node.value.elts if isinstance(e, ast.Constant)}
    return sorted((line, name) for name, line in bound.items() if name not in used)


def test_the_check_finds_an_unused_import():
    src = "import math\nfrom os import path, sep as s\nprint(path.join(s))\n"
    assert unused_imports(src) == [(1, "math")]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text()) == []
