"""Source hygiene checks that need no linter: every import in the package is
used, and every dataclass field it declares is read somewhere."""

import ast
from pathlib import Path

import pytest

import lagsol

SOURCES = sorted(Path(lagsol.__file__).parent.glob("*.py"))
# the code that may read a package field: the package, its tests and the benchmark
READERS = sorted(p for d in ("src", "tests", "perfbench")
                 for p in (Path(__file__).resolve().parents[1] / d).rglob("*.py"))


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


def dataclass_fields(source: str):
    """(class, field) for each field declared by a @dataclass class in source."""
    def is_dataclass(dec):
        dec = dec.func if isinstance(dec, ast.Call) else dec
        return getattr(dec, "id", getattr(dec, "attr", None)) == "dataclass"

    return [(node.name, stmt.target.id)
            for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ClassDef) and any(map(is_dataclass, node.decorator_list))
            for stmt in node.body
            if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)]


def read_names(source: str) -> set:
    """Names read as an attribute in source, or passed by keyword to a
    replace(...) call (dataclasses.replace)."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
        elif isinstance(node, ast.Call) and getattr(
                node.func, "attr", getattr(node.func, "id", None)) == "replace":
            names |= {k.arg for k in node.keywords if k.arg}
    return names


def unread_fields(declaring, reading):
    """'Class.field' for each field declared in a declaring source whose name
    no reading source reads (by name only: any attribute of that name counts)."""
    read = set().union(*map(read_names, reading))
    return sorted(f"{cls}.{name}" for source in declaring
                  for cls, name in dataclass_fields(source) if name not in read)


def test_the_check_finds_a_never_read_field():
    declaring = ("@dataclass(frozen=True)\nclass P:\n    a: int\n    b: int\n    c: int\n"
                 "    d = 0\n")
    reading = "print(p.a)\nq = dataclasses.replace(p, b=1)\np.c = 2\n"
    assert unread_fields([declaring], [reading]) == ["P.c"]


def test_every_dataclass_field_is_read():
    reading = [p.read_text() for p in READERS]
    assert unread_fields([p.read_text() for p in SOURCES], reading) == []
