"""Source hygiene checks that need no linter: every import in the package is
used and at module level, every dataclass field it declares is read somewhere,
and every function, class and curve view it defines is named elsewhere in the
package."""

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


def nested_imports(source: str):
    """Line numbers of the import statements in source that are not at
    module level (inside a function, class or block)."""
    tree = ast.parse(source)
    top = set(map(id, tree.body))
    return sorted(node.lineno for node in ast.walk(tree)
                  if isinstance(node, (ast.Import, ast.ImportFrom)) and id(node) not in top)


def test_the_check_finds_a_nested_import():
    src = ("import math\n\n\ndef f():\n    from os import path\n    return path\n\n\n"
           "class C:\n    import sys\n\n\nif math:\n    import json\n")
    assert nested_imports(src) == [5, 10, 14]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_import_is_at_module_level(path):
    assert nested_imports(path.read_text()) == []


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


# Definitions nothing in the package names, each with the reason it stays.
# The list is exact, so an entry that gains a caller or disappears fails the
# check too; it is the deletion list of ROADMAP item 1.
UNNAMED = {
    **dict.fromkeys(("w_of", "wdot_of", "theta_of", "u_of", "phis_of", "theta_rate_of"),
                    "per-point curve views the benchmark tracer counts (COUNTED_METHODS)"),
    "classify_case": "the benchmark tracer spans it (SPAN_FUNCTIONS)",
    "finite_quad": "the benchmark tracer spans it (SPAN_FUNCTIONS), and the tests'"
                   " QUADPACK references call it",
    "sample_reduced": "the benchmark tracer spans it (SPAN_FUNCTIONS)",
    "write_trajectory_csv": "the benchmark tracer spans it (SPAN_FUNCTIONS)",
}


def defined_names(source: str):
    """Each def and class in source, methods included, and each name bound
    to a curve_views(...) call; dunder methods aside."""
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif (isinstance(node, ast.Assign) and isinstance(node.value, ast.Call)
              and getattr(node.value.func, "id", None) == "curve_views"):
            names += [e.id for t in node.targets
                      for e in (t.elts if isinstance(t, ast.Tuple) else [t])]
    return [n for n in names if not (n.startswith("__") and n.endswith("__"))]


def loaded_names(source: str) -> set:
    """Names read in source, bare or as an attribute."""
    return {getattr(node, "id", getattr(node, "attr", None))
            for node in ast.walk(ast.parse(source))
            if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)}


def unnamed_definitions(sources):
    """Sorted names defined in some source and read in none."""
    read = set().union(*map(loaded_names, sources))
    return sorted({n for source in sources for n in defined_names(source)} - read)


def test_the_check_finds_an_unnamed_definition():
    source = ("def used():\n    pass\n\n\ndef unused():\n    used()\n\n\n"
              "class C:\n    def __init__(self):\n        self.m = 1\n\n"
              "    def m(self):\n        pass\n\n    v, w = curve_views('a', 'b')\n\n\n"
              "print(C().v)\n")
    assert unnamed_definitions([source]) == ["m", "unused", "w"]


def test_every_definition_is_named_in_the_package():
    assert unnamed_definitions([p.read_text() for p in SOURCES]) == sorted(UNNAMED)
