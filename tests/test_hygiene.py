"""Source hygiene: every name a module of the package imports is used in it."""

import ast
from pathlib import Path

import dgkit

PACKAGE = Path(dgkit.__file__).resolve().parent


def unused_imports(source: str):
    """Names bound by import statements and never loaded; a name that appears
    in a string annotation counts as used."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                name = (alias.asname or alias.name).split(".")[0]
                imported.setdefault(name, node.lineno)
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                used.update(n.id for n in ast.walk(ast.parse(node.value, mode="eval"))
                            if isinstance(n, ast.Name))
            except SyntaxError:
                pass
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__"
                                                for t in node.targets):
            exported = set(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items()
                  if name not in used and name not in exported)


def test_unused_imports_are_found():
    src = "from typing import Dict, List\nimport os\n\ndef f(x: 'Dict[str, int]'):\n    return x\n"
    assert unused_imports(src) == [(1, "List"), (2, "os")]


def test_package_modules_import_only_what_they_use():
    found = {path.name: unused_imports(path.read_text())
             for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"}
    assert {name: hits for name, hits in found.items() if hits} == {}


# The functions that still build a map one basis tensor at a time through
# TensorLayout.map_from_entries.  Every map derived from maps that already
# exist is built from blocks (``lifted_map``, ``map_from_blocks``); these stay
# because nothing else reaches their entries:
# - DgRing.from_table, _discrete_category, _path_category and
#   weak_cokernel_gap_category read literal tables;
# - h0_as_degree0_category and heart_coextension_check read H^0 of complexes
#   that need not be nonpositive, in the CohomologyReport representative
#   basis, which no retract of the complex reaches without changing that basis.
# The list may shrink; it must not grow.
MAP_FROM_ENTRIES_CALLERS = {
    ("changeofrings", "heart_coextension_check"),
    ("dgcat", "h0_as_degree0_category"),
    ("dgring", "DgRing.from_table"),
    ("instances", "_discrete_category"),
    ("instances", "_path_category"),
    ("instances", "weak_cokernel_gap_category"),
}


def callers_of(source: str, attribute: str):
    """The top-level functions, or Class.method, that call ``.attribute(...)``
    somewhere in their body, nested functions included."""
    found = set()

    def walk(node, owner):
        for child in ast.iter_child_nodes(node):
            if owner is None and isinstance(child, ast.FunctionDef):
                walk(child, child.name)
            elif owner is None and isinstance(child, ast.ClassDef):
                for item in child.body:
                    if isinstance(item, ast.FunctionDef):
                        walk(item, f"{child.name}.{item.name}")
            else:
                if (isinstance(child, ast.Call) and isinstance(child.func, ast.Attribute)
                        and child.func.attr == attribute):
                    found.add(owner)
                walk(child, owner)

    walk(ast.parse(source), None)
    return found


def test_callers_are_found():
    src = ("class A:\n    def m(self, lay):\n        def inner():\n            return lay.f()\n        return inner\n"
           "def g(lay):\n    return lay.f()\n\ndef h(lay):\n    return lay.other()\n")
    assert callers_of(src, "f") == {"A.m", "g"}


def test_map_from_entries_callers_only_shrink():
    found = {(path.stem, owner) for path in sorted(PACKAGE.glob("*.py"))
             for owner in callers_of(path.read_text(), "map_from_entries")}
    assert found - MAP_FROM_ENTRIES_CALLERS == set(), "new per-basis map builders; build from blocks instead"
    assert MAP_FROM_ENTRIES_CALLERS - found == set(), "stale allowlist entries; delete them"
