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
