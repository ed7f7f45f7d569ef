"""Source hygiene of the package, read with the standard library's ast."""

import ast
from pathlib import Path

import pytest

import matchlab

MODULES = sorted(Path(matchlab.__file__).parent.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Names a module imports and never reads, except those in `__all__`.

    A name counts as read wherever it appears as an identifier, including
    annotations and the base of an attribute chain; `__future__` imports
    bind no name.
    """
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            read |= set(ast.literal_eval(node.value))
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in read)


def test_the_checker_flags_an_unused_import_and_spares_a_used_one():
    source = ("from __future__ import annotations\n"
              "import os.path\nimport json\n"
              "from numpy import ndarray, int64 as i8\n"
              "def f(x: ndarray) -> int:\n    return json.dumps(os.sep)\n")
    assert unused_imports(source) == ["i8 (line 4)"]
    assert unused_imports("from a import b\n__all__ = ['b']\n") == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_module_imports_a_name_it_never_uses(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
