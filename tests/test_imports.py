"""Every top-level import of a package module is used or exported.

No linter is a dependency of the package, so this parses each module with
``ast`` instead: a name bound by a module-level import must be read
somewhere in the module or listed in its ``__all__``.
"""

import ast
from pathlib import Path

import pytest

MODULES = sorted((Path(__file__).resolve().parent.parent / "src" / "rankvar").glob("*.py"))


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported |= set(ast.literal_eval(node.value))
    return [
        f"line {line}: {name}"
        for name, line in sorted(bound.items(), key=lambda kv: kv[1])
        if name not in read and name not in exported
    ]


def test_checker_flags_an_unused_import():
    source = "import math\nfrom os import path, sep\n__all__ = ['sep']\nprint(path)\n"
    assert unused_imports(source) == ["line 1: math"]


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_no_unused_top_level_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
