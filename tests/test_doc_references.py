"""Every Sphinx cross-reference in a package docstring names a live object.

A ``:func:``, ``:class:``, ``:meth:`` or ``:attr:`` reference resolves
either in the module whose docstring holds it, or as ``module.name`` in
another module of the package.  Nothing builds the docs, so a renamed or
deleted function would otherwise leave a stale reference behind.
"""

import ast
import importlib
import re
import types
from pathlib import Path

import pytest

MODULES = sorted((Path(__file__).resolve().parent.parent / "src" / "rankvar").glob("*.py"))
PACKAGE = {
    path.stem: importlib.import_module(f"rankvar.{path.stem}")
    for path in MODULES
    if path.stem != "__init__"
}
REFERENCE = re.compile(r":(?:func|class|meth|attr):`([^`]+)`")


def docstring_references(source: str) -> list[str]:
    """The cross-reference targets in the module, class and function
    docstrings of ``source``, in order."""
    tree = ast.parse(source)
    nodes = [tree] + [
        node
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
    ]
    return [ref for node in nodes for ref in REFERENCE.findall(ast.get_docstring(node) or "")]


def resolves(obj, dotted: str) -> bool:
    for part in dotted.split("."):
        if not hasattr(obj, part):
            return False
        obj = getattr(obj, part)
    return True


def unresolved_references(source: str, module) -> list[str]:
    stale = []
    for ref in docstring_references(source):
        head, _, rest = ref.partition(".")
        in_package = head in PACKAGE and rest and resolves(PACKAGE[head], rest)
        if not (resolves(module, ref) or in_package):
            stale.append(ref)
    return stale


def test_checker_flags_a_stale_reference():
    source = (
        '"""Uses :func:`kept` and :func:`gone`."""\n'
        "class Kept:\n"
        '    """See :meth:`Kept.run`, :func:`transport.solve_coupling`,\n'
        '    :class:`transport.Gone` and :attr:`nomodule.x`."""\n'
        "    def run(self):\n"
        '        """Not :func:`Kept.stop`."""\n'
        "def kept():\n"
        "    pass\n"
    )
    module = types.ModuleType("example")
    exec(source, module.__dict__)
    assert unresolved_references(source, module) == [
        "gone", "transport.Gone", "nomodule.x", "Kept.stop"
    ]


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_every_docstring_reference_resolves(path):
    module = importlib.import_module(
        "rankvar" if path.stem == "__init__" else f"rankvar.{path.stem}"
    )
    assert unresolved_references(path.read_text(encoding="utf-8"), module) == []
