"""The package defines three exception classes and no more.

InputError and NumericalError carry every failure (CLI exit codes 2 and 3);
IdentificationError is the NumericalError that carries a partial trace.
This parses each module with ``ast``: a class is an exception class when
one of its bases is a builtin exception or an exception class of the
package.
"""

import ast
import builtins
from pathlib import Path

MODULES = sorted((Path(__file__).resolve().parent.parent / "src" / "rankvar").glob("*.py"))

ALLOWED = {"InputError", "NumericalError", "IdentificationError"}


def exception_classes(sources: list[str]) -> set[str]:
    bases = {}
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.ClassDef):
                bases[node.name] = {
                    b.id if isinstance(b, ast.Name) else b.attr
                    for b in node.bases
                    if isinstance(b, (ast.Name, ast.Attribute))
                }
    found = {
        name
        for name in vars(builtins)
        if isinstance(getattr(builtins, name), type)
        and issubclass(getattr(builtins, name), BaseException)
    }
    builtin = set(found)
    while True:
        more = {name for name, parents in bases.items() if parents & found} - found
        if not more:
            return found - builtin
        found |= more


def test_checker_finds_exception_classes():
    source = (
        "class A(ValueError): pass\n"
        "class B(A): pass\n"
        "class C: pass\n"
        "class D(errors.A): pass\n"
    )
    assert exception_classes([source]) == {"A", "B", "D"}


def test_only_the_shared_error_types_are_defined():
    sources = [path.read_text(encoding="utf-8") for path in MODULES]
    assert exception_classes(sources) == ALLOWED
