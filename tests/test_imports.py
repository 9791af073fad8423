"""The package's imports: every top-level import is used, the series-scope
variable is imported nowhere, and the package loads no more of scipy than
it uses.

No linter is a dependency of the package, so the first checks parse each
module with ``ast`` instead: a name bound by a module-level import must be
read somewhere in the module or listed in its ``__all__``, and
``var_algebra._SCOPE`` is named only by its definition and by the two
functions that own it, ``_series_scope`` and ``_shared``.

The package takes scipy's assignment solver from its compiled module, not
through ``scipy.optimize`` (see :mod:`rankvar.transport`).  The footprint
checks run in a fresh interpreter, because pytest's own process has
imported much of scipy already.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest
from scipy.optimize import linear_sum_assignment

from rankvar import transport

SRC = Path(__file__).resolve().parent.parent / "src"
MODULES = sorted((SRC / "rankvar").glob("*.py"))


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


def scope_users(source: str) -> set[str]:
    """The top-level functions and classes of a module that name ``_SCOPE``,
    and ``"<module>"`` for any other top-level statement that does, except
    the annotated assignment that defines it."""
    users = set()
    for node in ast.parse(source).body:
        if isinstance(node, ast.AnnAssign) and getattr(node.target, "id", None) == "_SCOPE":
            continue
        names = set()
        for n in ast.walk(node):
            if isinstance(n, ast.Name):
                names.add(n.id)
            elif isinstance(n, ast.Attribute):
                names.add(n.attr)
            elif isinstance(n, ast.ImportFrom):
                names.update(alias.name for alias in n.names)
        if "_SCOPE" in names:
            users.add(getattr(node, "name", "<module>"))
    return users


def test_checker_flags_a_scope_user():
    source = (
        "_SCOPE: dict = {}\nfrom .var_algebra import _SCOPE\n"
        "def f():\n    return _SCOPE.get()\ndef g(m):\n    return m._SCOPE\n"
    )
    assert scope_users(source) == {"<module>", "f", "g"}


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_only_the_scope_functions_name_the_scope_variable(path):
    owners = {"_series_scope", "_shared"} if path.stem == "var_algebra" else set()
    assert scope_users(path.read_text(encoding="utf-8")) <= owners


def run_fresh(code: str, cwd: Path) -> str:
    """The last line ``code`` prints, run in a fresh interpreter that imports
    the package from this checkout."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    res = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=300,
        cwd=cwd, env={**os.environ, "PYTHONPATH": path},
    )
    assert res.returncode == 0, res.stderr
    return res.stdout.splitlines()[-1]


def test_a_run_leaves_scipy_optimize_linalg_and_sparse_unloaded(tmp_path):
    code = """
import sys
import numpy as np
import rankvar as rv
from rankvar.cli import main

x = np.random.default_rng(0).standard_normal((60, 2))
grid = rv.make_grid(rv.factorize(60, 2), 2, seed=0)
rv.solve_coupling(x, grid)
rv.test_order(x, 1, 2, rv.ScoreSpec("vdw"), grid, M=19, seed=0)
rv.identify_order(x, rv.ScoreSpec("vdw"), M=19, seed=0, grid=grid)
np.savetxt("x.csv", x, delimiter=",")
assert main(["identify", "--data", "x.csv", "--score", "vdw", "--perm", "19", "--seed", "0"]) == 0
print([m for m in ("scipy.optimize", "scipy.optimize._lsap", "scipy.linalg", "scipy.sparse")
       if m in sys.modules])
"""
    assert run_fresh(code, tmp_path) == "[]"


@pytest.mark.parametrize("first, second", [("rankvar", "scipy.optimize"), ("scipy.optimize", "rankvar")])
def test_the_solver_is_scipys_public_function(first, second, tmp_path):
    code = f"""
import {first}
import {second}
import rankvar.transport
import scipy.optimize
f = rankvar.transport.linear_sum_assignment
print(f is scipy.optimize.linear_sum_assignment is scipy.optimize._lsap.linear_sum_assignment)
"""
    assert run_fresh(code, tmp_path) == "True"


def test_the_solver_falls_back_to_the_public_import(tmp_path):
    # a folder without the compiled _lsap module, as in another scipy layout
    assert transport._load_linear_sum_assignment(tmp_path) is linear_sum_assignment
