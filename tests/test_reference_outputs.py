"""The benchmark's reference outputs, checked by the test suite.

Every case of every workload in ``bench/workloads.py`` runs once, and its
output must match ``bench/reference.json`` by the rule of
``bench/reference.py``: statistics to a relative 1e-9, everything else
exactly.  The test only reads ``bench/``.
"""

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"
if str(BENCH) not in sys.path:
    sys.path.insert(0, str(BENCH))

import reference  # noqa: E402
import workloads  # noqa: E402

CASES = [(name, k) for name, w in workloads.WORKLOADS.items() for k in range(w.pool_size)]


@pytest.fixture(scope="module")
def states():
    """Each workload's shared state (its grid), built once."""
    return {name: w.setup() for name, w in workloads.WORKLOADS.items()}


@pytest.fixture(scope="module")
def references():
    return reference.load()["workloads"]


@pytest.mark.parametrize("name, case", CASES)
def test_case_matches_reference(name, case, states, references):
    w = workloads.WORKLOADS[name]
    out = w.run(states[name], w.make_case(case))
    assert reference.mismatches(out, references[name][case]) == []
