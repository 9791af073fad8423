"""Tests of the benchmark harness itself (not of the rankvar package).

    PYTHONPATH=src python3 -m pytest bench/tests -q
"""

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import rankvar
import reference
import run
import spans
import workloads
from spans import Span

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent


def _package_attributes():
    return {
        (name, attr): value
        for name, module in list(sys.modules.items())
        if name == "rankvar" or name.startswith("rankvar.")
        for attr, value in vars(module).items()
    }


# Reference check

def test_reference_covers_every_case():
    ref = reference.load()["workloads"]
    assert {name: len(v) for name, v in ref.items()} == {
        name: w.pool_size for name, w in workloads.WORKLOADS.items()
    }


def test_perturbed_reference_value_is_caught():
    ref = reference.load()["workloads"]
    test_out = ref["white_noise"][0]
    assert reference.mismatches(copy.deepcopy(test_out), test_out) == []

    within = dict(test_out, statistic=test_out["statistic"] * (1 + 1e-12))
    assert reference.mismatches(within, test_out) == []

    for field, value in [
        ("statistic", test_out["statistic"] * (1 + 1e-6)),
        ("critical_value", test_out["critical_value"] * (1 - 1e-6)),
        ("p_asymptotic", test_out["p_asymptotic"] * (1 + 1e-6)),
        ("p_permutational", test_out["p_permutational"] + 0.001),
        ("reject", not test_out["reject"]),
    ]:
        diffs = reference.mismatches(dict(test_out, **{field: value}), test_out)
        assert len(diffs) == 1 and field in diffs[0], (field, diffs)

    cells = ref["study_identify"][0]
    bad = copy.deepcopy(cells)
    bad["vdw"][0]["correct"] += 1
    assert len(reference.mismatches(bad, cells)) == 1
    missing = copy.deepcopy(cells)
    del missing["gaussian"]
    assert reference.mismatches(missing, cells)


# Span arithmetic

def test_self_time_on_nested_spans():
    s = [
        Span(0, "op", "op0", None, 0.0, 10.0),
        Span(1, "rank_tests.test_order", "op0", 0, 1.0, 9.0),
        Span(2, "transport.solve_coupling", "op0", 1, 2.0, 5.0),
        Span(3, "scores.grid_scores", "op0", 1, 6.0, 7.0),
        Span(4, "scores.chisq_quantile", "op0", 3, 6.25, 6.75),
    ]
    assert spans.self_times(s) == pytest.approx({0: 2.0, 1: 4.0, 2: 3.0, 3: 0.5, 4: 0.5})


def test_self_time_counts_overlapping_children_once():
    s = [
        Span(0, "op", "op0", None, 0.0, 10.0),
        Span(1, "transport.solve_coupling", "op0", 0, 2.0, 6.0),
        Span(2, "transport.solve_coupling", "op0", 0, 4.0, 8.0),
        Span(3, "transport.solve_coupling", "op0", 0, 9.0, 12.0),
    ]
    assert spans.self_times(s)[0] == pytest.approx(10.0 - 6.0 - 1.0)


def test_op_metrics_on_synthetic_spans():
    s = [
        Span(0, "op", "op0", None, 0.0, 10.0),
        Span(1, "rank_tests.test_order", "op0", 0, 0.0, 10.0, info={"n": 10, "d": 2, "M": 3}),
        Span(2, "transport.solve_coupling", "op0", 1, 1.0, 3.0),
        Span(3, "var_algebra.build_operator_matrices", "op0", 1, 3.0, 4.0,
             info={"effective_lags": 2, "bytes": 100}),
        Span(4, "rank_tests.estimate_upsilon", "op0", 1, 4.0, 8.0),
        Span(5, "transport.solve_coupling", "op0", 4, 5.0, 6.0),
        Span(6, "var_algebra.build_operator_matrices", "op0", 4, 6.0, 7.0,
             info={"effective_lags": 4, "bytes": 300}),
    ]
    m = spans.op_metrics(s)
    assert m["transport.calls"] == 2
    assert m["transport.self_s"] == pytest.approx(3.0)
    assert m["transport.share"] == pytest.approx(0.3)
    assert m["rank_tests.self_s"] == pytest.approx(3.0 + 2.0)
    assert m["rank_tests.upsilon.calls"] == 1
    assert m["rank_tests.upsilon.couplings"] == 1
    assert m["rank_tests.upsilon.self_s"] == pytest.approx(2.0)
    assert m["var_algebra.effective_lags"] == pytest.approx(3.0)
    assert m["var_algebra.operator_bytes"] == 400
    # The test's own horizon is the build outside Upsilon: L = 2, n = 10.
    assert m["rank_tests.perm_stats"] == 3
    assert m["rank_tests.perm_flops"] == 2 * 3 * 4 * (9 + 8)


# Workload inputs

@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_op_sequence_is_deterministic_and_covers_the_pool(name):
    w = workloads.WORKLOADS[name]
    first, again, other = (workloads.op_sequence(w, s) for s in (7, 7, 8))
    order = [first(j) for j in range(3 * w.pool_size)]
    assert order == [again(j) for j in range(3 * w.pool_size)]
    assert order != [other(j) for j in range(3 * w.pool_size)]
    for p in range(3):
        assert sorted(order[p * w.pool_size:(p + 1) * w.pool_size]) == list(range(w.pool_size))


def _flatten(case):
    if isinstance(case, tuple):
        return [np.asarray(v) for v in case]
    return [case.theta, np.array([case.seed, case.n, case.N, case.M])]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_case_inputs_are_deterministic(name):
    w = workloads.WORKLOADS[name]
    for k in (0, w.pool_size - 1):
        a, b = _flatten(w.make_case(k)), _flatten(w.make_case(k))
        assert all(np.array_equal(x, y) for x, y in zip(a, b))
    assert not all(
        np.array_equal(x, y) for x, y in zip(_flatten(w.make_case(0)), _flatten(w.make_case(1)))
    )


# Tracer

def test_tracer_restores_every_attribute():
    before = _package_attributes()
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert rankvar.test_order is not before[("rankvar", "test_order")]
        assert rankvar.rank_tests.solve_coupling.__wrapped_original__ is (
            before[("rankvar.transport", "solve_coupling")]
        )
        assert rankvar.simulation.identify_order.__wrapped_original__ is (
            rankvar.order_id.identify_order.__wrapped_original__
        )
        replaced = [key for key, value in _package_attributes().items() if value is not before[key]]
        assert len(replaced) > 40
    finally:
        tracer.restore()
    after = _package_attributes()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


def test_two_traced_runs_agree_exactly():
    w = workloads.WORKLOADS["white_noise"]
    grid, case = w.setup(), w.make_case(0)
    want = reference.load()["workloads"]["white_noise"][0]
    tracer = spans.Tracer()
    tracer.install()
    try:
        for op in ("a", "b"):
            with tracer.root(op):
                assert reference.mismatches(w.run(grid, case), want) == []
    finally:
        tracer.restore()
    a = spans.op_metrics([s for s in tracer.spans if s.op == "a"])
    b = spans.op_metrics([s for s in tracer.spans if s.op == "b"])
    assert {k: a[k] for k in spans.EXACT} == {k: b[k] for k in spans.EXACT}
    assert a["transport.calls"] == 1 and a["rank_tests.perm_stats"] == 999
    assert a["rank_tests.upsilon.calls"] == 0


# The command and its declaration

def test_benchmark_json_matches_the_command():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    # order_test runs by hand only: see the note above its functions.
    assert [w["name"] for w in spec["workloads"]] == [
        name for name in workloads.WORKLOADS if name != "order_test"
    ]
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
    assert spec["paths"] == ["bench"]


def test_command_fails_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    res = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "white_noise", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert res.returncode != 0
    assert res.stdout == ""
