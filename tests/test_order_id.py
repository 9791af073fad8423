import numpy as np
import pytest

import rankvar as rv
from rankvar import (
    IdentificationError,
    InputError,
    ScoreSpec,
    VarModel,
    factorize,
    identify_order,
    make_grid,
    simulate_var,
)
from rankvar import rank_tests
from rankvar.order_id import _order_test
from rankvar.var_algebra import _SCOPE, _series_scope

A1 = np.array([[0.30, 0.12], [-0.06, 0.24]])


def test_first_step_reproduces_standalone_white_noise_test():
    x = np.random.default_rng(11).standard_normal((80, 2))
    grid = make_grid(factorize(80, 2), 2)
    spec = ScoreSpec("sign")
    trace = identify_order(x, spec, M=99, seed=5, grid=grid)
    standalone = rv.test_order(x, 0, 1, spec, grid, M=99, seed=5)
    p0, outcome = trace.steps[0]
    assert p0 == 0
    assert outcome.statistic == standalone.statistic
    assert outcome.p_permutational == standalone.p_permutational


def test_white_noise_mostly_selects_zero():
    grid = make_grid(factorize(100, 2), 2)
    hits = 0
    for r in range(40):
        x = np.random.default_rng(9000 + r).standard_normal((100, 2))
        trace = identify_order(x, ScoreSpec("sign"), seed=1, grid=grid)
        hits += trace.selected_order == 0
    assert hits >= 30  # roughly 95% under the null


def test_var1_instance_selects_one():
    model = VarModel.from_matrices([A1])
    eps = np.random.default_rng(60000).standard_normal((600, 2))
    x = simulate_var(model, 400, eps)
    grid = make_grid(factorize(400, 2), 2, seed=7)
    trace = identify_order(x, ScoreSpec("vdw"), seed=1234, grid=grid)
    assert trace.selected_order == 1
    assert not trace.truncated
    assert [p0 for p0, _ in trace.steps] == [0, 1]
    assert trace.steps[0][1].reject
    assert not trace.steps[1][1].reject
    d = trace.to_dict()
    assert d["selected_order"] == 1
    assert len(d["steps"]) == 2


def test_truncation_at_max_order():
    a1 = 0.4 * np.eye(2)
    a2 = 0.35 * np.eye(2)
    model = VarModel.from_matrices([a1, a2])
    eps = np.random.default_rng(13).standard_normal((500, 2))
    x = simulate_var(model, 300, eps)
    trace = identify_order(x, "gaussian", max_order=1)
    assert trace.truncated
    assert trace.selected_order == 1
    assert all(outcome.reject for _, outcome in trace.steps)


def test_gaussian_routing():
    x = np.random.default_rng(2).standard_normal((100, 2))
    trace = identify_order(x, "gaussian", seed=3)
    assert trace.steps[0][1].meta["score"] == "gaussian"
    with pytest.raises(InputError):
        identify_order(x, "gaussian", M=100)
    with pytest.raises(InputError):
        identify_order(x, "student")
    with pytest.raises(InputError):
        identify_order(x, object())


def test_gaussian_refuses_a_grid():
    x = np.random.default_rng(2).standard_normal((100, 2))
    grid = make_grid(factorize(100, 2), 2)
    with pytest.raises(InputError, match="takes no grid"):
        identify_order(x, "gaussian", grid=grid)
    with pytest.raises(InputError, match="takes no grid"):
        _order_test(x, 0, 1, "gaussian", grid, 0.05, None, None)


def test_partial_trace_on_numerical_failure():
    # AR(1) driving both (identical) columns: the white-noise step rejects,
    # then the p0 = 1 fit hits a rank-deficient design
    rng = np.random.default_rng(19)
    v = simulate_var(
        VarModel.from_matrices([np.array([[0.7]])]), 150, rng.standard_normal((350, 1))
    ).ravel()
    x = np.column_stack([v, v])
    grid = make_grid(factorize(150, 2), 2)
    with pytest.raises(IdentificationError) as info:
        identify_order(x, ScoreSpec("vdw"), seed=4, grid=grid)
    trace = info.value.trace
    assert len(trace.steps) == 1
    assert trace.steps[0][0] == 0
    assert trace.steps[0][1].reject
    assert trace.truncated


def test_max_order_default_and_bounds():
    x = np.random.default_rng(5).standard_normal((60, 2))
    trace = identify_order(x, "gaussian")
    assert trace.max_order == 3  # floor(60^(1/3))
    with pytest.raises(InputError):
        identify_order(x, "gaussian", max_order=30)  # needs n > d*max_order + 10
    with pytest.raises(InputError):
        identify_order(x, "gaussian", max_order=-1)
    with pytest.raises(InputError):
        identify_order(np.zeros(10), "gaussian")


def test_identification_draws_its_permutations_once(monkeypatch):
    # every step has the same (n, M, seed): outside a series scope the
    # identification opens one, inside an open scope it uses that one
    draws = []
    real_draw = rank_tests._draw_permutations

    def counted(n, M, seed):
        draws.append((n, M, seed))
        return real_draw(n, M, seed)

    model = VarModel.from_matrices([A1, np.array([[-0.3, 0.0], [0.1, 0.25]])])
    x = simulate_var(model, 150, np.random.default_rng(4).standard_normal((350, 2)))
    grid = make_grid(factorize(150, 2), 2)
    spec = ScoreSpec("vdw")
    alone = identify_order(x, spec, max_order=2, M=49, seed=6, grid=grid)
    assert [p0 for p0, _ in alone.steps] == [0, 1, 2]

    monkeypatch.setattr(rank_tests, "_draw_permutations", counted)
    assert identify_order(x, spec, max_order=2, M=49, seed=6, grid=grid) == alone
    assert draws == [(150, 49, 6)]
    assert _SCOPE.get() is None

    draws.clear()
    with _series_scope():
        memo = _SCOPE.get()
        for _ in range(2):
            assert identify_order(x, spec, max_order=2, M=49, seed=6, grid=grid) == alone
        assert _SCOPE.get() is memo and ("permutations", 150, 49, 6) in memo
    assert draws == [(150, 49, 6)]
