import itertools
import json
import math
import threading
import tracemalloc
from concurrent.futures import Future

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rankvar as rv
from rankvar import (
    GridFactorization,
    InputError,
    ScoreSpec,
    VarModel,
    build_operator_matrices,
    centering,
    factorize,
    fit_constrained_ls,
    grid_scores,
    make_grid,
    residuals,
    score_covariance,
    solve_coupling,
)
from rankvar import rank_tests
from rankvar._rng import stream
from rankvar.gaussian_tests import gaussian_test_order
from rankvar.rank_tests import (
    _PERM_CHUNK,
    _deltas,
    _lag_stacks,
    _permutation_calibration,
    _perturbations,
    _scores_and_centering,
    _upsilon,
)
from rankvar.var_algebra import _series_scope

# rv.test_specified / rv.test_order stay behind the module qualifier so
# pytest does not try to collect them as test items.

pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")

ZERO2 = VarModel(d=2, p0=0, p1=1, theta=np.zeros(4))


def lag_cross_covs(assignment, spec, grid, max_lag):
    """Reference route to the lagged rank cross-covariances, one lag at a time.

    Gamma_i = (n-i)^{-1} sum_{t>i} J(F_t) J(F_{t-i})' for i = 1..max_lag,
    with the gridpoint scores indexed by the assignment, as a
    (max_lag, d, d) array.
    """
    s = grid_scores(spec, 1, grid)[assignment]
    n = s.shape[0]
    return np.array([s[i:].T @ s[: n - i] / (n - i) for i in range(1, max_lag + 1)])


def test_two_point_sign_cross_covariance():
    grid = make_grid(GridFactorization(2, 1, 2, 0), 2)
    x = np.array([[3.0, 0.0], [-3.0, 0.0]])
    c = solve_coupling(x, grid)
    spec = ScoreSpec("sign")
    gamma = lag_cross_covs(c.assignment, spec, grid, 1)
    assert np.allclose(gamma[0], [[-1.0, 0.0], [0.0, 0.0]], atol=1e-14)
    # at n = 2 the lag-1 block is deterministic and equals its null mean
    assert np.allclose(centering(spec, grid), [[-1.0, 0.0], [0.0, 0.0]], atol=1e-14)


def test_permutation_average_of_blocks_is_centering():
    # the centering is the exact mean of Gamma_1 over the uniform
    # permutation law, so enumerating all 24 assignments must recover it
    grid = make_grid(factorize(4, 2), 2)
    assert grid.symmetric
    x = np.random.default_rng(1).standard_normal((4, 2))
    c = solve_coupling(x, grid)
    for spec in (ScoreSpec("sign"), ScoreSpec("spearman"), ScoreSpec("vdw")):
        acc = np.zeros((2, 2))
        for perm in itertools.permutations(range(4)):
            acc += lag_cross_covs(c.assignment[list(perm)], spec, grid, 1)[0]
        m = centering(spec, grid)
        assert np.allclose(acc / 24.0, m, atol=1e-12)
        assert np.any(m != 0.0)


def enumerate_specified_stats(x, theta0, grid, spec):
    """Every permutation's value of S, by the per-lag reference route.

    S = H' (Q'(I kron C) Q)^{-1} H with H = sum_i (n-i)^{1/2} Q_i'
    vec(Gamma_i - m), every Gamma_i taken from ``lag_cross_covs`` of the
    permuted assignment.  For p0 = 0, p1 = 1 it reduces to
    (n - 1) vec(Gamma_1 - m)' C^{-1} vec(Gamma_1 - m).
    """
    n = x.shape[0]
    c = solve_coupling(residuals(x, theta0), grid)
    ops = build_operator_matrices(theta0, n)
    L = ops.effective_lags
    q = ops.Q
    gram = q.T @ np.kron(np.eye(L), score_covariance(spec, 2)) @ q
    gram_inv = np.linalg.inv(gram)
    w = np.sqrt(n - np.arange(1, L + 1))
    m = centering(spec, grid)
    vals = []
    for perm in itertools.permutations(range(n)):
        gamma = lag_cross_covs(c.assignment[list(perm)], spec, grid, L)
        v = (gamma - m).transpose(0, 2, 1).reshape(L, 4)
        h = q.T @ (w[:, None] * v).reshape(-1)
        vals.append(float(h @ gram_inv @ h))
    return np.array(vals), L


def all_permutations(n, M, seed):
    """Every permutation of range(n), as one array: a stand-in for the
    seeded draw of ``_draw_permutations`` when M = n!."""
    assert M == math.factorial(n)
    return np.array(list(itertools.permutations(range(n))), dtype=np.intp)


@pytest.mark.parametrize("kind", ["sign", "spearman", "vdw"])
def test_calibration_over_all_permutations_matches_enumeration(monkeypatch, kind):
    monkeypatch.setattr(rank_tests, "_draw_permutations", all_permutations)
    spec = ScoreSpec(kind)
    var1 = VarModel.from_matrices([np.array([[0.5, 0.1], [0.0, 0.4]])], p1=2)
    # white noise at lag 1 (n = 4), and a VAR(1) null in a VAR(2) frame
    # whose operator rows reach the full horizon L = n - 1 = 6 (n = 7)
    for theta0, n, lags in ((ZERO2, 4, 1), (var1, 7, 6)):
        grid = make_grid(factorize(n, 2), 2)
        x = np.random.default_rng(7).standard_normal((n, 2))
        out = rv.test_specified(x, theta0, spec, grid, M=math.factorial(n), seed=0)
        stats, L = enumerate_specified_stats(x, theta0, grid, spec)
        assert L == lags
        assert out.meta["M"] == math.factorial(n)
        obs = stats[0]  # identity permutation
        assert np.isclose(out.statistic, obs, rtol=1e-10, atol=1e-10)
        # count ties inclusively, like the library's tie snapping
        tol = 1e-9 * max(1.0, np.max(np.abs(stats)))
        p_expected = (1 + int(np.sum(stats >= obs - tol))) / (stats.size + 1.0)
        assert np.isclose(out.p_permutational, p_expected, atol=1e-9)


def t3_series(n, seeds):
    """Heavy-tailed (Student t3) bivariate white noise, one series per seed."""
    return [np.random.default_rng(seed).standard_t(3, (n, 2)) for seed in seeds]


def test_statistics_are_shift_and_scale_invariant():
    # at p0 = 0 the residuals are the data; a shift adds only a column term
    # to the coupling cost and a positive scale does not move its optimum,
    # so the assignment, every permuted statistic and p_perm stay bit for bit
    grid = make_grid(factorize(120, 2), 2)
    for kind in ("sign", "spearman", "vdw"):
        for x in t3_series(120, range(5)):
            y = 3.7 * x + np.array([5.0, -2.0])
            a = rv.test_order(x, 0, 1, ScoreSpec(kind), grid, M=99, seed=8)
            b = rv.test_order(y, 0, 1, ScoreSpec(kind), grid, M=99, seed=8)
            assert b.statistic == a.statistic
            assert b.p_permutational == a.p_permutational

    # the fitted test is exactly invariant to scale; a shift is only
    # asymptotically neutral because the first p0 residual rows filter
    # truncated lags
    x = np.random.default_rng(12).standard_normal((60, 2))
    grid = make_grid(factorize(60, 2), 2)
    w_x = rv.test_order(x, 1, 2, ScoreSpec("spearman"), grid)
    w_y = rv.test_order(3.7 * x, 1, 2, ScoreSpec("spearman"), grid)
    assert np.isclose(w_x.statistic, w_y.statistic, atol=1e-8)


@pytest.mark.parametrize("kind", ["sign", "spearman", "vdw"])
def test_white_noise_statistic_follows_the_grid_symmetries(kind):
    # the d = 2 grid is closed under rotation by 2 pi / n_S and under
    # (x, y) -> (x, -y); transforming the data the same way maps each
    # assignment onto the transformed gridpoints, whose scores are the
    # transformed scores, and the statistic is invariant to that
    fact = factorize(120, 2)
    grid = make_grid(fact, 2)
    spec = ScoreSpec(kind)
    ang = 2.0 * np.pi / fact.n_S
    rotate = np.array([[np.cos(ang), -np.sin(ang)], [np.sin(ang), np.cos(ang)]])
    reflect = np.diag([1.0, -1.0])
    for x in t3_series(120, range(5)):
        base = rv.test_order(x, 0, 1, spec, grid).statistic
        for g in (rotate, reflect):
            moved = rv.test_order(x @ g.T, 0, 1, spec, grid).statistic
            assert moved == pytest.approx(base, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("kind", ["sign", "spearman", "vdw", "gaussian"])
def test_white_noise_statistic_is_invariant_to_time_reversal(kind):
    # at p0 = 0 reversing time reverses the assignment and turns every lagged
    # cross-covariance Gamma_i into its transpose, which the statistic weighs
    # as it weighs Gamma_i
    rng = np.random.default_rng(15)
    for trial in range(9):
        d, p1 = 1 + trial % 3, 1 + trial // 3
        n = int(rng.integers(20, 200))
        x = rng.standard_t(3, (n, d))
        if kind == "gaussian":
            base = gaussian_test_order(x, 0, p1).statistic
            back = gaussian_test_order(x[::-1], 0, p1).statistic
        else:
            grid = make_grid(factorize(n, d), d, seed=trial)
            base = rv.test_order(x, 0, p1, ScoreSpec(kind), grid).statistic
            back = rv.test_order(x[::-1], 0, p1, ScoreSpec(kind), grid).statistic
        assert back == pytest.approx(base, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("scale", [1e-12, 1e-6, 1e6, 1e12, 1e15, 1e100, 1e300])
def test_white_noise_statistic_is_exactly_scale_invariant(scale):
    # the coupling, hence every rank statistic, ignores the residual scale
    x = np.random.default_rng(0).standard_normal((200, 2))
    grid = make_grid(factorize(200, 2), 2, seed=0)
    base = rv.test_order(x, 0, 1, ScoreSpec("vdw"), grid).statistic
    assert rv.test_order(scale * x, 0, 1, ScoreSpec("vdw"), grid).statistic == base


def test_order_test_checks_each_model_for_stationarity_once(monkeypatch):
    # the fit and its d^2 p0 perturbations: one companion eigensolve each
    calls = []
    eigvals = np.linalg.eigvals
    monkeypatch.setattr(np.linalg, "eigvals", lambda a: calls.append(1) or eigvals(a))
    x = np.random.default_rng(3).standard_normal((60, 2))
    rv.test_order(x, 1, 2, ScoreSpec("sign"), make_grid(factorize(60, 2), 2))
    assert len(calls) == 1 + 4


def test_order_p0_zero_coincides_with_specified_zero():
    rng = np.random.default_rng(21)
    x = rng.standard_normal((40, 2))
    grid = make_grid(factorize(40, 2), 2)
    spec = ScoreSpec("sign")
    null = VarModel(d=2, p0=0, p1=2, theta=np.zeros(8))
    a = rv.test_order(x, 0, 2, spec, grid, M=99, seed=5)
    b = rv.test_specified(x, null, spec, grid, M=99, seed=5)
    assert a.statistic == b.statistic
    assert a.p_permutational == b.p_permutational
    assert a.df == b.df == 8
    assert a.meta["p0"] == 0


def test_asymptotic_vs_permutational_fields():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((50, 2))
    grid = make_grid(factorize(50, 2), 2)
    spec = ScoreSpec("vdw")

    asym = rv.test_specified(x, ZERO2, spec, grid)
    assert asym.p_permutational is None
    assert asym.df == 4
    assert asym.reject == (asym.statistic > asym.critical_value)
    assert 0.0 <= asym.p_asymptotic <= 1.0

    perm = rv.test_specified(x, ZERO2, spec, grid, M=199, seed=9)
    assert perm.statistic == asym.statistic
    assert perm.p_permutational is not None
    assert perm.reject == (perm.p_permutational <= 0.05)
    # repeatable under the same seed
    again = rv.test_specified(x, ZERO2, spec, grid, M=199, seed=9)
    assert again.p_permutational == perm.p_permutational


def test_upsilon_fills_every_column():
    rng = np.random.default_rng(14)
    x = rng.standard_normal((60, 2))
    grid = make_grid(factorize(60, 2), 2)
    theta_hat = fit_constrained_ls(x, 1, p1=2)
    table, m_vec = _scores_and_centering(ScoreSpec("spearman"), grid)
    models, steps = _perturbations(theta_hat, 60)
    deltas = _deltas([theta_hat, *models], x, table, grid, m_vec)[2]
    ups = _upsilon(deltas, steps, 60)
    assert ups.shape == (8, 4)
    assert np.all(np.any(ups != 0.0, axis=0))


def test_perturbations_are_read_only_and_built_once_per_scope():
    x = np.random.default_rng(14).standard_normal((60, 2))
    theta_hat = fit_constrained_ls(x, 1, p1=2)
    models, steps = _perturbations(theta_hat, 60)
    assert not steps.flags.writeable
    assert all(not m.theta.flags.writeable for m in models)
    with _series_scope():
        first = _perturbations(theta_hat, 60)
        assert _perturbations(theta_hat, 60) is first
        assert _perturbations(theta_hat, 61) is not first
    assert _perturbations(theta_hat, 60) is not first
    assert np.array_equal(first[1], steps)
    assert [m.theta.tobytes() for m in first[0]] == [m.theta.tobytes() for m in models]


def serial_delta(model, x, table, grid, m_vec):
    """Oracle: Delta at one model, by its own coupling, operator build and
    one-row lag stack."""
    coupling = solve_coupling(residuals(x, model), grid)
    ops = build_operator_matrices(model, x.shape[0])
    v = _lag_stacks(table[coupling.assignment][None], m_vec, ops.effective_lags)[0]
    return ops.T @ v


def serial_upsilon(x, theta_hat, table, grid, m_vec):
    """Oracle: the finite-difference Upsilon, one perturbed model at a time."""
    n = x.shape[0]
    d, p0, p1 = theta_hat.d, theta_hat.p0, theta_hat.p1
    base_delta = serial_delta(theta_hat, x, table, grid, m_vec)
    ups = np.empty((p1 * d * d, p0 * d * d))
    for col in range(p0 * d * d):
        h = n**-0.5
        for _ in range(11):
            theta_p = theta_hat.theta.copy()
            theta_p[col] += h
            model_p = VarModel(d=d, p0=p0, p1=p1, theta=theta_p)
            if model_p.is_stationary():
                break
            h /= 2.0
        delta_p = serial_delta(model_p, x, table, grid, m_vec)
        ups[:, col] = -(delta_p - base_delta) / (h * math.sqrt(n))
    return ups


@pytest.mark.parametrize(
    "d, n, p0, p1, kind",
    [
        (2, 60, 1, 2, "vdw"),
        (2, 200, 1, 2, "sign"),
        (2, 90, 2, 3, "spearman"),
        (3, 60, 1, 2, "spearman"),
        (3, 120, 1, 3, "vdw"),
        (3, 80, 2, 3, "sign"),
    ],
)
def test_upsilon_of_test_order_equals_serial_oracle(monkeypatch, d, n, p0, p1, kind):
    # the batched Delta (couplings warm from the base duals, one operator
    # stack, one lag-kernel call) gives the serial route's Upsilon, bit for bit
    rng = np.random.default_rng(10 * d + n + p0)
    model = VarModel.from_matrices([0.5 * np.eye(d)] + [0.2 * np.eye(d)] * (p0 - 1))
    x = rv.simulate_var(model, n, rng.standard_normal((n + 200, d)))
    grid = make_grid(factorize(n, d), d)
    seen = []

    def recorded(deltas, steps, n_obs):
        seen.append(_upsilon(deltas, steps, n_obs))
        return seen[-1]

    monkeypatch.setattr(rank_tests, "_upsilon", recorded)
    rv.test_order(x, p0, p1, ScoreSpec(kind), grid)
    table, m_vec = _scores_and_centering(ScoreSpec(kind), grid)
    oracle = serial_upsilon(x, fit_constrained_ls(x, p0, p1), table, grid, m_vec)
    assert len(seen) == 1 and np.array_equal(seen[0], oracle)


def test_collapsed_upsilon_column_names_its_coordinate(monkeypatch):
    # zero scores leave Delta unmoved by every perturbation: the error names
    # the first such coordinate instead of surfacing as a singular Upsilon_11
    x = np.random.default_rng(21).standard_normal((60, 2))
    grid = make_grid(factorize(60, 2), 2)
    monkeypatch.setattr(
        rank_tests, "grid_scores", lambda spec, which, grid: np.zeros(grid.points.shape)
    )
    with pytest.raises(rv.NumericalError, match="coordinate 1 of theta"):
        rv.test_order(x, 1, 2, ScoreSpec("vdw"), grid)


def test_explosive_fit_is_reported_as_non_stationary():
    # the fitted model itself, not one of its perturbations, is at fault
    e = np.random.default_rng(0).standard_normal((60, 2))
    x = np.zeros_like(e)
    for t in range(60):
        x[t] = e[t] + (1.05 * x[t - 1] if t else 0.0)
    grid = make_grid(factorize(60, 2), 2)
    with pytest.raises(rv.NumericalError, match="model is not stationary"):
        rv.test_order(x, 1, 2, ScoreSpec("vdw"), grid)


@settings(max_examples=60)
@given(
    batch=st.integers(1, 6),
    n=st.integers(2, 60),
    d=st.integers(1, 3),
    data=st.data(),
    seed=st.integers(0, 2**31),
)
def test_batched_lag_stack_rows_equal_single_rows(batch, n, d, data, seed):
    # each row of a batch, and each lag below the batch's horizon, is
    # computed as if alone
    L = data.draw(st.integers(1, n - 1))
    short = data.draw(st.integers(1, L))
    rng = np.random.default_rng(seed)
    sp = rng.standard_normal((batch, n, d))
    m_vec = rng.standard_normal(d * d)
    full = _lag_stacks(sp, m_vec, L)
    for b in range(batch):
        assert np.array_equal(full[b], _lag_stacks(sp[b : b + 1], m_vec, L)[0])
        assert np.array_equal(full[b, : short * d * d], _lag_stacks(sp[b : b + 1], m_vec, short)[0])


def per_lag_stacks(sp, m_vec, L):
    """Oracle: one product, one division and one scaled difference per lag,
    each in a temporary of its own."""
    B, n, d = sp.shape
    out = np.empty((B, L, d * d))
    for i in range(1, L + 1):
        g = np.matmul(sp[:, : n - i].transpose(0, 2, 1), sp[:, i:]) / (n - i)
        out[:, i - 1] = math.sqrt(n - i) * (g.reshape(B, d * d) - m_vec)
    return out.reshape(B, L * d * d)


@pytest.mark.parametrize("B", [1, 2, 9, 128])
@pytest.mark.parametrize("n", [12, 60, 301])
@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("L", [1, 2, 11])
@pytest.mark.parametrize("centred", [False, True])
def test_lag_stacks_equal_the_per_lag_oracle(B, n, d, L, centred):
    rng = np.random.default_rng(B * 1000 + n * 10 + d)
    sp = rng.standard_normal((B, n, d))
    m_vec = rng.standard_normal(d * d) if centred else 0.0
    assert np.array_equal(_lag_stacks(sp, m_vec, L), per_lag_stacks(sp, m_vec, L))


def test_input_validation():
    grid = make_grid(factorize(20, 2), 2)
    x = np.random.default_rng(0).standard_normal((20, 2))
    spec = ScoreSpec("sign")
    with pytest.raises(InputError):
        rv.test_specified(x[:19], ZERO2, spec, grid)
    with pytest.raises(InputError):
        rv.test_specified(np.full((20, 2), np.nan), ZERO2, spec, grid)
    with pytest.raises(InputError):
        rv.test_specified(x, ZERO2, spec, grid, alpha=1.5)
    with pytest.raises(InputError):
        rv.test_specified(x, ZERO2, spec, grid, M=0)
    theta3 = VarModel(d=3, p0=0, p1=1, theta=np.zeros(9))
    with pytest.raises(InputError):
        rv.test_specified(x, theta3, spec, grid)
    with pytest.raises(InputError):
        rv.test_order(x, 2, 2, spec, grid)


@pytest.mark.parametrize("kind", ["sign", "spearman", "vdw"])
@pytest.mark.parametrize("value", [0.0, 7.5])
def test_constant_series_is_an_input_error(value, kind):
    # every residual row tied: the coupling would hand the gridpoints out in
    # time order, one ray at a time, and the test would reject white noise
    x = np.full((60, 2), value)
    grid = make_grid(factorize(60, 2), 2)
    spec = ScoreSpec(kind)
    theta0 = VarModel.from_matrices([np.array([[0.5, 0.1], [0.0, 0.4]])])
    with pytest.raises(InputError, match="all equal"):
        rv.test_order(x, 0, 1, spec, grid, M=19, seed=1)
    with pytest.raises(InputError, match="all equal"):
        rv.test_specified(x, theta0, spec, grid)
    # the coupling itself stays valid on constant data
    assignment = solve_coupling(x, grid).assignment
    assert np.array_equal(np.sort(assignment), np.arange(60))


@settings(max_examples=60)
@given(
    n=st.integers(20, 60),
    d=st.integers(1, 3),
    kind=st.sampled_from(["sign", "spearman", "vdw"]),
    p0=st.sampled_from([0, 1]),
    M=st.integers(1, 39),
    alpha=st.floats(0.01, 0.99),
    rounded=st.booleans(),
    seed=st.integers(0, 2**31),
)
def test_permutational_calibration_is_exact(n, d, kind, p0, M, alpha, rounded, seed):
    # p = (1 + #{permuted >= observed}) / (M + 1), and the decision is p <= alpha
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, d))
    if rounded:
        x = np.round(x)
    grid = make_grid(factorize(n, d), d)
    out = rv.test_order(x, p0, p0 + 1, ScoreSpec(kind), grid, alpha=alpha, M=M, seed=seed)
    count = round(out.p_permutational * (M + 1))
    assert out.p_permutational == count / (M + 1) and 1 <= count <= M + 1
    assert out.reject == (out.p_permutational <= alpha)


def test_outcome_consistency_enforced():
    with pytest.raises(InputError):
        rv.TestOutcome(
            statistic=1.0,
            df=4,
            p_asymptotic=0.9,
            p_permutational=None,
            critical_value=9.5,
            reject=True,
            meta={},
        )
    out = rv.TestOutcome(
        statistic=1.0,
        df=4,
        p_asymptotic=0.9,
        p_permutational=None,
        critical_value=9.5,
        reject=False,
        meta={"score": "sign"},
    )
    d = out.to_dict()
    assert d["reject"] is False
    assert d["p_permutational"] is None
    assert d["meta"] == {"score": "sign"}


@pytest.mark.parametrize("M", [None, 19])
def test_non_finite_statistic_is_a_numerical_error(M):
    # a NaN score row used to give reject = (nan > cv) = False, silently
    s = np.random.default_rng(3).standard_normal((30, 2))
    s[7] = np.nan
    eye = np.eye(4)
    perms = None
    if M is not None:
        perms = Future()
        perms.set_result(rank_tests._draw_permutations(30, M, 1))
    with pytest.raises(rv.NumericalError, match="non-finite statistic"):
        rv.rank_tests._outcome(s, 0.0, eye, eye, 4, 0.05, {}, perms)


def sequential_chunks(n, M, seed):
    """The permutations drawn inline, chunk after chunk from one stream, by
    shuffling a tiled copy of the identity (the route before the in-place
    draw)."""
    rng = stream(seed, 11)
    sizes = [_PERM_CHUNK] * (M // _PERM_CHUNK) + [M % _PERM_CHUNK]
    return [rng.permuted(np.tile(np.arange(n), (b, 1)), axis=1) for b in sizes if b]


@pytest.mark.parametrize("which", ["specified", "order"])
def test_permutations_follow_the_sequential_draw(monkeypatch, which):
    # more than two chunks' worth: the one array is the chunks drawn in turn
    # from one stream, and is evaluated in blocks of _PERM_CHUNK rows
    n, M, seed = 24, 2 * _PERM_CHUNK + 37, 5
    x = np.random.default_rng(31).standard_normal((n, 2))
    grid = make_grid(factorize(n, 2), 2)
    spec = ScoreSpec("vdw")
    seen = {}
    real_outcome = rank_tests._outcome

    def recording(s, m_vec, a, k_inv, df, alpha, meta, perms=None):
        seen["form"] = (s, m_vec, a, k_inv)
        seen["perms"] = perms.result()
        return real_outcome(s, m_vec, a, k_inv, df, alpha, meta, perms)

    monkeypatch.setattr(rank_tests, "_outcome", recording)
    if which == "specified":
        theta0 = VarModel.from_matrices([np.array([[0.3, 0.1], [-0.1, 0.2]])], p1=2)
        out = rv.test_specified(x, theta0, spec, grid, M=M, seed=seed)
    else:
        out = rv.test_order(x, 1, 2, spec, grid, M=M, seed=seed)

    oracle = np.concatenate(sequential_chunks(n, M, seed))
    assert np.array_equal(seen["perms"], oracle)
    # the p-value recomputed from the oracle's permutations in one batch
    s, m_vec, a, k_inv = seen["form"]
    h = _lag_stacks(np.take(s, oracle, axis=0), m_vec, a.shape[1] // 4) @ a.T
    stats = np.einsum("mi,ij,mj->m", h, k_inv, h)
    assert out.p_permutational == _permutation_calibration(stats, out.statistic, 0.05)[0]


@pytest.mark.parametrize("which", ["specified", "order"])
def test_gather_blocks_change_no_statistic(monkeypatch, which):
    # gathers of 1, 7, 128 and more than M rows, straddling the blocks of
    # _PERM_CHUNK rows of the quadratic form, give the same bits
    n, M, seed = 24, 2 * _PERM_CHUNK + 37, 5
    x = np.random.default_rng(37).standard_normal((n, 2))
    grid = make_grid(factorize(n, 2), 2)
    spec = ScoreSpec("vdw")
    seen = []
    real_calibration = rank_tests._permutation_calibration

    def recording(stats, observed, alpha):
        seen.append(stats)
        return real_calibration(stats, observed, alpha)

    monkeypatch.setattr(rank_tests, "_permutation_calibration", recording)
    theta0 = VarModel.from_matrices([np.array([[0.3, 0.1], [-0.1, 0.2]])], p1=2)
    outcomes = []
    for gather in (rank_tests._GATHER, 1, 7, M, M + 100):
        monkeypatch.setattr(rank_tests, "_GATHER", gather)
        if which == "specified":
            out = rv.test_specified(x, theta0, spec, grid, M=M, seed=seed)
        else:
            out = rv.test_order(x, 1, 2, spec, grid, M=M, seed=seed)
        outcomes.append(out.to_dict())
    assert all(o == outcomes[0] for o in outcomes)
    assert all(np.array_equal(stats, seen[0]) for stats in seen)


def test_permuted_statistics_take_bounded_memory():
    # the gather holds _GATHER rows of scores whatever M is: 2 MB at
    # n = 1000, d = 2, where all 999 rows at once took 15.4 MB
    n, d, M = 1000, 2, 999
    s = np.random.default_rng(2).standard_normal((n, d))
    eye = np.eye(d * d)
    perms = Future()
    perms.set_result(rank_tests._draw_permutations(n, M, 1))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        rank_tests._outcome(s, 0.0, eye, eye, d * d, 0.05, {}, perms)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - base < 4e6


@pytest.mark.parametrize(
    "n, dtype",
    [(1, np.uint8), (2, np.uint8), (256, np.uint8), (257, np.uint16),
     (65536, np.uint16), (65537, np.uint32)],
)
def test_permutations_take_the_narrowest_unsigned_type(n, dtype):
    M, seed = 3, 9
    perms = rank_tests._draw_permutations(n, M, seed)
    oracle = stream(seed, 11).permuted(np.tile(np.arange(n), (M, 1)), axis=1)
    assert perms.dtype == dtype
    assert np.array_equal(perms, oracle)


def count_draws(monkeypatch):
    """List that grows by the drawing thread at each permutation draw."""
    drawn_on = []
    real_draw = rank_tests._draw_permutations

    def spy(*args):
        drawn_on.append(threading.current_thread())
        return real_draw(*args)

    monkeypatch.setattr(rank_tests, "_draw_permutations", spy)
    return drawn_on


def test_no_worker_thread_outlives_a_test(monkeypatch):
    baseline = threading.active_count()
    drawn_on = count_draws(monkeypatch)
    spec = ScoreSpec("sign")
    grid = make_grid(factorize(60, 2), 2)
    x = np.random.default_rng(41).standard_normal((60, 2))

    rv.test_order(x, 0, 1, spec, grid, M=99, seed=1)
    assert threading.active_count() == baseline
    assert drawn_on and threading.main_thread() not in drawn_on

    with pytest.raises(InputError, match="all equal"):
        rv.test_order(np.full((60, 2), 7.5), 0, 1, spec, grid, M=99, seed=1)
    assert threading.active_count() == baseline

    w = x[:, 0]
    with pytest.raises(rv.NumericalError):
        rv.test_order(np.column_stack([w, w]), 1, 2, spec, grid, M=99, seed=1)
    assert threading.active_count() == baseline


def test_a_series_scope_draws_each_permutation_set_once(monkeypatch):
    grid = make_grid(factorize(60, 2), 2)
    x = np.random.default_rng(43).standard_normal((60, 2))
    runs = [
        lambda seed: rv.test_order(x, 0, 1, ScoreSpec("sign"), grid, M=49, seed=seed),
        lambda seed: rv.test_order(x, 1, 2, ScoreSpec("vdw"), grid, M=49, seed=seed),
    ]
    alone = [run(3).to_dict() for run in runs]
    drawn_on = count_draws(monkeypatch)
    with _series_scope():
        assert [run(3).to_dict() for run in runs] == alone
        assert len(drawn_on) == 1
        runs[0](4)
        assert len(drawn_on) == 2
    assert threading.main_thread() not in drawn_on


def order_outcomes(x, p0, grid):
    """What test_order (vdw, sign) and gaussian_test_order return at p0 vs
    p0 + 1, as JSON text, or the error each raises."""
    runs = [
        lambda: rv.test_order(x, p0, p0 + 1, ScoreSpec("vdw"), grid, M=9, seed=3),
        lambda: rv.test_order(x, p0, p0 + 1, ScoreSpec("sign"), grid),
        lambda: gaussian_test_order(x, p0, p0 + 1),
    ]
    out = []
    for run in runs:
        try:
            out.append(json.dumps(run().to_dict(), sort_keys=True))
        except (InputError, rv.NumericalError) as exc:
            out.append(f"{type(exc).__name__}: {exc}")
    return out


@settings(max_examples=30)
@given(
    n=st.integers(30, 80),
    d=st.integers(1, 3),
    p0=st.integers(0, 2),
    rounded=st.booleans(),
    seed=st.integers(0, 2**31),
)
def test_series_scope_changes_no_outcome(n, d, p0, rounded, seed):
    # a scope shares fits, perturbations, operator matrices and couplings
    # between the tests of a series: every outcome stays bit for bit
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, d))
    for t in range(1, n):
        x[t] += 0.4 * x[t - 1]
    if rounded:
        x = np.round(x)
    grid = make_grid(factorize(n, d), d)
    alone = order_outcomes(x, p0, grid)
    with _series_scope():
        assert order_outcomes(x, p0, grid) == alone
        assert order_outcomes(x, p0, grid) == alone
