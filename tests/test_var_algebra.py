import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import solve_discrete_lyapunov

import rankvar as rv
from rankvar import (
    InputError,
    NumericalError,
    VarModel,
    build_operator_matrices,
    fit_constrained_ls,
    residuals,
    simulate_var,
    unvec,
    vec,
)
from rankvar.var_algebra import (
    _SCOPE,
    _fundamental_rows,
    _greens,
    _operator_stack,
    _series_scope,
)


def solve_d_coefficients(greens, p0):
    """Oracle: D_1..D_p0 of D(L) = I + sum_i D_i L^i from its defining
    equation G(L) D'(L) = I, by forward substitution in the triangular
    system D_r' = -G_r - sum_{c=1}^{r-1} G_{r-c} D_c'."""
    d_t = []
    for r in range(1, p0 + 1):
        acc = -greens[r].copy()
        for c in range(1, r):
            acc -= greens[r - c] @ d_t[c - 1]
        d_t.append(acc)
    return [m.T for m in d_t]


def kron_loop_operators(model, n, fundamental="identity"):
    """Oracle: M, P, Q, T and effective_lags built one block and one lag at a time.

    Fundamental rows follow psi_t = -sum_i D_i psi_{t-i} as a list, one
    product per coefficient; every block of M and Q is its own np.kron.  Q
    has all n - 1 block rows and T all n - 1 block columns.  The initial
    window is the identity (P = I, as in the package) or, with
    ``fundamental="green"``, the Green matrices of D(L), whose Casorati
    matrix P inverts; T = M'P'Q' is the same under both.
    """
    d, p0, p1 = model.d, model.p0, model.p1
    d2 = d * d
    eye_d = np.eye(d)
    greens = _greens(model, p1)
    m = np.zeros((d2 * p1, d2 * p1))
    for r in range(1, p1 + 1):
        for c in range(1, r + 1):
            m[(r - 1) * d2: r * d2, (c - 1) * d2: c * d2] = np.kron(greens[r - c].T, eye_d)
    q = np.zeros((d2 * (n - 1), d2 * p1))
    head = d2 * (p1 - p0)
    q[:head, :head] = np.eye(head)
    p_mat = np.eye(d2 * p1)
    effective = p1
    if p0 > 0:
        d_coeffs = solve_d_coefficients(greens, p0)
        rows = []
        if fundamental == "identity":
            for a in range(p0):
                row = np.zeros((d, d * p0))
                row[:, a * d: (a + 1) * d] = eye_d
                rows.append(row)
        else:
            h = [eye_d]
            for u in range(1, p0):
                acc = np.zeros((d, d))
                for i, di in enumerate(d_coeffs, start=1):
                    if u - i >= 0:
                        acc -= di @ h[u - i]
                h.append(acc)
            for a in range(1, p0 + 1):
                row = np.zeros((d, d * p0))
                for j in range(1, a + 1):
                    row[:, (j - 1) * d: j * d] = h[a - j]
                rows.append(row)
        quiet = 0
        while len(rows) < n - 1 - (p1 - p0):
            row = np.zeros((d, d * p0))
            for i, di in enumerate(d_coeffs, start=1):
                row -= di @ rows[-i]
            if np.max(np.abs(row)) < 1e-12:
                quiet += 1
                if quiet >= p0:
                    break
            else:
                quiet = 0
            rows.append(row)
        while len(rows) > p0 and np.max(np.abs(rows[-1])) < 1e-12:
            rows.pop()
        effective = (p1 - p0) + len(rows)
        for k, row in enumerate(rows):
            t = p1 - p0 + 1 + k
            q[(t - 1) * d2: t * d2, head:] = np.kron(row, eye_d)
        if fundamental != "identity":
            casorati = np.vstack([np.kron(rows[a], eye_d) for a in range(p0)])
            p_mat[head:, head:] = np.linalg.inv(casorati)
    return m, p_mat, q, m.T @ p_mat.T @ q.T, effective


def assert_matches_oracle(model, n):
    ops = build_operator_matrices(model, n)
    m, p_mat, q, t, effective = kron_loop_operators(model, n)
    assert np.array_equal(ops.M, m)
    assert np.array_equal(ops.P, p_mat)
    assert ops.effective_lags == effective
    # production Q and T stop at the horizon; the oracle's later block rows are zero
    rows = model.d ** 2 * effective
    for got, want in ((ops.Q, q), (ops.T.T, t.T)):
        assert got.shape == want[:rows].shape
        assert np.max(np.abs(got - want[:rows])) <= 1e-13 * np.max(np.abs(want))
        assert np.all(want[rows:] == 0.0)
    return ops


def green_system_t(model, n):
    """The package's T, zero-padded to n - 1 block columns, and the oracle's
    T under the Green-matrix fundamental system."""
    t_id = build_operator_matrices(model, n).T
    t_gr = kron_loop_operators(model, n, "green")[3]
    padded = np.zeros_like(t_gr)
    padded[:, : t_id.shape[1]] = t_id
    return padded, t_gr


def random_stationary(rng, d, p0, p1=None):
    """Random VAR(p0) scaled until the companion radius is below 0.9."""
    mats = [rng.standard_normal((d, d)) for _ in range(p0)]
    model = VarModel.from_matrices(mats, p1=p1)
    while model.spectral_radius() > 0.9:
        mats = [0.7 * a for a in mats]
        model = VarModel.from_matrices(mats, p1=p1)
    return model


def test_vec_is_column_major():
    m = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert np.array_equal(vec(m), [1.0, 3.0, 2.0, 4.0])
    assert np.array_equal(unvec(vec(m), 2), m)
    with pytest.raises(InputError):
        unvec(np.zeros(3), 2)


def test_model_validation():
    with pytest.raises(InputError):
        VarModel(d=2, p0=1, p1=1, theta=np.zeros(3))  # wrong length
    with pytest.raises(InputError):
        VarModel(d=2, p0=2, p1=1, theta=np.zeros(4))  # p0 > p1
    with pytest.raises(InputError):
        VarModel(d=2, p0=0, p1=1, theta=np.ones(4))  # nonzero beyond p0
    with pytest.raises(InputError):
        VarModel(d=2, p0=1, p1=1, theta=np.full(4, np.nan))
    with pytest.raises(InputError, match="p1 >= 1"):
        VarModel(d=2, p0=0, p1=0, theta=[])  # a null with no lag to test


_GRID = rv.make_grid(rv.factorize(60, 2), 2, seed=0)
_NULL = VarModel(d=2, p0=0, p1=1, theta=np.zeros(4))
_SERIES_ENTRIES = {
    "test_specified": lambda x: rv.test_specified(x, _NULL, rv.ScoreSpec("sign"), _GRID),
    "test_order": lambda x: rv.test_order(x, 0, 1, rv.ScoreSpec("sign"), _GRID),
    "gaussian_test_specified": lambda x: rv.gaussian_test_specified(x, _NULL),
    "gaussian_test_order": lambda x: rv.gaussian_test_order(x, 0, 1),
    "identify_order": lambda x: rv.identify_order(x, "gaussian"),
    "fit_constrained_ls": lambda x: fit_constrained_ls(x, 1),
    "contaminate": lambda x: rv.contaminate(x, rv.ContaminationSpec(0.1, [1.0, 1.0])),
}


@pytest.mark.parametrize("entry", sorted(_SERIES_ENTRIES))
@pytest.mark.parametrize("bad", ["1-d", "nan"])
def test_every_series_entry_refuses_a_malformed_series(entry, bad):
    x = np.random.default_rng(4).standard_normal((60, 2))
    if bad == "1-d":
        x = x[:, 0]
        message = "series must be 2-d"
    else:
        x[7, 1] = np.nan
        message = "series contains non-finite entries"
    with pytest.raises(InputError, match=message):
        _SERIES_ENTRIES[entry](x)


def test_from_matrices_and_coefficient():
    a1 = np.array([[0.3, 0.12], [-0.06, 0.24]])
    model = VarModel.from_matrices([a1], p1=3)
    assert (model.p0, model.p1) == (1, 3)
    assert np.array_equal(model.coefficient(1), a1)
    assert np.all(model.coefficient(2) == 0.0)
    assert np.array_equal(model.theta[:4], [0.3, -0.06, 0.12, 0.24])
    with pytest.raises(InputError):
        model.coefficient(4)


def test_from_matrices_refuses_an_order_below_its_matrices():
    # unchecked, the negative zero padding raises numpy's bare ValueError
    a1 = np.array([[0.3, 0.12], [-0.06, 0.24]])
    with pytest.raises(InputError, match="need p1 >= 2"):
        VarModel.from_matrices([a1, a1], p1=1)


def test_spectral_radius():
    m1 = VarModel.from_matrices([np.array([[0.5]])])
    assert np.isclose(m1.spectral_radius(), 0.5)
    # AR(2) companion: roots of z^2 - 0.5 z - 0.24 are 0.8 and -0.3
    m2 = VarModel.from_matrices([np.array([[0.5]]), np.array([[0.24]])])
    assert np.isclose(m2.spectral_radius(), 0.8)
    assert m2.is_stationary()
    zero = VarModel(d=2, p0=0, p1=1, theta=np.zeros(4))
    assert zero.spectral_radius() == 0.0


def test_spectral_radius_is_computed_once_per_model(monkeypatch):
    calls = []
    eigvals = np.linalg.eigvals
    monkeypatch.setattr(np.linalg, "eigvals", lambda a: calls.append(1) or eigvals(a))
    theta = np.array([0.5, 0.1, 0.0, 0.4, 0.0, 0.0, 0.0, 0.0])
    model = VarModel(d=2, p0=1, p1=2, theta=theta)
    theta[0] = 2.0  # the model keeps its own read-only copy
    assert not model.theta.flags.writeable and model.theta[0] == 0.5
    assert model.is_stationary()
    build_operator_matrices(model, 50)
    simulate_var(model, 5, np.zeros((5, 2)), burn_in=0)
    assert np.isclose(model.spectral_radius(), 0.5) and len(calls) == 1


def test_green_matrices_scalar_examples():
    g = _greens(VarModel.from_matrices([np.array([[0.5]])]), 3)
    assert np.allclose(g.ravel(), [1.0, 0.5, 0.25, 0.125])
    m2 = VarModel.from_matrices([np.array([[0.5]]), np.array([[0.24]])])
    g2 = _greens(m2, 4)
    assert np.allclose(g2.ravel(), [1.0, 0.5, 0.49, 0.365, 0.3001])


@pytest.mark.parametrize("trial", range(10))
def test_green_right_convolution(trial):
    # greens are built by the left recursion G_u = sum A_i G_{u-i}; the
    # right identity G_u = sum G_{u-i} A_i is an independent consequence
    rng = np.random.default_rng(1200 + trial)
    d = int(rng.integers(2, 4))
    p0 = int(rng.integers(1, 4))
    model = random_stationary(rng, d, p0)
    g = _greens(model, 12)
    for u in range(1, 13):
        acc = np.zeros((d, d))
        for i, a in enumerate(model.a_list, start=1):
            if u - i >= 0:
                acc += g[u - i] @ a
        assert np.max(np.abs(g[u] - acc)) < 1e-12


def test_d_coefficients_are_negated_transposes():
    # the oracle's solve of G(L) D'(L) = I gives D(L) = A(L)', which the
    # package reads off theta
    rng = np.random.default_rng(17)
    model = random_stationary(rng, 3, 3)
    g = _greens(model, 3)
    for d_i, a_i in zip(solve_d_coefficients(g, 3), model.a_list):
        assert np.allclose(d_i, -a_i.T, atol=1e-12)


@pytest.mark.parametrize("trial", range(4))
@pytest.mark.parametrize("p0", [2, 3])
def test_first_row_past_the_identity_window_is_the_companion_step(p0, trial):
    # row p0 is [A_p0' ... A_1'] times the identity window, so it equals the
    # transposed coefficients exactly
    rng = np.random.default_rng(7100 + 10 * p0 + trial)
    for d in (1, 2, 3):
        model = random_stationary(rng, d, p0, p1=p0 + trial % 2)
        rows, _ = _fundamental_rows([model], 80)
        want = np.hstack([a.T for a in model.a_list[::-1]])
        assert np.array_equal(rows[0, p0], want)


def test_operator_matrices_structure():
    rng = np.random.default_rng(5)
    model = random_stationary(rng, 2, 1, p1=3)
    n = 40
    ops = build_operator_matrices(model, n)
    greens = _greens(model, 3)
    d2 = 4
    # M blocks are kron(G_{r-c}', I)
    for r in range(1, 4):
        for c in range(1, 4):
            block = ops.M[(r - 1) * d2: r * d2, (c - 1) * d2: c * d2]
            want = np.kron(greens[r - c].T, np.eye(2)) if r >= c else 0.0
            assert np.allclose(block, want)
    assert np.array_equal(ops.P, np.eye(d2 * 3))
    assert np.allclose(ops.T, ops.M.T @ ops.P.T @ ops.Q.T)
    assert np.allclose(ops.Q[:d2], np.eye(d2 * 3)[:d2])


def test_identity_window_q_column_scalar():
    model = VarModel.from_matrices([np.array([[0.5]])])
    ops = build_operator_matrices(model, 10)
    col = ops.Q[:, 0]
    assert np.allclose(col[:5], [1.0, 0.5, 0.25, 0.125, 0.0625])


def test_t_invariant_to_fundamental_system():
    rng = np.random.default_rng(23)
    for trial in range(5):
        d = int(rng.integers(1, 4))
        p0 = int(rng.integers(1, 4))
        model = random_stationary(rng, d, p0, p1=p0 + int(rng.integers(0, 2)))
        t_id, t_gr = green_system_t(model, 60)
        scale = max(np.max(np.abs(t_id)), 1e-30)
        assert np.max(np.abs(t_id - t_gr)) / scale < 1e-8


def test_p0_zero_operator_matrices():
    model = VarModel(d=2, p0=0, p1=2, theta=np.zeros(8))
    ops = build_operator_matrices(model, 30)
    assert np.array_equal(ops.M, np.eye(8))
    assert ops.effective_lags == 2
    assert ops.Q.shape[0] == ops.T.shape[1] == 4 * 2  # L = p1
    # T = [I, 0] over all 29 lags, cut after its first L block columns
    assert np.allclose(ops.T, np.eye(8))


@pytest.mark.parametrize("trial", range(8))
def test_builder_matches_kron_loop_oracle(trial):
    # 25 random stationary models per trial
    rng = np.random.default_rng(4100 + trial)
    for _ in range(25):
        d = int(rng.integers(1, 4))
        p0 = int(rng.integers(0, 4))
        p1 = max(1, p0 + int(rng.integers(0, 3)))
        n = int(rng.integers(p1 + 2, 501))
        if p0 == 0:
            model = VarModel(d=d, p0=0, p1=p1, theta=np.zeros(p1 * d * d))
        else:
            model = random_stationary(rng, d, p0, p1=p1)
        assert_matches_oracle(model, n)


def test_near_unit_root_reaches_full_horizon():
    # spectral radius 0.97: 0.97^t stays above 1e-12 past t = 799
    model = VarModel.from_matrices([np.array([[0.97, 0.2], [0.0, 0.5]])], p1=2)
    assert np.isclose(model.spectral_radius(), 0.97)
    ops = assert_matches_oracle(model, 800)
    assert ops.effective_lags == 799
    assert ops.Q.shape[0] == ops.T.shape[1] == 4 * 799


@settings(max_examples=40)
@given(
    d=st.integers(1, 3),
    p0=st.integers(1, 3),
    extra=st.integers(0, 2),
    size=st.integers(1, 5),
    full_horizon=st.booleans(),
    seed=st.integers(0, 2**31),
)
def test_stacked_builds_equal_single_builds(d, p0, extra, size, full_horizon, seed):
    # one companion recursion for a stack gives each model's own rows, lag
    # horizon and operator matrices, bit for bit; with the 0.97 model the
    # stack mixes the full horizon n - 1 with truncating models
    rng = np.random.default_rng(seed)
    p1 = p0 + extra
    n = 600 if full_horizon else int(rng.integers(p1 + 2, 300))
    models = [random_stationary(rng, d, p0, p1=p1) for _ in range(size)]
    if full_horizon:
        a1 = np.diag(np.linspace(0.97, 0.5, d))
        slow = VarModel.from_matrices([a1] + [np.zeros((d, d))] * (p0 - 1), p1=p1)
        models.insert(int(rng.integers(0, size + 1)), slow)
    rows, horizons = _fundamental_rows(models, n)
    for k, model in enumerate(models):
        alone, (horizon,) = _fundamental_rows([model], n)
        length = horizon - (p1 - p0)
        assert horizons[k] == horizon
        assert np.array_equal(rows[k, :length], alone[0, :length])
    if full_horizon:
        assert horizons.max() == n - 1 > horizons.min()
    for model, ops in zip(models, _operator_stack(models, n)):
        single = build_operator_matrices(model, n)
        assert ops.effective_lags == single.effective_lags
        for name in ("M", "P", "Q", "T"):
            assert np.array_equal(getattr(ops, name), getattr(single, name))


def test_series_scope_builds_each_model_once():
    rng = np.random.default_rng(6)
    model, other = (random_stationary(rng, 2, 1, p1=2) for _ in range(2))
    ops = build_operator_matrices(model, 50)
    for name in ("M", "P", "Q", "T"):
        assert not getattr(ops, name).flags.writeable
    assert build_operator_matrices(model, 50) is not ops  # no scope, no memo
    explosive = VarModel.from_matrices([np.eye(2) * 1.1], p1=2)
    with _series_scope():
        ops = build_operator_matrices(model, 50)
        twin = VarModel(d=2, p0=1, p1=2, theta=model.theta.copy())
        assert build_operator_matrices(twin, 50) is ops  # keyed on the values
        assert build_operator_matrices(model, 51) is not ops
        stack = _operator_stack([other, model, other], 50)
        assert _operator_stack([other, model, other], 50) is stack  # once per stack
        assert _operator_stack([other, model], 50) is not stack
        for _ in range(2):  # a raise is not stored
            with pytest.raises(NumericalError, match="not stationary"):
                build_operator_matrices(explosive, 50)
    assert _SCOPE.get() is None


def test_effective_lags_truncation():
    model = VarModel.from_matrices([np.array([[0.5]])])
    ops = build_operator_matrices(model, 500)
    assert ops.effective_lags < 100  # 0.5^t is below 1e-12 past t ~ 40
    assert ops.Q.shape[0] == ops.T.shape[1] == ops.effective_lags  # d = 1


def test_simulate_var_recursion_and_inversion():
    model = VarModel.from_matrices([np.array([[0.5]])])
    eps = np.array([[1.0], [0.0], [0.0]])
    x = simulate_var(model, 3, eps, burn_in=0)
    assert np.allclose(x.ravel(), [1.0, 0.5, 0.25])

    rng = np.random.default_rng(8)
    model2 = random_stationary(rng, 2, 2)
    eps2 = rng.standard_normal((50, 2))
    x2 = simulate_var(model2, 50, eps2, burn_in=0)
    # with zero initial values the filter inverts the simulation exactly
    assert np.allclose(residuals(x2, model2), eps2, atol=1e-12)


def test_simulate_var_validates():
    model = VarModel.from_matrices([np.array([[0.5]])])
    with pytest.raises(InputError):
        simulate_var(model, 10, np.zeros((5, 1)), burn_in=0)  # too few rows
    unstable = VarModel.from_matrices([np.array([[1.01]])])
    with pytest.raises(NumericalError):
        simulate_var(unstable, 10, np.zeros((10, 1)), burn_in=0)


def test_sample_covariance_matches_lyapunov():
    a1 = np.array([[0.3, 0.12], [-0.06, 0.24]])
    model = VarModel.from_matrices([a1])
    rng = np.random.default_rng(31)
    x = simulate_var(model, 40_000, rng.standard_normal((40_200, 2)))
    sigma = solve_discrete_lyapunov(a1, np.eye(2))
    sample = x.T @ x / x.shape[0]
    assert np.allclose(sample, sigma, atol=0.05)


def test_fit_recovers_coefficients():
    rng = np.random.default_rng(44)
    a1 = np.array([[0.3, 0.12], [-0.06, 0.24]])
    model = VarModel.from_matrices([a1], p1=2)
    x = simulate_var(model, 4000, rng.standard_normal((4200, 2)))
    fit = fit_constrained_ls(x, 1, p1=2)
    assert np.max(np.abs(fit.coefficient(1) - a1)) < 0.05
    assert np.all(fit.coefficient(2) == 0.0)
    # discretized estimate sits on the n^{-1/2}/100 lattice
    pitch = 4000 ** -0.5 / 100.0
    ratio = fit.theta / pitch
    assert np.allclose(ratio, np.round(ratio), atol=1e-8)
    # ... next to the plain least-squares estimate
    xc = x - x.mean(axis=0)
    b = np.linalg.lstsq(xc[:-1], xc[1:], rcond=None)[0]
    assert np.max(np.abs(b.T.reshape(-1, order="F") - fit.theta[:4])) <= pitch


def test_fit_edge_cases():
    x = np.random.default_rng(2).standard_normal((100, 2))
    zero = fit_constrained_ls(x, 0, p1=2)
    assert zero.p0 == 0 and np.all(zero.theta == 0.0)
    with pytest.raises(InputError):
        fit_constrained_ls(x[:12], 1)  # too short
    with pytest.raises(InputError):
        fit_constrained_ls(x, 1, p1=0)
    const = np.ones((100, 2))
    with pytest.raises(NumericalError):
        fit_constrained_ls(const, 1)  # demeaned design is all zeros


def test_fit_at_order_zero_defaults_to_a_var1_frame():
    # with p1 defaulting to p0, this call asked for the refused frame p1 = 0
    zero = fit_constrained_ls(np.random.default_rng(3).standard_normal((50, 2)), 0)
    assert (zero.p0, zero.p1) == (0, 1)
    assert np.array_equal(zero.theta, np.zeros(4))


@pytest.mark.parametrize("d,p0", [(1, 3), (2, 1), (2, 2), (3, 1)])
def test_fit_is_bitwise_equal_across_power_of_two_scalings(d, p0):
    x = np.random.default_rng(10 * d + p0).standard_normal((120, d))
    fit = fit_constrained_ls(x, p0, p1=p0 + 1)
    # the last scaling puts max |x| in [2^1022, 2^1023), where a plain
    # column mean overflows
    top = np.frexp(np.abs(x).max())[1]
    for k in (-900, -3, 7, 400, 1023 - top):
        scaled = fit_constrained_ls(np.ldexp(x, k), p0, p1=p0 + 1)
        assert scaled.theta.tobytes() == fit.theta.tobytes(), k
