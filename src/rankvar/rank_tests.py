"""Rank-based cross-covariances, central sequences, and the two test statistics.

The specified-parameter statistic S and the order-testing statistic W both
live on the lagged score cross-covariances of the center-outward ranks and
signs of VAR residuals.  Calibration is either asymptotic (chi-square) or
permutational: conditionally on the residuals, the null distribution of the
rank statistics is invariant under permutations of the grid assignment, so
permuted couplings resample the exact finite-n null.

Every test, rank or Gaussian, is one computation: a quadratic form
h' K^{-1} h in a linear map h = A v of the stacked lagged cross-covariances
v.  :func:`_lag_stacks` is the single kernel that forms v, for the observed
assignment (the identity permutation) and for permuted ones alike;
:func:`_block_gram` forms the Gram matrices sum_i A_i C A_i' behind K; and
:func:`_outcome` evaluates the form and calibrates it.  Each test only
builds its A and K.  :func:`rank_cross_cov` and :func:`central_sequence`
are an independent per-lag route to the same stack, kept as the reference
the tests check the kernel against.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from ._errors import InputError, NumericalError
from ._rng import fresh_seed, stream
from .grid import BallGrid
from .scores import (
    ScoreSpec,
    _table_centering,
    centering,
    chisq_quantile,
    chisq_sf,
    grid_scores,
    score_covariance,
)
from .transport import Coupling, solve_coupling
from .var_algebra import (
    OperatorMatrices,
    VarModel,
    build_operator_matrices,
    fit_constrained_ls,
    residuals,
)

__all__ = [
    "RankCrossCovStack",
    "TestOutcome",
    "rank_cross_cov",
    "central_sequence",
    "test_specified",
    "estimate_upsilon",
    "test_order",
]

# Permutation batches are processed in fixed-size chunks so that the per-time
# score arrays stay comfortably in memory at M = 5000, n = 800.
_PERM_CHUNK = 1024

_EXHAUSTIVE_LIMIT = 8


@dataclass(frozen=True)
class RankCrossCovStack:
    """Lagged rank cross-covariances Gamma_i, i = 1..L, with their weights.

    Attributes
    ----------
    blocks : (L, d, d) array
        Gamma_i = (n-i)^{-1} sum_{t=i+1}^n J1(F_t) J2(F_{t-i})'.
    weights : (L,) array
        (n-i)^{1/2} / n^{1/2}, the stacking weights.
    centering : (d, d) array
        The exact null mean of every block.
    n : int
        Sample size behind the coupling.
    """

    blocks: np.ndarray = field(repr=False)
    weights: np.ndarray = field(repr=False)
    centering: np.ndarray = field(repr=False)
    n: int = 0

    @property
    def max_lag(self) -> int:
        return self.blocks.shape[0]


@dataclass(frozen=True)
class TestOutcome:
    """Result of one hypothesis test.

    ``reject`` always equals ``statistic > critical_value``; with
    permutational calibration the critical value is the order statistic
    that makes this equivalent to ``p_permutational <= alpha``, ties
    included.
    """

    statistic: float
    df: int
    p_asymptotic: float
    p_permutational: float | None
    critical_value: float
    reject: bool
    meta: dict

    def __post_init__(self):
        if self.reject != (self.statistic > self.critical_value):
            raise InputError("reject flag inconsistent with critical value")

    def to_dict(self) -> dict:
        return {
            "statistic": float(self.statistic),
            "df": int(self.df),
            "p_asymptotic": float(self.p_asymptotic),
            "p_permutational": (
                None if self.p_permutational is None else float(self.p_permutational)
            ),
            "critical_value": float(self.critical_value),
            "reject": bool(self.reject),
            "meta": dict(self.meta),
        }


def _score_pair(coupling: Coupling, spec: ScoreSpec) -> tuple[np.ndarray, np.ndarray]:
    """Per-time score arrays (J1(F_t), J2(F_t)) as (n, d) matrices."""
    g1 = grid_scores(spec, 1, coupling.grid)
    g2 = grid_scores(spec, 2, coupling.grid)
    return g1[coupling.assignment], g2[coupling.assignment]


def rank_cross_cov(c: Coupling, spec: ScoreSpec, max_lag: int) -> RankCrossCovStack:
    """All lagged rank cross-covariances up to ``max_lag``.

    Gamma_i averages the (n - i) outer products J1(F_t) J2(F_{t-i})' and the
    attached centering matrix is its exact expectation under the null, which
    does not depend on the lag.
    """
    n = c.n
    if not 1 <= max_lag <= n - 1:
        raise InputError(f"need 1 <= max_lag <= n-1 = {n - 1}, got {max_lag}")
    a, b = _score_pair(c, spec)
    d = a.shape[1]
    blocks = np.empty((max_lag, d, d))
    for i in range(1, max_lag + 1):
        blocks[i - 1] = a[i:].T @ b[: n - i] / (n - i)
    lags = np.arange(1, max_lag + 1)
    weights = np.sqrt(n - lags) / math.sqrt(n)
    return RankCrossCovStack(
        blocks=blocks, weights=weights, centering=centering(spec, c.grid), n=n
    )


def _stack_vector(stack: RankCrossCovStack) -> np.ndarray:
    """Concatenated blocks (n-i)^{1/2} vec(Gamma_i - centering).

    This is n^{1/2} times the weighted stack, the form both statistics
    consume.
    """
    L, d, _ = stack.blocks.shape
    centered = stack.blocks - stack.centering
    v = centered.transpose(0, 2, 1).reshape(L, d * d)  # column-major vec per lag
    scale = stack.weights * math.sqrt(stack.n)
    return (v * scale[:, None]).reshape(-1)


def central_sequence(stack: RankCrossCovStack, ops: OperatorMatrices, n: int) -> np.ndarray:
    """The rank-based central sequence Delta = n^{1/2} T (weighted stack)."""
    if stack.n != n:
        raise InputError(f"stack built at n={stack.n}, called with n={n}")
    L = stack.max_lag
    if L != ops.effective_lags:
        raise InputError(
            f"stack horizon {L} does not match operator truncation "
            f"{ops.effective_lags}"
        )
    d2 = stack.blocks.shape[1] ** 2
    return ops.T[:, : L * d2] @ _stack_vector(stack)


def _solve_spd(mat: np.ndarray, what: str, ridge: bool = False) -> np.ndarray:
    """Inverse of a symmetric positive-definite matrix, with diagnostics.

    With ``ridge`` a 1e-10 * trace ridge absorbs floating-point asymmetry;
    anything worse raises NumericalError naming the offending matrix.
    """
    m = np.asarray(mat, dtype=float)
    m = (m + m.T) / 2.0
    if ridge:
        m = m + 1e-10 * abs(np.trace(m)) * np.eye(m.shape[0])
    try:
        inv = np.linalg.inv(m)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"singular {what}") from exc
    if not np.all(np.isfinite(inv)) or np.linalg.cond(m) > 1e12:
        raise NumericalError(f"ill-conditioned {what}")
    return inv


def _lag_stacks(s: np.ndarray, m_vec, L: int, perms: np.ndarray) -> np.ndarray:
    """Stacked lagged cross-covariances for a batch of time permutations.

    The one kernel behind every statistic.  Both slots of the
    cross-covariance read the same per-time array (J1 = J2 for every
    ``ScoreSpec``; the Gaussian tests pass residuals).

    Parameters
    ----------
    s : (n, d) array
        Per-time values: scores of the observed assignment, or residuals.
    m_vec : (d*d,) array or 0.0
        vec of the null mean subtracted from every block.
    L : int
        Lag horizon.
    perms : (B, n) integer array
        Time permutations; the identity row gives the observed stack.

    Returns
    -------
    (B, L*d*d) array whose block i is (n-i)^{1/2} (vec Gamma_i - m_vec),
    Gamma_i = (n-i)^{-1} sum_t s_t s_{t-i}'.
    """
    n, d = s.shape
    B = perms.shape[0]
    sp = s[perms]
    out = np.empty((B, L, d * d))
    for i in range(1, L + 1):
        # S_{t-i}' S_t is Gamma_i', whose row-major layout is vec(Gamma_i).
        g = np.matmul(sp[:, : n - i].transpose(0, 2, 1), sp[:, i:]) / (n - i)
        out[:, i - 1] = math.sqrt(n - i) * (g.reshape(B, d * d) - m_vec)
    return out.reshape(B, L * d * d)


def _block_gram(a: np.ndarray, cov: np.ndarray) -> np.ndarray:
    """A (I kron cov) A' = sum_i A_i cov A_i' over the d^2-column blocks A_i of A."""
    r = a.shape[0]
    return (a.reshape(r, -1, cov.shape[0]) @ cov).reshape(r, -1) @ a.T


def _iter_perm_chunks(n: int, M: int | None, seed: int, exhaustive: bool):
    """Yield (B, n) permutation arrays, chunked.

    Random permutations come from the seeded stream; exhaustive enumeration
    walks all n! permutations (n <= 8).
    """
    if exhaustive:
        it = itertools.permutations(range(n))
        while True:
            chunk = list(itertools.islice(it, _PERM_CHUNK))
            if not chunk:
                return
            yield np.array(chunk, dtype=np.intp)
    else:
        rng = stream(seed, 11)
        remaining = M
        base = np.arange(n)
        while remaining > 0:
            size = min(_PERM_CHUNK, remaining)
            yield rng.permuted(np.tile(base, (size, 1)), axis=1)
            remaining -= size


def _snap_ties(values: np.ndarray) -> np.ndarray:
    """Collapse float-noise ties to exact ties.

    Distinct permutations can give statistic values that coincide in exact
    arithmetic (at small n many assignments share a statistic), yet the
    floating-point sums over their differently ordered terms differ in the
    last bits, which would break tie counting.  Values are clustered by
    sorted gaps below a 1e-9 relative tolerance and snapped to their
    cluster maximum; genuinely distinct values sit far above that gap.
    """
    tol = 1e-9 * max(1.0, float(np.max(np.abs(values))))
    order = np.argsort(values, kind="stable")
    v = values[order]
    starts = np.empty(v.size, dtype=bool)
    starts[0] = True
    starts[1:] = np.diff(v) > tol
    cluster = np.cumsum(starts) - 1
    ends = np.append(np.nonzero(starts[1:])[0], v.size - 1)
    out = np.empty_like(values)
    out[order] = v[ends][cluster]
    return out


def _permutation_calibration(stats: np.ndarray, observed: float, alpha: float):
    """p-value and critical value from permuted statistic values.

    p = (1 + #{stat_m >= observed}) / (M + 1) with ties snapped first; the
    critical value is the order statistic making ``observed >
    critical_value`` equivalent to ``p <= alpha`` even with ties (snapping
    to cluster maxima keeps that equivalence for the raw observed value).
    """
    m = stats.size
    combined = _snap_ties(np.append(stats, observed))
    stats_s, obs_s = combined[:m], float(combined[m])
    count = int(np.sum(stats_s >= obs_s))
    p_perm = (1 + count) / (m + 1)
    k = math.floor(alpha * (m + 1)) - 1
    if k < 0:
        cv = math.inf
    elif k >= m:
        cv = -math.inf
    else:
        cv = float(np.sort(stats_s)[m - k - 1])
    return p_perm, cv


def _validate_inputs(x, grid: BallGrid, alpha: float) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.ndim != 2:
        raise InputError(f"series must be 2-d, got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise InputError("series contains non-finite entries")
    if x.shape[0] != grid.n:
        raise InputError(f"grid has {grid.n} points for n={x.shape[0]} observations")
    if x.shape[1] != grid.d:
        raise InputError(f"grid dimension {grid.d} does not match series d={x.shape[1]}")
    if not 0.0 < alpha < 1.0:
        raise InputError(f"need 0 < alpha < 1, got {alpha}")
    return x


def _perm_count_and_seed(n, M, seed, exhaustive):
    if exhaustive:
        if n > _EXHAUSTIVE_LIMIT:
            raise InputError(
                f"exhaustive calibration enumerates n! permutations; n={n} > "
                f"{_EXHAUSTIVE_LIMIT}"
            )
        return math.factorial(n), 0
    if M is None:
        return None, None
    if M < 1:
        raise InputError(f"need a positive permutation count, got {M}")
    return M, fresh_seed() if seed is None else seed


def _meta(score: str, n: int, d: int, p0: int, p1: int, M=None, seed=None) -> dict:
    return {"score": score, "n": n, "d": d, "p0": p0, "p1": p1, "M": M, "seed": seed}


def _outcome(
    s, m_vec, L, a, k_inv, df, alpha, meta, M=None, seed=None, exhaustive=False
) -> TestOutcome:
    """Evaluate h' K^{-1} h, h = A v, and calibrate it.

    The observed statistic is the identity permutation's value; with ``M``
    (or ``exhaustive``) the same kernel evaluates the permuted assignments
    and the test is calibrated on them, otherwise on the chi-square(df)
    limit.  A non-finite statistic raises :class:`NumericalError`.
    """
    def forms(perms):
        h = _lag_stacks(s, m_vec, L, perms) @ a.T
        return np.einsum("mi,ij,mj->m", h, k_inv, h)

    n = s.shape[0]
    statistic = float(forms(np.arange(n)[None, :])[0])
    if not np.isfinite(statistic):
        raise NumericalError(f"non-finite statistic {statistic}")
    p_asym = float(chisq_sf(statistic, df))
    if M is None:
        p_perm, cv = None, float(chisq_quantile(df, 1.0 - alpha))
    else:
        stats = np.concatenate(
            [forms(perms) for perms in _iter_perm_chunks(n, M, seed, exhaustive)]
        )
        p_perm, cv = _permutation_calibration(stats, statistic, alpha)
    return TestOutcome(
        statistic=statistic,
        df=df,
        p_asymptotic=p_asym,
        p_permutational=p_perm,
        critical_value=cv,
        reject=statistic > cv,
        meta=meta,
    )


def _delta_at(model: VarModel, x: np.ndarray, table: np.ndarray, grid: BallGrid, m_vec):
    """Scores, operator matrices and central sequence Delta at one parameter value.

    Recomputes residuals, the coupling, and the operator matrices; ``table``
    holds the gridpoint scores.  Delta is the map whose local slope in theta
    is -Upsilon.
    """
    n, d = x.shape
    coupling = solve_coupling(residuals(x, model), grid)
    ops = build_operator_matrices(model, n)
    s = table[coupling.assignment]
    L = ops.effective_lags
    v = _lag_stacks(s, m_vec, L, np.arange(n)[None, :])[0]
    return s, ops, ops.T[:, : L * d * d] @ v


def _scores_and_centering(spec: ScoreSpec, grid: BallGrid):
    """Gridpoint score table and vec of the null mean: computed once per test."""
    table = grid_scores(spec, 1, grid)
    return table, _table_centering(table, grid).reshape(-1, order="F")


def test_specified(
    x,
    theta0: VarModel,
    spec: ScoreSpec,
    grid: BallGrid,
    alpha: float = 0.05,
    M: int | None = None,
    seed: int | None = None,
    exhaustive: bool = False,
) -> TestOutcome:
    """Rank test of the simple null theta = theta0 within a VAR(p1) frame.

    The statistic is S = H' (Q'(I (x) C) Q)^{-1} H with
    H = sum_i (n-i)^{1/2} Q_i' vec(Gamma_i - m); under the null it is
    asymptotically chi-square with d^2 p1 degrees of freedom.  With M given
    (or ``exhaustive``), the test is calibrated by permuting the grid
    assignment, which is exact at any n.
    """
    x = _validate_inputs(x, grid, alpha)
    n, d = x.shape
    if theta0.d != d:
        raise InputError(f"theta0 has d={theta0.d}, series has d={d}")
    M_eff, seed = _perm_count_and_seed(n, M, seed, exhaustive)

    table, m_vec = _scores_and_centering(spec, grid)
    s, ops, _ = _delta_at(theta0, x, table, grid, m_vec)
    L = ops.effective_lags
    a = ops.Q[: L * d * d].T
    k_inv = _solve_spd(_block_gram(a, score_covariance(spec, d)), "Q'(I x C)Q")
    meta = _meta(spec.kind, n, d, theta0.p0, theta0.p1, M_eff, seed)
    return _outcome(
        s, m_vec, L, a, k_inv, d * d * theta0.p1, alpha, meta, M_eff, seed, exhaustive
    )


def estimate_upsilon(x, theta_hat: VarModel, spec: ScoreSpec, grid: BallGrid) -> np.ndarray:
    """Finite-difference estimate of the d^2 p1 x d^2 p0 cross-information.

    Column i is -(Delta(theta_hat + h e_i) - Delta(theta_hat)) / (h n^{1/2})
    with step h = n^{-1/2}, i.e. the local-perturbation slope of the
    central sequence in the direction of the i-th coordinate of the free
    parameter blocks; every one of the p0 d^2 columns is filled.  If a
    perturbed model leaves the stationarity region the step is halved, up
    to ten times.
    """
    x = np.asarray(x, dtype=float)
    if theta_hat.p0 < 1:
        raise InputError("Upsilon estimation needs p0 >= 1")
    table, m_vec = _scores_and_centering(spec, grid)
    base_delta = _delta_at(theta_hat, x, table, grid, m_vec)[2]
    return _upsilon(x, theta_hat, table, grid, m_vec, base_delta)


def _upsilon(x, theta_hat: VarModel, table, grid, m_vec, base_delta):
    """The finite-difference loop of :func:`estimate_upsilon` on validated inputs.

    ``table`` and ``m_vec`` are the caller's gridpoint scores and null mean,
    ``base_delta`` is Delta(theta_hat).
    """
    n = x.shape[0]
    d, p0, p1 = theta_hat.d, theta_hat.p0, theta_hat.p1
    ups = np.empty((p1 * d * d, p0 * d * d))
    for col in range(p0 * d * d):
        h = n ** -0.5
        for _ in range(11):
            theta_p = theta_hat.theta.copy()
            theta_p[col] += h
            model_p = VarModel(d=d, p0=p0, p1=p1, theta=theta_p)
            if model_p.is_stationary():
                break
            h /= 2.0
        else:
            raise NumericalError(
                f"perturbation of coordinate {col + 1} cannot stay stationary"
            )
        delta_p = _delta_at(model_p, x, table, grid, m_vec)[2]
        ups[:, col] = -(delta_p - base_delta) / (h * math.sqrt(n))
    return ups


def test_order(
    x,
    p0: int,
    p1: int,
    spec: ScoreSpec,
    grid: BallGrid,
    alpha: float = 0.05,
    M: int | None = None,
    seed: int | None = None,
    exhaustive: bool = False,
) -> TestOutcome:
    """Rank test of VAR order p0 against order p1 > p0.

    For p0 = 0 this is the white-noise test and coincides with
    ``test_specified`` at theta0 = 0.  For p0 >= 1 the constrained
    least-squares fit replaces theta0, the central sequence is split into
    its first d^2 p0 and last d^2 (p1 - p0) coordinates, the estimated
    cross-information Upsilon projects out the estimation effect, and the
    statistic W is the quadratic form of the residual part; asymptotically
    chi-square with d^2 (p1 - p0) degrees of freedom.  Permutations reuse
    the fit and Upsilon, permuting only the grid assignment.
    """
    x = _validate_inputs(x, grid, alpha)
    n, d = x.shape
    if not 0 <= p0 < p1:
        raise InputError(f"need 0 <= p0 < p1, got p0={p0}, p1={p1}")

    if p0 == 0:
        null = VarModel(d=d, p0=0, p1=p1, theta=np.zeros(p1 * d * d))
        return test_specified(
            x, null, spec, grid, alpha=alpha, M=M, seed=seed, exhaustive=exhaustive
        )

    M_eff, seed = _perm_count_and_seed(n, M, seed, exhaustive)
    theta_hat = fit_constrained_ls(x, p0, p1)
    table, m_vec = _scores_and_centering(spec, grid)
    s, ops, delta = _delta_at(theta_hat, x, table, grid, m_vec)
    L = ops.effective_lags
    d2 = d * d
    k = d2 * p0

    ups = _upsilon(x, theta_hat, table, grid, m_vec, delta)
    # Upsilon_11 is only symmetric in the limit; invert it as-is, with the
    # trace ridge, solving from the right for B = Upsilon_21 Upsilon_11^{-1}.
    u11 = ups[:k] + 1e-10 * abs(np.trace(ups[:k])) * np.eye(k)
    try:
        bmat = np.linalg.solve(u11.T, ups[k:].T).T
    except np.linalg.LinAlgError as exc:
        raise NumericalError("singular Upsilon_11") from exc
    if not np.all(np.isfinite(bmat)) or np.linalg.cond(u11) > 1e12:
        raise NumericalError("ill-conditioned Upsilon_11")

    # W is the form in Delta_II - B Delta_I = [-B, I] T v, whose covariance
    # Lambda*_II = [-B, I] Lambda [-B, I]' is the block Gram of that map.
    t = ops.T[:, : L * d2]
    a = t[k:] - bmat @ t[:k]
    k_inv = _solve_spd(
        _block_gram(a, score_covariance(spec, d)), "Lambda*_II", ridge=True
    )
    meta = _meta(spec.kind, n, d, p0, p1, M_eff, seed)
    return _outcome(
        s, m_vec, L, a, k_inv, d2 * (p1 - p0), alpha, meta, M_eff, seed, exhaustive
    )
