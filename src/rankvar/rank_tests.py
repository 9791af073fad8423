"""The rank-based test statistics: specified parameter and model order.

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
builds its A and K, from operator matrices that already stop at the lag
horizon.

The order test removes the estimation effect with a finite-difference
cross-information Upsilon, which needs the central sequence Delta at the
fitted parameter and at its p0 d^2 perturbations.  :func:`_deltas`
evaluates Delta over that whole stack of models at once: the perturbed
couplings are warm-started from the base coupling's dual potentials, the
perturbed operator matrices come from one companion recursion, and one
:func:`_lag_stacks` call forms every model's cross-covariances.  Each
model's numbers are the ones it would get alone.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from ._errors import InputError, NumericalError
from ._rng import fresh_seed, stream
from .grid import BallGrid
from .scores import (
    ScoreSpec,
    _table_centering,
    chisq_quantile,
    chisq_sf,
    grid_scores,
    score_covariance,
)
from .transport import _perturbed_couplings, solve_coupling
from .var_algebra import (
    VarModel,
    _operator_stack,
    _require_stationary,
    build_operator_matrices,
    fit_constrained_ls,
    residuals,
)

__all__ = ["TestOutcome", "test_specified", "test_order"]

# Permutation batches are processed in fixed-size chunks so that the per-time
# score arrays stay comfortably in memory at M = 5000, n = 800.
_PERM_CHUNK = 1024

_EXHAUSTIVE_LIMIT = 8


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


def _lag_stacks(sp: np.ndarray, m_vec, L: int) -> np.ndarray:
    """Stacked lagged cross-covariances for a batch of per-time arrays.

    The one kernel behind every statistic.  Both slots of the
    cross-covariance read the same per-time array (J1 = J2 for every
    ``ScoreSpec``; the Gaussian tests pass residuals).  Each row of the
    batch is computed on its own, so a row's values do not depend on the
    rest of the batch, and the lags up to a smaller horizon do not depend
    on ``L``.

    Parameters
    ----------
    sp : (B, n, d) array
        Per-time values: scores of the observed assignment under a batch
        of time permutations (the identity gives the observed stack), or of
        the assignments of a stack of models, or residuals.
    m_vec : (d*d,) array or 0.0
        vec of the null mean subtracted from every block.
    L : int
        Lag horizon.

    Returns
    -------
    (B, L*d*d) array whose block i is (n-i)^{1/2} (vec Gamma_i - m_vec),
    Gamma_i = (n-i)^{-1} sum_t s_t s_{t-i}'.
    """
    B, n, d = sp.shape
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
    s, m_vec, a, k_inv, df, alpha, meta, M=None, seed=None, exhaustive=False
) -> TestOutcome:
    """Evaluate h' K^{-1} h, h = A v, and calibrate it.

    The lag horizon is the width of A in d^2 blocks.  The observed
    statistic is the identity permutation's value; with ``M`` (or
    ``exhaustive``) the same kernel evaluates the permuted assignments and
    the test is calibrated on them, otherwise on the chi-square(df) limit.
    A non-finite statistic raises :class:`NumericalError`.
    """
    n, d = s.shape
    L = a.shape[1] // (d * d)

    def forms(perms):
        h = _lag_stacks(np.take(s, perms, axis=0), m_vec, L) @ a.T
        return np.einsum("mi,ij,mj->m", h, k_inv, h)

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


def _deltas(models: list[VarModel], x: np.ndarray, table: np.ndarray, grid: BallGrid, m_vec):
    """Scores and operator matrices at ``models[0]``, and the central
    sequence Delta at every model of the stack, as a (len(models), d^2 p1)
    array.

    ``table`` holds the gridpoint scores.  The first model is coupled and
    built by the public :func:`solve_coupling` and
    :func:`build_operator_matrices`; the others, perturbations of it that
    share its orders, are coupled warm from its coupling's potentials and
    built as one stack.  One :func:`_lag_stacks` call forms the lagged
    cross-covariances of every model at the largest lag horizon, and each
    Delta reads only its own model's horizon.  Delta is the map whose local
    slope in theta is -Upsilon.

    Base residuals that are all equal from row p0 on (a constant series
    gives that under any model) raise :class:`InputError`: with every row
    tied, the coupling hands the gridpoints out in time order, which
    manufactures serial dependence.
    """
    n = x.shape[0]
    zs = [residuals(x, model) for model in models]
    tail = zs[0][models[0].p0:]
    if np.all(tail == tail[0]):
        raise InputError(f"residual rows {models[0].p0 + 1}..{n} are all equal (constant series?)")
    base = solve_coupling(zs[0], grid)
    couplings = [base, *_perturbed_couplings(zs[1:], grid, base, zs[0])]
    ops = [build_operator_matrices(models[0], n), *_operator_stack(models[1:], n)]
    assignments = np.stack([c.assignment for c in couplings])
    v = _lag_stacks(np.take(table, assignments, axis=0), m_vec, max(o.effective_lags for o in ops))
    deltas = np.stack([o.T @ row[: o.T.shape[1]] for o, row in zip(ops, v)])
    return np.take(table, base.assignment, axis=0), ops[0], deltas


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
    s, ops, _ = _deltas([theta0], x, table, grid, m_vec)
    a = ops.Q.T
    k_inv = _solve_spd(_block_gram(a, score_covariance(spec, d)), "Q'(I x C)Q")
    meta = _meta(spec.kind, n, d, theta0.p0, theta0.p1, M_eff, seed)
    return _outcome(
        s, m_vec, a, k_inv, d * d * theta0.p1, alpha, meta, M_eff, seed, exhaustive
    )


def _perturbations(theta_hat: VarModel, n: int) -> tuple[list[VarModel], np.ndarray]:
    """The p0 d^2 models theta_hat + h_i e_i, one per coordinate of the free
    parameter blocks, and their steps h_i.

    The step is h = n^{-1/2}; if a perturbed model leaves the stationarity
    region its step is halved, up to ten times.  A non-stationary
    theta_hat raises the stationarity error of the operator matrices.
    """
    _require_stationary(theta_hat)
    d, p0, p1 = theta_hat.d, theta_hat.p0, theta_hat.p1
    models, steps = [], []
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
        models.append(model_p)
        steps.append(h)
    return models, np.array(steps)


def _upsilon(deltas: np.ndarray, steps: np.ndarray, n: int) -> np.ndarray:
    """Finite-difference estimate of the d^2 p1 x d^2 p0 cross-information.

    ``deltas`` holds Delta(theta_hat) and then Delta(theta_hat + h_i e_i)
    for the perturbations of :func:`_perturbations`.  Column i is
    -(Delta(theta_hat + h_i e_i) - Delta(theta_hat)) / (h_i n^{1/2}), the
    local-perturbation slope of the central sequence in the direction of
    the i-th coordinate of the free parameter blocks.  A column whose Delta
    does not move at all raises :class:`NumericalError` naming the
    coordinate.
    """
    moved = deltas[1:] - deltas[0]
    still = np.flatnonzero(~moved.any(axis=1))
    if still.size:
        raise NumericalError(
            f"Delta does not move with coordinate {still[0] + 1} of theta: "
            f"Upsilon column {still[0] + 1} is zero"
        )
    return -moved.T / (steps * math.sqrt(n))


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
    models, steps = _perturbations(theta_hat, n)
    s, ops, deltas = _deltas([theta_hat, *models], x, table, grid, m_vec)
    ups = _upsilon(deltas, steps, n)
    d2 = d * d
    k = d2 * p0
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
    a = ops.T[k:] - bmat @ ops.T[:k]
    k_inv = _solve_spd(
        _block_gram(a, score_covariance(spec, d)), "Lambda*_II", ridge=True
    )
    meta = _meta(spec.kind, n, d, p0, p1, M_eff, seed)
    return _outcome(
        s, m_vec, a, k_inv, d2 * (p1 - p0), alpha, meta, M_eff, seed, exhaustive
    )
