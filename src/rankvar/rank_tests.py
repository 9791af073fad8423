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

The permutations depend only on (n, M, seed), not on the data.  A
permutational test draws all M as one (M, n) array on one worker thread
(:func:`_permutations`) while it fits and couples, and :func:`_outcome`
evaluates the array in blocks of ``_PERM_CHUNK`` rows.  Its M n entries
take the narrowest unsigned type, 2 M n bytes for 256 < n <= 65536: 1.9 MB
at M = 999, n = 1000, and 8 MB at M = 5000, n = 800.
Beside it the permuted scores are gathered ``_GATHER`` = 128 rows at a
time, whatever M is: 2 MB at n = 1000, d = 2, and 2.5 MB at n = 800,
d = 3.  Inside a series scope (:func:`var_algebra._series_scope`, which
an identification opens when none is open) the array is drawn once per
(n, M, seed) and kept until the scope closes, so the steps of an
identification share one draw.  The worker lives for one test call and
is joined before the test returns or raises.

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

import math
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
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
    _series,
    _shared,
    build_operator_matrices,
    fit_constrained_ls,
    residuals,
)

__all__ = ["TestOutcome", "test_specified", "test_order"]

# Permuted statistics are evaluated in blocks of this many rows: the block's
# stacked cross-covariances v, (rows, L d^2), are held at once, and the
# quadratic form runs over these rows, which fixes its last bits.
_PERM_CHUNK = 1024
# The (rows, n, d) score gather behind v is taken this many rows at a time,
# 2 MB at n = 1000, d = 2, whatever M is.
_GATHER = 128


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
    st = sp.transpose(0, 2, 1)
    g = np.empty((B, L, d, d))
    for i in range(1, L + 1):
        # S_{t-i}' S_t is Gamma_i', whose row-major layout is vec(Gamma_i).
        np.matmul(st[:, :, : n - i], sp[:, i:], out=g[:, i - 1])
    out = g.reshape(B, L, d * d)
    k = (n - np.arange(1, L + 1)).astype(float)[:, None]
    out /= k
    out -= m_vec
    out *= np.sqrt(k)
    return out.reshape(B, L * d * d)


def _block_gram(a: np.ndarray, cov: np.ndarray) -> np.ndarray:
    """A (I kron cov) A' = sum_i A_i cov A_i' over the d^2-column blocks A_i of A."""
    r = a.shape[0]
    return (a.reshape(r, -1, cov.shape[0]) @ cov).reshape(r, -1) @ a.T


def _draw_permutations(n: int, M: int, seed: int) -> np.ndarray:
    """M random permutations of range(n) from the seeded stream, as an
    (M, n) array of the narrowest unsigned type, shuffled row by row in
    place: Fisher-Yates draws the same indices whatever the item size."""
    perms = np.tile(np.arange(n, dtype=np.min_scalar_type(n - 1)), (M, 1))
    stream(seed, 11).permuted(perms, axis=1, out=perms)
    return perms


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
    x = _series(x)
    if x.shape[0] != grid.n:
        raise InputError(f"grid has {grid.n} points for n={x.shape[0]} observations")
    if x.shape[1] != grid.d:
        raise InputError(f"grid dimension {grid.d} does not match series d={x.shape[1]}")
    if not 0.0 < alpha < 1.0:
        raise InputError(f"need 0 < alpha < 1, got {alpha}")
    return x


@contextmanager
def _permutations(n, M, seed):
    """The seed and the permutations of a rank test.

    Yields (seed, future), with a fresh seed when ``seed`` is None, or
    (None, None) for asymptotic calibration (M None).  The future holds
    the array of :func:`_draw_permutations`, drawn on one worker thread
    from the moment the test enters this context.  Inside a series scope
    an earlier test's future with the same (n, M, seed) is returned
    instead (:func:`_shared`), and no worker starts.  The worker is joined
    when the context exits, on return or raise.
    """
    if M is None:
        yield None, None
        return
    if M < 1:
        raise InputError(f"need a positive permutation count, got {M}")
    if seed is None:
        seed = fresh_seed()
    with ThreadPoolExecutor(1) as pool:
        yield seed, _shared(
            ("permutations", n, M, seed), lambda: pool.submit(_draw_permutations, n, M, seed)
        )


def _meta(score: str, n: int, d: int, p0: int, p1: int, M=None, seed=None) -> dict:
    return {"score": score, "n": n, "d": d, "p0": p0, "p1": p1, "M": M, "seed": seed}


def _outcome(s, m_vec, a, k_inv, df, alpha, meta, perms=None) -> TestOutcome:
    """Evaluate h' K^{-1} h, h = A v, and calibrate it.

    The lag horizon is the width of A in d^2 blocks.  The observed
    statistic is the identity permutation's value; with ``perms``, a
    future of an (M, n) permutation array (see :func:`_permutations`), the
    same kernel evaluates the permuted assignments, ``_PERM_CHUNK`` rows at
    a time from gathers of ``_GATHER`` rows, and the test is calibrated on
    them, otherwise on the chi-square(df) limit.  A non-finite statistic
    raises :class:`NumericalError`.
    """
    n, d = s.shape
    L = a.shape[1] // (d * d)

    def forms(rows):
        v = np.empty((len(rows), a.shape[1]))
        for j in range(0, len(rows), _GATHER):
            v[j : j + _GATHER] = _lag_stacks(np.take(s, rows[j : j + _GATHER], axis=0), m_vec, L)
        h = v @ a.T
        return np.einsum("mi,ij,mj->m", h, k_inv, h)

    statistic = float(forms(np.arange(n)[None, :])[0])
    if not np.isfinite(statistic):
        raise NumericalError(f"non-finite statistic {statistic}")
    p_asym = float(chisq_sf(statistic, df))
    if perms is None:
        p_perm, cv = None, float(chisq_quantile(df, 1.0 - alpha))
    else:
        rows = perms.result()
        stats = np.concatenate(
            [forms(rows[i : i + _PERM_CHUNK]) for i in range(0, len(rows), _PERM_CHUNK)]
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


def _require_varying(z: np.ndarray, p0: int) -> None:
    """Raise :class:`InputError` when the residual rows from row p0 on are
    all equal, as a constant series gives under any model.  No test, rank
    or Gaussian, has a null distribution to calibrate on such residuals."""
    tail = z[p0:]
    if np.all(tail == tail[0]):
        raise InputError(f"residual rows {p0 + 1}..{z.shape[0]} are all equal (constant series?)")


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

    Base residuals that are all equal from row p0 on raise
    :class:`InputError` (:func:`_require_varying`): with every row tied,
    the coupling hands the gridpoints out in time order, which
    manufactures serial dependence.
    """
    n = x.shape[0]
    zs = [residuals(x, model) for model in models]
    _require_varying(zs[0], models[0].p0)
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
) -> TestOutcome:
    """Rank test of the simple null theta = theta0 within a VAR(p1) frame.

    The statistic is S = H' (Q'(I (x) C) Q)^{-1} H with
    H = sum_i (n-i)^{1/2} Q_i' vec(Gamma_i - m); under the null it is
    asymptotically chi-square with d^2 p1 degrees of freedom.  With M given,
    the test is calibrated by permuting the grid assignment, which is exact
    at any n.
    """
    x = _validate_inputs(x, grid, alpha)
    n, d = x.shape
    if theta0.d != d:
        raise InputError(f"theta0 has d={theta0.d}, series has d={d}")
    with _permutations(n, M, seed) as (seed, perms):
        table, m_vec = _scores_and_centering(spec, grid)
        s, ops, _ = _deltas([theta0], x, table, grid, m_vec)
        a = ops.Q.T
        k_inv = _solve_spd(_block_gram(a, score_covariance(spec, d)), "Q'(I x C)Q")
        meta = _meta(spec.kind, n, d, theta0.p0, theta0.p1, M, seed)
        return _outcome(s, m_vec, a, k_inv, d * d * theta0.p1, alpha, meta, perms)


def _perturbations(theta_hat: VarModel, n: int) -> tuple[tuple[VarModel, ...], np.ndarray]:
    """The p0 d^2 models theta_hat + h_i e_i, one per coordinate of the free
    parameter blocks, and their steps h_i (read-only).

    The step is h = n^{-1/2}; if a perturbed model leaves the stationarity
    region its step is halved, up to ten times.  A non-stationary
    theta_hat raises the stationarity error of the operator matrices.
    Within a series scope they are built once per (theta_hat, n).
    """
    _require_stationary(theta_hat)
    d, p0, p1 = theta_hat.d, theta_hat.p0, theta_hat.p1

    def build():
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
        steps = np.array(steps)
        steps.setflags(write=False)
        return tuple(models), steps

    return _shared(("perturbations", theta_hat.theta.tobytes(), d, p0, p1, n), build)


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

    At p0 >= 1 the residuals are those of the raw series, with zero initial
    values, so the first p0 rows carry the series' level.  A series whose
    level is large against its scale should be demeaned first (the CLI's
    ``--demean``).
    """
    x = _validate_inputs(x, grid, alpha)
    n, d = x.shape
    if not 0 <= p0 < p1:
        raise InputError(f"need 0 <= p0 < p1, got p0={p0}, p1={p1}")

    if p0 == 0:
        null = VarModel(d=d, p0=0, p1=p1, theta=np.zeros(p1 * d * d))
        return test_specified(x, null, spec, grid, alpha=alpha, M=M, seed=seed)

    with _permutations(n, M, seed) as (seed, perms):
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
        meta = _meta(spec.kind, n, d, p0, p1, M, seed)
        return _outcome(s, m_vec, a, k_inv, d2 * (p1 - p0), alpha, meta, perms)
