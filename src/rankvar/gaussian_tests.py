"""Pseudo-Gaussian benchmark tests.

These are the classical cross-covariance portmanteau statistics the rank
tests are benchmarked against: the same lag-window geometry (the operator
matrices Q and T), but built on standardized residuals instead of
center-outward ranks and signs, and calibrated by the chi-square limit
only.  Two normalizations appear, following the source displays:

* the specified-parameter statistic S_N uses (Q'Q)^{-1} and therefore
  presumes unit innovation scale, so its residuals are centered and
  whitened;
* the white-noise and order statistics normalize by the empirical
  lag-1 moment matrix L, which makes them exactly invariant under any
  nonsingular linear map of the observations, so only centering is
  applied.  Whitening here would also mask the additive-outlier failure
  mode these benchmarks are documented to have.

Centering matters in both: with skewed innovations the residual mean is
not zero, and an uncentered lag-i cross moment converges to the rank-one
matrix mu mu', destroying the chi-square calibration.
"""

from __future__ import annotations

import numpy as np

from ._errors import InputError, NumericalError
from .rank_tests import TestOutcome, _block_gram, _meta, _outcome, _solve_spd
from .var_algebra import (
    VarModel,
    _pow2_normalized,
    build_operator_matrices,
    fit_constrained_ls,
    residuals,
)

__all__ = ["gaussian_test_specified", "gaussian_test_order"]


def _validate_series(x) -> np.ndarray:
    """The series as floats, brought to max |x| in [1/2, 1) by an exact power
    of two: the statistics are scale invariant, and at that scale the fourth
    moments in L and Lambda neither overflow nor underflow."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 2:
        raise InputError(f"series must be 2-d, got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise InputError("series contains non-finite entries")
    return _pow2_normalized(x)


def _center(z: np.ndarray) -> np.ndarray:
    return z - z.mean(axis=0)


def _whiten(z: np.ndarray) -> np.ndarray:
    """Center, then apply the inverse symmetric root of the covariance."""
    n = z.shape[0]
    zc = _center(z)
    sigma = zc.T @ zc / n
    w, v = np.linalg.eigh(sigma)
    if w[0] <= 1e-12 * max(w[-1], 1e-300):
        raise NumericalError("singular empirical covariance")
    return zc @ (v * w ** -0.5) @ v.T


def _lag1_moment(z: np.ndarray) -> np.ndarray:
    """L = (n-1)^{-1} sum_t vec(Z_t Z_{t-1}') vec(Z_t Z_{t-1}')'."""
    n, d = z.shape
    outer = z[1:, :, None] * z[:-1, None, :]  # [t, r, c] = Z_t[r] Z_{t-1}[c]
    vecs = outer.transpose(0, 2, 1).reshape(n - 1, d * d)
    return vecs.T @ vecs / (n - 1)


def gaussian_test_specified(x, theta0: VarModel, alpha: float = 0.05) -> TestOutcome:
    """Gaussian test of the simple null theta = theta0 within a VAR(p1).

    The alternative order p1 is ``theta0.p1``: theta0 carries its trailing
    zero blocks.

    For theta0 = 0 this is the white-noise statistic normalized by the
    empirical lag-1 moment matrix.  Otherwise residuals at theta0 are
    centered and whitened, the lagged cross-covariances stacked through
    Q, and S_N = H'(Q'Q)^{-1}H formed.  Either way the limit is
    chi-square with d^2 p1 degrees of freedom; finite fourth moments are
    needed for the size to hold, and there is no permutational variant.
    """
    x = _validate_series(x)
    n, d = x.shape
    if theta0.d != d:
        raise InputError(f"theta0 has d={theta0.d}, series has d={d}")
    if not 0.0 < alpha < 1.0:
        raise InputError(f"need 0 < alpha < 1, got {alpha}")
    if n <= theta0.p1 + 1:
        raise InputError(f"series too short for p1={theta0.p1}")
    df = d * d * theta0.p1

    if not theta0.theta.any():
        # S_N(0) = W_N(0) = v'(I_{p1} kron L)^{-1} v on the centered data.
        z = _center(x)
        L = theta0.p1
        a = np.eye(L * d * d)
        k_inv = np.kron(np.eye(L), _solve_spd(_lag1_moment(z), "L"))
    else:
        z = _whiten(residuals(x, theta0))
        ops = build_operator_matrices(theta0, n)
        L = ops.effective_lags
        a = ops.Q.T
        k_inv = _solve_spd(a @ a.T, "Q'Q")
    meta = _meta("gaussian", n, d, theta0.p0, theta0.p1)
    return _outcome(z, 0.0, L, a, k_inv, df, alpha, meta)


def gaussian_test_order(x, p0: int, p1: int, alpha: float = 0.05) -> TestOutcome:
    """Gaussian test of VAR order p0 against p1 > p0.

    For p0 = 0 the statistic coincides with the specified test at
    theta = 0.  For p0 >= 1 the constrained least-squares residuals are
    centered, the central sequence Delta_N split as in the rank test,
    and the estimation effect removed through the blocks of
    Lambda_N = T (I kron L) T'; the limit is chi-square with
    d^2 (p1 - p0) degrees of freedom.
    """
    x = _validate_series(x)
    n, d = x.shape
    if not 0 <= p0 < p1:
        raise InputError(f"need 0 <= p0 < p1, got p0={p0}, p1={p1}")
    if not 0.0 < alpha < 1.0:
        raise InputError(f"need 0 < alpha < 1, got {alpha}")

    if p0 == 0:
        null = VarModel(d=d, p0=0, p1=p1, theta=np.zeros(p1 * d * d))
        return gaussian_test_specified(x, null, alpha=alpha)

    theta_hat = fit_constrained_ls(x, p0, p1)
    z = _center(residuals(x, theta_hat))
    ops = build_operator_matrices(theta_hat, n)
    t, L = ops.T, ops.effective_lags
    k = d * d * p0
    lam = _block_gram(t, _lag1_moment(z))
    lam11_inv = _solve_spd(lam[:k, :k], "Lambda_11;N", ridge=True)
    bmat = lam[k:, :k] @ lam11_inv
    lam_star = lam[k:, k:] - bmat @ lam[:k, k:]
    k_inv = _solve_spd(lam_star, "Lambda*_II;N", ridge=True)
    a = t[k:] - bmat @ t[:k]
    meta = _meta("gaussian", n, d, p0, p1)
    return _outcome(z, 0.0, L, a, k_inv, d * d * (p1 - p0), alpha, meta)
