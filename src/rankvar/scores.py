"""Score functions on the unit ball and their covariance structure.

All three scores are spherical: J(u) = J(||u||) * u/||u||, with J the radial
function (sign: 1, spearman: r, van der Waerden: sqrt of the chi-square(d)
quantile), and J(0) = 0.  Under the spherical uniform U_d (uniform direction
times uniform radius) each score is centered and its d^2 x d^2 covariance
matrix C is (sigma1^2 sigma2^2 / d^2) I with sigma^2 the radial second
moment.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import chdtrc, gammaincinv

from ._errors import InputError
from .grid import BallGrid

__all__ = [
    "ScoreSpec",
    "grid_scores",
    "score_covariance",
    "centering",
    "chisq_sf",
    "chisq_quantile",
]

_KINDS = ("sign", "spearman", "vdw")

# Radial second moments: integral of J(r)^2 dr on (0,1).
# sign: 1; spearman: 1/3; vdw: E[chi2_d] = d (as a function of d).


class ScoreError(InputError):
    """Invalid score evaluation request."""


@dataclass(frozen=True)
class ScoreSpec:
    """One of the three standard spherical scores.

    The same radial function is used in both slots J1 and J2, matching the
    statistics the tests implement.
    """

    kind: str

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ScoreError(f"unknown score kind {self.kind!r}; use one of {_KINDS}")

    def radial_second_moment(self, d: int) -> float:
        if self.kind == "sign":
            return 1.0
        if self.kind == "spearman":
            return 1.0 / 3.0
        return float(d)


def chisq_sf(x, df: float):
    """Chi-square(df) survival function, the upper tail (``scipy.special.chdtrc``)."""
    q = chdtrc(df, np.maximum(x, 0.0))
    return float(q) if np.ndim(x) == 0 else q


def chisq_quantile(df: float, p):
    """Inverse chi-square(df) CDF, 2 ``scipy.special.gammaincinv``(df/2, p).

    This is ``scipy.stats.chi2.ppf``.  Inverting the lower tail directly
    keeps full relative accuracy for small p, which ``chdtri(df, 1 - p)``
    loses to the rounding of 1 - p.
    """
    pp = np.asarray(p, dtype=float)
    if np.any((pp <= 0.0) | (pp >= 1.0)):
        raise ScoreError("probability must lie strictly in (0, 1)")
    x = 2.0 * gammaincinv(df / 2.0, pp)
    return float(x) if pp.ndim == 0 else x


def _radial(kind: str, r: np.ndarray, d: int) -> np.ndarray:
    if kind == "sign":
        return np.where(r > 0, 1.0, 0.0)
    if kind == "spearman":
        return np.asarray(r, dtype=float)
    out = np.zeros_like(np.asarray(r, dtype=float))
    pos = r > 0
    if np.any(pos):
        out[pos] = np.sqrt(chisq_quantile(d, np.asarray(r, dtype=float)[pos]))
    return out


def grid_scores(spec: ScoreSpec, which: int, grid: BallGrid) -> np.ndarray:
    """Scores of every gridpoint, as an (n, d) array.

    Radial values are computed once per distinct radius.
    """
    if which not in (1, 2):
        raise ScoreError(f"which must be 1 or 2, got {which}")
    if spec.kind == "spearman":
        return grid.points.copy()
    if spec.kind == "sign":
        return grid.point_signs.copy()
    n_R = grid.n_R
    radial_by_rank = np.zeros(n_R + 1)
    radial_by_rank[1:] = _radial(spec.kind, np.arange(1, n_R + 1) / (n_R + 1.0), grid.d)
    return radial_by_rank[grid.point_ranks][:, None] * grid.point_signs


def score_covariance(spec: ScoreSpec, d: int) -> np.ndarray:
    """Closed-form covariance C of vec(J1(u_t) J2(u_s)') under U_d.

    The spherical factorization gives C = (sigma1^2 sigma2^2 / d^2) I_{d^2}:
    identity for vdw, (1/d^2) I for sign, (1/(9 d^2)) I for spearman.
    """
    s2 = spec.radial_second_moment(d)
    return (s2 * s2 / d**2) * np.eye(d * d)


def centering(spec: ScoreSpec, grid: BallGrid) -> np.ndarray:
    """Exact null mean m_a of every lag-i rank cross-covariance.

    Under the null the F-values are a uniform random permutation of the
    gridpoints, so for t != s the expectation of J1(F_t) J2(F_s)' is the
    average of J1(g_k) J2(g_l)' over ordered pairs of distinct gridpoints:

        [(sum_k J1(g_k)) (sum_l J2(g_l))' - sum_k J1(g_k) J2(g_k)'] / (n(n-1)),

    the origin copies dropping out since J(0) = 0.  On an origin-symmetric
    grid the product term vanishes because the scores are odd, but the
    diagonal correction never does; the matrix is O(1/n), not zero.
    """
    return _table_centering(grid_scores(spec, 1, grid), grid)


def _table_centering(table: np.ndarray, grid: BallGrid) -> np.ndarray:
    """:func:`centering` from the gridpoint score table ``grid_scores(spec, 1, grid)``."""
    n = grid.n
    j = table[: n - grid.factorization.n_0]  # J1 = J2 for every ScoreSpec
    total = np.outer(j.sum(0), j.sum(0)) - j.T @ j
    return total / (n * (n - 1.0))
