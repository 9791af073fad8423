"""Optimal coupling of residuals to gridpoints.

The empirical center-outward distribution function F is the minimizer of
sum_t ||Z_t - F(Z_t)||^2 over all bijections from the sample onto the grid.
Ranks and signs are read off the assigned gridpoints: the rank is the radius
index of the gridpoint (0 at the origin) and the sign its unit direction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

from ._errors import InputError, NumericalError
from .grid import BallGrid

__all__ = ["Coupling", "solve_coupling", "coupling_cost", "permute_coupling"]


class TransportError(InputError):
    """Invalid coupling request (dimension or size mismatch, bad input)."""


@dataclass(frozen=True)
class Coupling:
    """An assignment of n observations to the n gridpoints.

    Attributes
    ----------
    assignment : (n,) int array
        sigma(t): index of the gridpoint assigned to observation t.
    f_values : (n, d) array
        F(Z_t) = grid.points[sigma(t)].
    ranks : (n,) int array
        Center-outward ranks in {0, ..., n_R} (0 on origin copies).
    signs : (n, d) array
        Center-outward signs (zero vector on origin copies).
    grid : BallGrid
    """

    assignment: np.ndarray
    f_values: np.ndarray
    ranks: np.ndarray
    signs: np.ndarray
    grid: BallGrid

    @property
    def n(self) -> int:
        return self.assignment.shape[0]


def _canonicalize_ties(assignment: np.ndarray, grid: BallGrid) -> np.ndarray:
    """Make the assignment deterministic across duplicate gridpoints.

    Gridpoints with identical coordinates (the n_0 origin copies, and any
    exact duplicates, compared bytewise) are interchangeable without changing
    the cost; within each duplicate group the earliest observation gets the
    lowest gridpoint index.
    """
    pts = np.ascontiguousarray(grid.points)
    keys = pts.view(np.dtype((np.void, pts.itemsize * pts.shape[1]))).ravel()
    _, group, counts = np.unique(keys, return_inverse=True, return_counts=True)
    tied = counts[group] > 1
    if not tied.any():
        return assignment
    # Sorted by group, stably: tied observations in time order, tied gridpoints
    # in index order; a bijection gives each group as many of one as the other.
    times = np.flatnonzero(tied[assignment])
    members = np.flatnonzero(tied)
    out = assignment.copy()
    out[times[np.argsort(group[assignment[times]], kind="stable")]] = members[
        np.argsort(group[members], kind="stable")
    ]
    return out


def _from_assignment(assignment: np.ndarray, grid: BallGrid) -> Coupling:
    return Coupling(
        assignment=assignment,
        f_values=grid.points[assignment],
        ranks=grid.point_ranks[assignment],
        signs=grid.point_signs[assignment],
        grid=grid,
    )


def solve_coupling(residuals: np.ndarray, grid: BallGrid) -> Coupling:
    """Optimal L2 coupling of residuals onto the grid.

    Solves the linear sum assignment problem on the n x n matrix of squared
    Euclidean distances with an exact solver, then derives ranks and signs
    from the assigned gridpoints.

    Parameters
    ----------
    residuals : (n, d) array
        Must match the grid's n and d; all entries finite.
    grid : BallGrid

    Raises
    ------
    NumericalError
        If the squared distances overflow to infinity (residuals near the
        square root of the largest float).
    """
    z = np.asarray(residuals, dtype=float)
    if z.ndim != 2:
        raise TransportError(f"residuals must be 2-d, got shape {z.shape}")
    n, d = z.shape
    if n != grid.n:
        raise TransportError(f"{n} residuals vs grid of size {grid.n}")
    if d != grid.d:
        raise TransportError(f"residual dimension {d} vs grid dimension {grid.d}")
    if not np.isfinite(z).all():
        raise TransportError("non-finite residual entries")
    g = grid.points
    # ||z - g||^2 expanded; the -2 z g' term is the only O(n^2 d) product.
    with np.errstate(over="ignore", invalid="ignore"):
        cost = (z * z).sum(1)[:, None] + (g * g).sum(1)[None, :] - 2.0 * (z @ g.T)
    if not np.isfinite(cost).all():
        raise NumericalError("squared-distance cost overflows; rescale the residuals")
    rows, cols = linear_sum_assignment(cost)
    assignment = np.empty(n, dtype=int)
    assignment[rows] = cols
    assignment = _canonicalize_ties(assignment, grid)
    return _from_assignment(assignment, grid)


def coupling_cost(c: Coupling, residuals: np.ndarray) -> float:
    """Total squared transport cost sum_t ||Z_t - F(Z_t)||^2."""
    z = np.asarray(residuals, dtype=float)
    if z.shape != c.f_values.shape:
        raise TransportError(f"residual shape {z.shape} vs coupling {c.f_values.shape}")
    diff = z - c.f_values
    return float((diff * diff).sum())


def permute_coupling(c: Coupling, perm: np.ndarray) -> Coupling:
    """Coupling with F-values permuted in time: new F(Z_t) = old F(Z_perm(t)).

    Under the null the n-tuple of F-values is uniform over the n!/n_0!
    distinguishable permutations of the gridpoints, so permuting a coupling
    samples the exact conditional null distribution of any rank statistic.
    """
    p = np.asarray(perm, dtype=int)
    if p.shape != (c.n,) or not np.array_equal(np.sort(p), np.arange(c.n)):
        raise TransportError("perm is not a bijection of 0..n-1")
    return _from_assignment(c.assignment[p], c.grid)
