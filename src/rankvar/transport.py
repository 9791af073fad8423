"""Optimal coupling of residuals to gridpoints.

The empirical center-outward distribution function F is the minimizer of
sum_t ||Z_t - F(Z_t)||^2 over all bijections from the sample onto the grid.
Ranks and signs are read off the assigned gridpoints: the rank is the radius
index of the gridpoint (0 at the origin) and the sign its unit direction.

Expanding ||Z_t - g_k||^2 = |Z_t|^2 + |g_k|^2 - 2 Z_t'g_k, the row term
|Z_t|^2 is the same for every bijection, so the solver gets the cost
|g_k|^2 - 2 Z_t'g_k, which has the same optimum.  Without the row term the
cost scales with the residuals, and residuals whose largest entry lies
outside [1/2, 2^500] are first brought into that range by an exact power
of two, where the cross term neither overflows nor drowns in |g_k|^2 <= 1.
The coupling is therefore invariant to the scale of the residuals.

Every solve is warm-started.  Subtracting row potentials u_t and column
potentials v_k from the cost leaves the set of optimal assignments
unchanged, and the exact solver finishes much sooner when (u, v) are close
to the optimal duals.  The estimate comes from a coarse problem: a
fixed-seed subsample of n // 4 residuals against as many gridpoints is
solved exactly, its column potentials are recovered by Bellman-Ford
relaxation and interpolated to every gridpoint by inverse distance; row and
column minima complete the reduced cost.  The subsample seed is a constant
and there is no option: the warm start moves the run time, not the result.
Where the optimal coupling is unique the assignment is the one the full
cost gives; where several are optimal (tied residual rows, or residuals on
a mirror axis of the grid) the solver returns one of equal cost, and tie
canonicalization below makes the tied-row case deterministic.

Inside :func:`_shared_couplings` a coupling is solved once per distinct
(residuals, grid) pair and returned again for the same pair; the Monte
Carlo engine opens one such scope per simulated series, whose tests all
couple the same residuals.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment
from scipy.spatial import cKDTree

from ._errors import InputError
from .grid import BallGrid
from .var_algebra import _pow2_scaled

__all__ = ["Coupling", "solve_coupling", "coupling_cost"]


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

    The arrays are read-only: a coupling may be shared between tests.
    """

    assignment: np.ndarray
    f_values: np.ndarray
    ranks: np.ndarray
    signs: np.ndarray
    grid: BallGrid

    @property
    def n(self) -> int:
        return self.assignment.shape[0]


def _row_groups(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For each row, the index of the first row equal to it (bytewise) and
    the size of its group of equal rows."""
    rows = np.ascontiguousarray(rows)
    keys = rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1]))).ravel()
    _, first, group, counts = np.unique(
        keys, return_index=True, return_inverse=True, return_counts=True
    )
    return first[group], counts[group]


def _canonicalize_ties(assignment: np.ndarray, grid: BallGrid) -> np.ndarray:
    """Make the assignment deterministic across duplicate gridpoints.

    Gridpoints with identical coordinates (the n_0 origin copies, and any
    exact duplicates, compared bytewise) are interchangeable without changing
    the cost; within each duplicate group the earliest observation gets the
    lowest gridpoint index.
    """
    group, size = _row_groups(grid.points)
    tied = size > 1
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


def _sort_tied_residuals(assignment: np.ndarray, z: np.ndarray, grid: BallGrid) -> np.ndarray:
    """Make the assignment deterministic across identical residual rows.

    Residual rows equal in every coordinate (-0.0 equal to 0.0) are
    interchangeable without changing the cost; within each such group the
    gridpoints go to the times in ascending order, both sorted.  A gridpoint
    counts by the lowest index of its duplicate group, so that
    :func:`_canonicalize_ties`, applied after, completes a canonical form.
    """
    group, size = _row_groups(z + 0.0)
    times = np.flatnonzero(size > 1)
    if not times.size:
        return assignment
    points = assignment[times]
    lead, _ = _row_groups(grid.points)
    out = assignment.copy()
    out[times[np.argsort(group[times], kind="stable")]] = points[
        np.lexsort((lead[points], group[times]))
    ]
    return out


def _from_assignment(assignment: np.ndarray, grid: BallGrid) -> Coupling:
    arrays = (
        assignment,
        grid.points[assignment],
        grid.point_ranks[assignment],
        grid.point_signs[assignment],
    )
    for a in arrays:
        a.setflags(write=False)
    return Coupling(*arrays, grid=grid)


# Seed of the subsample that warm-starts every solve: a constant, because the
# subsample moves only the run time.
_COARSE_SEED = 20200

# (id(grid), residual bytes) -> Coupling within a _shared_couplings scope.  A
# stored Coupling holds its grid, so no id is reused while the scope is open.
_SHARED: ContextVar[dict | None] = ContextVar("rankvar_shared_couplings", default=None)


@contextmanager
def _shared_couplings():
    """Scope in which :func:`solve_coupling` solves each (residuals, grid) once."""
    token = _SHARED.set({})
    try:
        yield
    finally:
        _SHARED.reset(token)


def _column_potentials(cost: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    """Column potentials v of the optimal assignment row i -> column sigma[i].

    Dual feasibility with equality on sigma, u_i = c_{i,sigma(i)} - v_{sigma(i)},
    asks v_j <= v_{sigma(i)} + c_ij - c_{i,sigma(i)} for every i, j: shortest
    paths, found by dense Bellman-Ford relaxation from v = 0.  The sweeps stop
    when nothing changes, or after m, the bound without negative cycles;
    rounding can leave a cycle that lowers a potential by an ulp on every
    sweep, and the capped potentials are still a good warm start.
    """
    m = cost.shape[0]
    slack = cost - cost[np.arange(m), sigma][:, None]
    v = np.zeros(m)
    for _ in range(m):
        relaxed = np.minimum(v, (v[sigma][:, None] + slack).min(axis=0))
        if np.array_equal(relaxed, v):
            break
        v = relaxed
    return v


def _warm_start(cost: np.ndarray, g: np.ndarray) -> None:
    """Reduce the n x n cost in place by an estimate of its optimal duals.

    Solves the cost restricted to a fixed-seed subsample of m = n // 4 rows
    and m gridpoints, interpolates that solution's column potentials to every
    gridpoint by inverse distance over the min(4, m) nearest subsampled
    gridpoints, subtracts them, and then subtracts the row and column minima.
    The optimal assignments of the cost do not change.
    """
    n = cost.shape[0]
    m = max(n // 4, 1)
    rng = np.random.default_rng(_COARSE_SEED)
    rows = rng.choice(n, m, replace=False)
    cols = rng.choice(n, m, replace=False)
    coarse = cost[np.ix_(rows, cols)]
    _, sigma = linear_sum_assignment(coarse)
    v = _column_potentials(coarse, sigma)
    dist, near = cKDTree(g[cols]).query(g, k=min(4, m))
    dist, near = dist.reshape(n, -1), near.reshape(n, -1)  # 1-d when m = 1
    with np.errstate(divide="ignore"):
        w = 1.0 / dist
    hit = np.isinf(w).any(axis=1)  # on a subsampled gridpoint: take its potential
    w[hit] = np.isinf(w[hit])
    cost -= (w * v[near]).sum(1) / w.sum(1)
    cost -= cost.min(axis=1, keepdims=True)
    cost -= cost.min(axis=0)


def solve_coupling(residuals: np.ndarray, grid: BallGrid) -> Coupling:
    """Optimal L2 coupling of residuals onto the grid.

    Solves the linear sum assignment problem on the n x n squared-distance
    cost, less its row term, with an exact solver warm-started from a coarse
    subsample's dual potentials (see the module docstring), then derives
    ranks and signs from the assigned gridpoints.  The result does not
    depend on the scale of the residuals.

    Parameters
    ----------
    residuals : (n, d) array
        Must match the grid's n and d; all entries finite.
    grid : BallGrid
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
    shared = _SHARED.get()
    if shared is not None:
        key = (id(grid), z.tobytes())
        if key in shared:
            return shared[key]
    g = grid.points
    cost = _pow2_scaled(z) @ g.T
    cost *= -2.0
    cost += (g * g).sum(1)
    _warm_start(cost, g)
    rows, cols = linear_sum_assignment(cost)
    assignment = np.empty(n, dtype=int)
    assignment[rows] = cols
    assignment = _sort_tied_residuals(assignment, z, grid)
    coupling = _from_assignment(_canonicalize_ties(assignment, grid), grid)
    if shared is not None:
        shared[key] = coupling
    return coupling


def coupling_cost(c: Coupling, residuals: np.ndarray) -> float:
    """Total squared transport cost sum_t ||Z_t - F(Z_t)||^2."""
    z = np.asarray(residuals, dtype=float)
    if z.shape != c.f_values.shape:
        raise TransportError(f"residual shape {z.shape} vs coupling {c.f_values.shape}")
    diff = z - c.f_values
    return float((diff * diff).sum())
