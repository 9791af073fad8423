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
to the optimal duals.  Either of two sources gives column potentials v
before the n x n cost is built, so a solve holds one n x n array; row and
column minima complete the reduced cost.  For
:func:`solve_coupling` it comes from a coarse problem that keeps every
point: the residuals and the gridpoints are each split by median splits
into n // 4 groups of four, the groups are coupled exactly under the mean
cost of their pairs, and that solve's potentials, recovered by
Bellman-Ford relaxation, reach every gridpoint by the c-transform over the
residual groups' means.  For :func:`_perturbed_couplings`, the couplings
of residuals near a base array whose coupling is known (the
finite-difference Upsilon perturbs the fitted VAR parameter by n^{-1/2}),
it is the base cost's exact column potentials, recovered once from the
base assignment and shifted so that the base pairs stay tight.  Neither
draws a random number, and there is no option: the warm start moves the
run time, not the result.
Where the optimal coupling is unique the assignment is the one the full
cost gives; where several are optimal the solver returns one of equal cost.
Tied residual rows and duplicate gridpoints (the n_0 origin copies) give
optima that differ only by relabelling within the ties, and one pass,
:func:`_canonical_form`, returns the same one of those for all of them.
Other optima, such as those of residuals on a mirror axis of the grid,
are left to the solver.

Inside a series scope (:func:`var_algebra._series_scope`) a coupling is
solved once per distinct (residuals, grid) pair and returned again for the
same pair; the Monte Carlo engine opens one such scope per simulated
series, whose tests all couple the same residuals.

The exact solver is scipy's ``linear_sum_assignment``, the very function
``scipy.optimize`` exports, loaded from its compiled module
``scipy/optimize/_lsap`` without running ``scipy.optimize``'s
``__init__``.  That import would also load linprog, shgo, ``scipy.linalg``,
``scipy.sparse`` and scipy's bundled OpenBLAS, about 23 MB of resident
memory and 0.2 s of start-up in every process, none of which the package
uses.  A scipy without that file gets the public import.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy

from ._errors import InputError
from .grid import BallGrid, _groups, _row_groups
from .var_algebra import _pow2_scaled, _shared

__all__ = ["Coupling", "solve_coupling", "coupling_cost"]


def _load_linear_sum_assignment(directory: Path):
    """scipy's ``linear_sum_assignment`` from the compiled ``_lsap`` module in
    ``directory``, scipy's ``optimize`` folder, without importing
    ``scipy.optimize``; the public import where no such file exists."""
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = directory / f"_lsap{suffix}"
        if path.is_file():
            spec = importlib.util.spec_from_file_location("scipy.optimize._lsap", path)
            saved = sys.modules.get(spec.name)
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
            # A single-phase extension module enters itself in sys.modules,
            # here without its package: put back what was there before.
            if saved is None:
                sys.modules.pop(spec.name, None)
            else:
                sys.modules[spec.name] = saved
            return module.linear_sum_assignment
    from scipy.optimize import linear_sum_assignment

    return linear_sum_assignment


linear_sum_assignment = _load_linear_sum_assignment(Path(scipy.__file__).parent / "optimize")


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


def _canonical_form(assignment: np.ndarray, z: np.ndarray, grid: BallGrid) -> np.ndarray:
    """The one assignment of the tie orbit of ``assignment`` that the package
    returns.

    Residual rows equal in every coordinate (-0.0 equal to 0.0) are
    interchangeable without changing the cost, and so are gridpoints with
    identical coordinates (the n_0 origin copies, and any exact duplicates,
    compared bytewise).  Each time is labelled by the lead, the lowest
    index, of its gridpoint's duplicate group; within each group of tied
    rows the labels go to the times in ascending order, both sorted.  Then
    each duplicate group's gridpoints go, in ascending index, to the times
    with its label, in ascending time.
    """
    lead, members = grid._point_groups
    label = lead[assignment]
    if np.unique(z[:, 0]).size < z.shape[0]:  # else no two rows tie
        group = _row_groups(z + 0.0)
        label[np.argsort(group, kind="stable")] = label[np.lexsort((label, group))]
    # A bijection gives each label as many times as its group has members.
    out = np.empty_like(assignment)
    out[np.argsort(label, kind="stable")] = members
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


def _column_potentials(cost: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    """Column potentials v of the optimal assignment row i -> column sigma[i].

    Dual feasibility with equality on sigma, u_i = c_{i,sigma(i)} - v_{sigma(i)},
    asks v_j <= v_{sigma(i)} + c_ij - c_{i,sigma(i)} for every i, j: shortest
    paths, found by dense Bellman-Ford relaxation from v = 0.  A row i whose
    source v_{sigma(i)} did not move in the last sweep offers the same bounds
    as before, which v already meets, so each sweep relaxes only the rows
    whose source moved.  The sweeps stop when nothing changes, or after m,
    the bound without negative cycles; rounding can leave a cycle that
    lowers a potential by an ulp on every sweep, and the capped potentials
    are still a good warm start.
    """
    m = cost.shape[0]
    slack = cost - cost[np.arange(m), sigma][:, None]
    v = np.zeros(m)
    moved = np.ones(m, dtype=bool)
    for _ in range(m):
        rows = np.flatnonzero(moved[sigma])
        block = slack[rows]
        block += v[sigma[rows]][:, None]
        relaxed = np.minimum(v, block.min(axis=0))
        del block  # else it lives on beside the next sweep's gather
        moved = relaxed != v
        if not moved.any():
            break
        v = relaxed
    return v


def _warm_start(z: np.ndarray, grid: BallGrid) -> np.ndarray:
    """Estimated optimal column potentials v of the n x n cost, without the cost.

    The residuals z and, separately, the gridpoints g of the grid are split
    into m = max(n // 4, 1) groups by :func:`_groups`, the gridpoints once
    per grid.  The coarse cost of a residual group R against a gridpoint
    group G is the mean cost of their pairs, the mean over G of
    |g|^2 - 2 zbar_R'g; it is solved exactly, its column potentials
    recovered and its row potentials u_R taken as row minima.  Every
    gridpoint then gets the c-transform over the residual group means,
    v_k = min_R (|g_k|^2 - 2 zbar_R'g_k - u_R).
    """
    n = z.shape[0]
    m = max(n // 4, 1)
    starts = 4 * np.arange(m)
    sizes = np.diff(starts, append=n)
    means = np.add.reduceat(z[_groups(z, m)], starts) / sizes[:, None]
    # The cost of every gridpoint, in group order, against every group mean.
    order = grid._coarse_groups
    near = _cost(means, grid.points[order])
    coarse = np.add.reduceat(near, starts, axis=1) / sizes
    _, sigma = linear_sum_assignment(coarse)
    near -= (coarse - _column_potentials(coarse, sigma)).min(axis=1)[:, None]
    v = np.empty(n)
    v[order] = near.min(axis=0)
    return v


def _cost(z: np.ndarray, g: np.ndarray) -> np.ndarray:
    """The n x n cost |g_k|^2 - 2 z_t'g_k of residuals z already brought to a
    standard scale by :func:`_pow2_scaled`."""
    cost = z @ g.T
    cost *= -2.0
    cost += (g * g).sum(1)
    return cost


def _couple(residuals: np.ndarray, grid: BallGrid, warm) -> Coupling:
    """The coupling of one residual array: validation, then, once per
    (residuals, grid) in a series scope (:func:`var_algebra._shared`), the
    column potentials ``warm(scaled residuals, grid)``, the cost reduced by
    them, the exact solve and the canonical form of its ties."""
    z = np.asarray(residuals, dtype=float)
    if z.ndim != 2:
        raise InputError(f"residuals must be 2-d, got shape {z.shape}")
    n, d = z.shape
    if n != grid.n:
        raise InputError(f"{n} residuals vs grid of size {grid.n}")
    if d != grid.d:
        raise InputError(f"residual dimension {d} vs grid dimension {grid.d}")
    if not np.isfinite(z).all():
        raise InputError("non-finite residual entries")

    def solve() -> Coupling:
        scaled = _pow2_scaled(z)
        v = warm(scaled, grid)  # before the cost: one n x n array is held
        cost = _cost(scaled, grid.points)
        # Less v, then row and column minima: the optimal assignments stay.
        cost -= v
        cost -= cost.min(axis=1, keepdims=True)
        cost -= cost.min(axis=0)
        rows, cols = linear_sum_assignment(cost)
        assignment = np.empty(n, dtype=int)
        assignment[rows] = cols
        return _from_assignment(_canonical_form(assignment, z, grid), grid)

    # A stored Coupling holds its grid, so no id is reused while a scope is open.
    return _shared(("coupling", id(grid), z.tobytes()), solve)


def solve_coupling(residuals: np.ndarray, grid: BallGrid) -> Coupling:
    """Optimal L2 coupling of residuals onto the grid.

    Solves the linear sum assignment problem on the n x n squared-distance
    cost, less its row term, with an exact solver warm-started from the dual
    potentials of a coarse problem over groups of four residuals and four
    gridpoints (see the module docstring), then derives
    ranks and signs from the assigned gridpoints.  The result does not
    depend on the scale of the residuals.

    Parameters
    ----------
    residuals : (n, d) array
        Must match the grid's n and d; all entries finite.
    grid : BallGrid
    """
    return _couple(residuals, grid, _warm_start)


def _perturbed_couplings(stack, grid: BallGrid, base: Coupling, base_residuals) -> list[Coupling]:
    """Optimal couplings of residual arrays near ``base_residuals``, whose
    coupling is ``base``.

    Each cost is reduced by the base cost's exact column potentials, each
    column k shifted by its base pair's cost change,
    -2 (z - z_base)_{sigma^-1(k)}'g_k, so that every pair of the base
    assignment stays tight.  The shift takes O(n d), before the cost is
    built.  :func:`_column_potentials` recovers the potentials from the base
    assignment once per call, and only when some array of the stack misses
    the series scope's memo.  The potentials move only the run time.
    """
    g = grid.points
    inv = np.argsort(base.assignment)  # the time assigned each gridpoint
    shift = None  # base potentials plus 2 z_base'g of each column's base pair

    def warm(z, grid):
        nonlocal shift
        if shift is None:
            zb = _pow2_scaled(np.asarray(base_residuals, dtype=float))
            shift = _column_potentials(_cost(zb, g), base.assignment) + 2.0 * (zb[inv] * g).sum(1)
        return shift - 2.0 * (z[inv] * g).sum(1)

    return [_couple(z, grid, warm) for z in stack]


def coupling_cost(c: Coupling, residuals: np.ndarray) -> float:
    """Total squared transport cost sum_t ||Z_t - F(Z_t)||^2."""
    z = np.asarray(residuals, dtype=float)
    if z.shape != c.f_values.shape:
        raise InputError(f"residual shape {z.shape} vs coupling {c.f_values.shape}")
    diff = z - c.f_values
    return float((diff * diff).sum())
