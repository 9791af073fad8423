import dataclasses
import itertools

import numpy as np
import pytest

from rankvar import (
    GridFactorization,
    InputError,
    NumericalError,
    coupling_cost,
    factorize,
    make_grid,
    permute_coupling,
    solve_coupling,
)
from rankvar.transport import _canonicalize_ties


def brute_force_cost(residuals, grid):
    """Minimal assignment cost by enumerating all permutations."""
    n = residuals.shape[0]
    sq = ((residuals[:, None, :] - grid.points[None, :, :]) ** 2).sum(axis=2)
    best = np.inf
    for perm in itertools.permutations(range(n)):
        best = min(best, sq[np.arange(n), perm].sum())
    return best


@pytest.mark.parametrize("trial", range(30))
def test_matches_brute_force(trial):
    rng = np.random.default_rng(700 + trial)
    d = int(rng.integers(2, 4))
    n = int(rng.integers(4, 9))
    x = rng.standard_normal((n, d))
    grid = make_grid(factorize(n, d), d, seed=trial)
    c = solve_coupling(x, grid)
    assert np.isclose(coupling_cost(c, x), brute_force_cost(x, grid), atol=1e-10)


def test_cyclical_monotonicity():
    rng = np.random.default_rng(42)
    x = rng.standard_normal((20, 2))
    grid = make_grid(factorize(20, 2), 2)
    c = solve_coupling(x, grid)
    base = coupling_cost(c, x)
    # swapping any pair of assigned grid points can never lower the cost
    pts = grid.points[c.assignment]
    for i in range(20):
        for j in range(i + 1, 20):
            swapped = pts.copy()
            swapped[[i, j]] = swapped[[j, i]]
            alt = ((x - swapped) ** 2).sum()
            assert alt >= base - 1e-10


def test_univariate_coupling_is_monotone():
    rng = np.random.default_rng(9)
    x = np.sort(rng.standard_normal(12))[:, None]
    grid = make_grid(GridFactorization(12, 6, 2, 0), 1)
    c = solve_coupling(x, grid)
    f = grid.points[c.assignment].ravel()
    assert np.all(np.diff(f) > 0)


def test_tie_handling_is_deterministic():
    x = np.array([[1.0, 0.0], [1.0, 0.0], [-1.0, 0.0], [-1.0, 0.0]])
    grid = make_grid(factorize(4, 2), 2)
    a = solve_coupling(x, grid).assignment
    b = solve_coupling(x, grid).assignment
    assert np.array_equal(a, b)


def dict_canonicalize(assignment, grid):
    """Oracle: group duplicate gridpoints by their bytes in a dict, one point at a time."""
    by_coords = {}
    for idx in range(grid.n):
        by_coords.setdefault(grid.points[idx].tobytes(), []).append(idx)
    out = assignment.copy()
    for members in by_coords.values():
        if len(members) > 1:
            times = [t for t, g in enumerate(assignment) if g in members]
            out[times] = sorted(members)
    return out


@pytest.mark.parametrize("trial", range(20))
def test_tie_canonicalization_matches_dict_oracle(trial):
    rng = np.random.default_rng(900 + trial)
    d = int(rng.integers(1, 4))
    n = int(rng.integers(3, 250))
    grid = make_grid(factorize(n, d), d, seed=trial)
    if trial % 2:
        # exact duplicates away from the origin form further tie groups
        pts = grid.points.copy()
        src, dst = rng.choice(n, size=(2, 3), replace=False)
        pts[dst] = pts[src]
        grid = dataclasses.replace(grid, points=pts)
    assignment = rng.permutation(n)
    want = dict_canonicalize(assignment, grid)
    assert np.array_equal(_canonicalize_ties(assignment, grid), want)


def test_canonical_assignment_ignores_which_origin_copy():
    rng = np.random.default_rng(12)
    x = rng.standard_normal((200, 2))
    grid = make_grid(factorize(200, 2), 2, seed=4)
    n_0 = grid.factorization.n_0
    assert n_0 >= 2
    canonical = solve_coupling(x, grid).assignment
    origin = np.arange(200 - n_0, 200)
    holders = np.flatnonzero(np.isin(canonical, origin))
    for _ in range(10):
        shuffled = canonical.copy()
        shuffled[holders] = rng.permutation(canonical[holders])
        assert np.array_equal(_canonicalize_ties(shuffled, grid), canonical)


def test_overflowing_cost_is_a_numerical_error():
    x = np.random.default_rng(6).standard_normal((60, 2)) * 1e160
    grid = make_grid(factorize(60, 2), 2)
    with pytest.raises(NumericalError, match="overflows"):
        solve_coupling(x, grid)


def test_permute_coupling():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((8, 2))
    grid = make_grid(factorize(8, 2), 2)
    c = solve_coupling(x, grid)

    ident = permute_coupling(c, np.arange(8))
    assert np.array_equal(ident.assignment, c.assignment)

    p = rng.permutation(8)
    q = rng.permutation(8)
    once = permute_coupling(permute_coupling(c, p), q)
    twice = permute_coupling(c, p[q])
    assert np.array_equal(once.assignment, twice.assignment)

    # a permutation relabels which grid point each observation gets,
    # so the multiset of assigned grid rows is unchanged
    assert set(permute_coupling(c, p).assignment) == set(c.assignment)


def test_coupling_exposes_n_and_grid():
    x = np.random.default_rng(0).standard_normal((6, 2))
    grid = make_grid(factorize(6, 2), 2)
    c = solve_coupling(x, grid)
    assert c.n == 6
    assert c.grid is grid


def test_shape_mismatch_rejected():
    grid = make_grid(factorize(6, 2), 2)
    with pytest.raises(InputError):
        solve_coupling(np.zeros((5, 2)), grid)  # n mismatch
    with pytest.raises(InputError):
        solve_coupling(np.zeros((6, 3)), grid)  # d mismatch
    with pytest.raises(InputError):
        solve_coupling(np.array([[np.nan, 0.0]] * 6), grid)
