import dataclasses
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

from rankvar import (
    GridFactorization,
    InputError,
    VarModel,
    coupling_cost,
    factorize,
    innovation_preset,
    make_grid,
    sample_innovations,
    simulate_var,
    solve_coupling,
)
from rankvar.transport import (
    _SHARED,
    _canonicalize_ties,
    _shared_couplings,
    _sort_tied_residuals,
)
from rankvar.var_algebra import _pow2_scaled


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


def test_coupling_at_overflow_scale_matches_unscaled():
    # squared distances at this scale overflow; the solver's cost does not
    x = np.random.default_rng(6).standard_normal((60, 2))
    grid = make_grid(factorize(60, 2), 2)
    big = solve_coupling(x * 1e160, grid)
    assert np.array_equal(big.assignment, solve_coupling(x, grid).assignment)


@pytest.mark.parametrize("scale", [1e-12, 1e-6, 1e6, 1e12, 1e15, 1e100, 1e300])
def test_coupling_is_scale_invariant(scale):
    x = np.random.default_rng(0).standard_normal((200, 2))
    grid = make_grid(factorize(200, 2), 2, seed=0)
    scaled = solve_coupling(scale * x, grid)
    assert np.array_equal(scaled.assignment, solve_coupling(x, grid).assignment)


def test_coupling_arrays_are_read_only():
    x = np.random.default_rng(2).standard_normal((12, 2))
    grid = make_grid(factorize(12, 2), 2)
    c = solve_coupling(x, grid)
    for a in (c.assignment, c.f_values, c.ranks, c.signs):
        assert not a.flags.writeable
    with pytest.raises(ValueError):
        c.assignment[0] = 1


def test_shared_scope_returns_the_stored_coupling():
    x = np.random.default_rng(5).standard_normal((30, 2))
    grid = make_grid(factorize(30, 2), 2)
    twin = make_grid(factorize(30, 2), 2)
    assert solve_coupling(x, grid) is not solve_coupling(x, grid)
    with _shared_couplings():
        c = solve_coupling(x, grid)
        assert solve_coupling(x.copy(), grid) is c
        assert solve_coupling(x, twin) is not c  # keyed on the grid object
        assert solve_coupling(x + 1e-9, grid) is not c
        with pytest.raises(InputError):  # same key bytes, still validated
            solve_coupling(x.reshape(1, 60), grid)
    assert _SHARED.get() is None
    with pytest.raises(RuntimeError), _shared_couplings():
        raise RuntimeError
    assert _SHARED.get() is None


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


def cold_cost(residuals, grid):
    """The full n x n cost the solver minimizes, with no warm start."""
    z = _pow2_scaled(np.asarray(residuals, dtype=float))
    g = grid.points
    return (g * g).sum(1)[None, :] - 2.0 * (z @ g.T)


def canonical(assignment, residuals, grid):
    """The assignment with tied residual rows, then duplicate gridpoints, settled."""
    return _canonicalize_ties(_sort_tied_residuals(assignment, residuals, grid), grid)


def cold_assignment(residuals, grid):
    """Oracle: the canonicalized assignment of a cold solve of the full cost."""
    rows, cols = linear_sum_assignment(cold_cost(residuals, grid))
    a = np.empty(grid.n, dtype=int)
    a[rows] = cols
    return canonical(a, residuals, grid)


def with_duplicate_points(grid, rng, k=3):
    """The grid with k gridpoints overwritten by copies of k others."""
    pts = grid.points.copy()
    src, dst = rng.choice(grid.n, size=(2, min(k, grid.n // 2)), replace=False)
    pts[dst] = pts[src]
    return dataclasses.replace(grid, points=pts)


def assert_equal_cost(residuals, grid, assignment):
    """The assignment is optimal: its cost equals the cold solve's, within
    2e-14 of the largest cost entry."""
    cost = cold_cost(residuals, grid)
    t = np.arange(grid.n)
    gap = cost[t, assignment].sum() - cost[t, cold_assignment(residuals, grid)].sum()
    assert abs(gap) <= 2e-14 * np.abs(cost).max()


@settings(max_examples=150)
@given(
    d=st.integers(1, 3),
    n=st.integers(4, 600),
    preset=st.sampled_from(["normal", "t3", "mixture", "skewt3"]),
    log_scale=st.floats(-12, 300),
    duplicates=st.booleans(),
    seed=st.integers(0, 2**31),
)
def test_warm_start_matches_cold_oracle(d, n, preset, log_scale, duplicates, seed):
    if d == 1 and preset in ("mixture", "skewt3"):
        preset = "normal"  # both are defined for d = 2 and 3 only
    rng = np.random.default_rng(seed)
    z = sample_innovations(innovation_preset(preset, d), n, d, seed) * 10.0**log_scale
    grid = make_grid(factorize(n, d), d, seed=seed % 97)
    if duplicates:
        grid = with_duplicate_points(grid, rng)
    assert np.array_equal(solve_coupling(z, grid).assignment, cold_assignment(z, grid))


@pytest.mark.parametrize(
    "n, d, preset, seed", [(1000, 2, "skewt3", 3), (1000, 3, "mixture", 8), (1600, 2, "t3", 11)]
)
def test_warm_start_matches_cold_oracle_large(n, d, preset, seed):
    z = sample_innovations(innovation_preset(preset, d), n, d, seed)
    grid = make_grid(factorize(n, d), d, seed=seed)
    assert np.array_equal(solve_coupling(z, grid).assignment, cold_assignment(z, grid))


@pytest.mark.parametrize("n", [4, 5])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_warm_start_from_a_single_coarse_point(n, d):
    # m = n // 4 = 1: one coarse gridpoint, one potential, k = 1 neighbour
    for trial in range(10):
        z = np.random.default_rng(trial).standard_normal((n, d))
        grid = make_grid(factorize(n, d), d, seed=trial)
        c = solve_coupling(z, grid)
        assert np.array_equal(c.assignment, cold_assignment(z, grid))
        assert np.isclose(coupling_cost(c, z), brute_force_cost(z, grid), atol=1e-10)


@pytest.mark.parametrize("trial", range(12))
def test_warm_start_on_rounded_data_is_optimal(trial):
    # duplicated rows and coordinates rounded to zero: many optimal couplings
    rng = np.random.default_rng(50 + trial)
    d = 1 + trial % 3
    n = int(rng.integers(20, 300))
    z = np.round(rng.standard_normal((n, d)) * (1 + trial % 4), trial % 2)
    grid = make_grid(factorize(n, d), d, seed=trial)
    c = solve_coupling(z, grid)
    assert np.array_equal(np.sort(c.assignment), np.arange(n))
    assert_equal_cost(z, grid, c.assignment)


def test_warm_start_on_identical_columns_terminates():
    # Bellman-Ford on this series meets a rounding cycle and must stop at its cap
    rng = np.random.default_rng(19)
    v = simulate_var(
        VarModel.from_matrices([np.array([[0.7]])]), 150, rng.standard_normal((350, 1))
    ).ravel()
    x = np.column_stack([v, v])
    grid = make_grid(factorize(150, 2), 2)
    assert_equal_cost(x, grid, solve_coupling(x, grid).assignment)


def tie_orbit_member(assignment, z, grid, rng):
    """An assignment of equal cost: gridpoints shuffled within groups of equal
    residual rows, then observations shuffled within duplicate gridpoints."""
    out = assignment.copy()
    _, rgroup = np.unique(z + 0.0, axis=0, return_inverse=True)
    for r in np.unique(rgroup):
        times = np.flatnonzero(rgroup.ravel() == r)
        out[times] = rng.permutation(out[times])
    _, ggroup = np.unique(grid.points, axis=0, return_inverse=True)
    ggroup = ggroup.ravel()[out]
    for gr in np.unique(ggroup):
        times = np.flatnonzero(ggroup == gr)
        out[times] = rng.permutation(out[times])
    return out


@pytest.mark.parametrize("d", [1, 2, 3])
def test_tied_rows_get_ascending_gridpoints(d):
    rng = np.random.default_rng(d)
    z = np.round(rng.standard_normal((90, d)))
    zeros = z[z == 0]
    assert np.signbit(zeros).any() and not np.signbit(zeros).all()
    assert len(np.unique(z, axis=0)) < 90
    grid = make_grid(GridFactorization(90, 9 if d > 1 else 45, 10 if d > 1 else 2, 0), d)
    a = solve_coupling(z, grid).assignment
    assert np.array_equal(solve_coupling(z + 0.0, grid).assignment, a)  # -0.0 is 0.0
    _, group = np.unique(z + 0.0, axis=0, return_inverse=True)
    for r in np.unique(group):
        times = np.flatnonzero(group.ravel() == r)
        assert np.all(np.diff(a[times]) > 0)


@pytest.mark.parametrize("trial", range(6))
def test_tie_canonical_form_is_the_same_on_every_tied_optimum(trial):
    # residual ties and origin copies together: every equal-cost relabelling
    # of a solved assignment canonicalizes to the solved one
    rng = np.random.default_rng(trial)
    d = 1 + trial % 3
    z = np.round(0.3 * rng.standard_normal((129, d)), 1)
    grid = make_grid(factorize(129, d), d, seed=trial)  # n_0 = 4 and 8 at d = 3, 2
    if trial % 2 or d == 1:
        grid = with_duplicate_points(grid, rng)
    a = solve_coupling(z, grid).assignment
    for _ in range(10):
        assert np.array_equal(canonical(tie_orbit_member(a, z, grid, rng), z, grid), a)
