import numpy as np
import pytest

from rankvar import (
    GridFactorization,
    InputError,
    factorize,
    make_grid,
    make_sphere_grid,
)
from rankvar.grid import _reconstruct_grid


def test_factorization_validates():
    f = GridFactorization(10, 3, 3, 1)
    assert (f.n, f.n_R, f.n_S, f.n_0) == (10, 3, 3, 1)
    with pytest.raises(InputError):
        GridFactorization(10, 3, 3, 2)  # wrong product
    with pytest.raises(InputError):
        GridFactorization(12, 2, 5, 2)  # n_0 >= min(n_R, n_S)
    with pytest.raises(InputError):
        GridFactorization(6, 0, 6, 0)


@pytest.mark.parametrize(
    "n,d,expected",
    [
        (100, 2, (10, 10, 0)),
        (300, 2, (17, 17, 11)),
        (400, 2, (20, 20, 0)),
        (800, 2, (28, 28, 16)),
        (1600, 2, (40, 40, 0)),
        (1400, 3, (11, 127, 3)),
    ],
)
def test_factorize_heuristic(n, d, expected):
    f = factorize(n, d)
    assert (f.n_R, f.n_S, f.n_0) == expected
    assert f.n_R * f.n_S + f.n_0 == n


def test_factorize_override():
    f = factorize(800, 2, override=(20, 40, 0))
    assert (f.n_R, f.n_S, f.n_0) == (20, 40, 0)
    f = factorize(1400, 3, override=(21, 66, 14))
    assert (f.n_R, f.n_S, f.n_0) == (21, 66, 14)
    with pytest.raises(InputError):
        factorize(800, 2, override=(20, 40, 1))


def test_factorize_small_n_rejected():
    with pytest.raises(InputError):
        factorize(3, 2)


def test_grid_radii_and_counts():
    fact = factorize(300, 2)  # (17, 17, 11)
    g = make_grid(fact, 2)
    norms = np.linalg.norm(g.points, axis=1)
    # each radius level j/(n_R+1) carries exactly n_S points
    for j in range(1, fact.n_R + 1):
        level = np.isclose(norms, j / (fact.n_R + 1), atol=1e-12)
        assert level.sum() == fact.n_S
    assert (norms <= 1e-12).sum() == fact.n_0


def test_grid_origin_rows_last():
    fact = GridFactorization(13, 3, 4, 1)
    g = make_grid(fact, 2)
    assert np.all(g.points[-1] == 0.0)
    assert g.point_ranks[-1] == 0
    assert np.all(g.point_signs[-1] == 0.0)


def test_grid_points_factor_into_rank_and_sign():
    fact = factorize(60, 3)
    g = make_grid(fact, 3, seed=5)
    live = g.point_ranks > 0
    rebuilt = (g.point_ranks[live, None] / (fact.n_R + 1)) * g.point_signs[live]
    assert np.allclose(rebuilt, g.points[live], atol=1e-14)
    assert np.allclose(np.linalg.norm(g.point_signs[live], axis=1), 1.0, atol=1e-12)


def test_even_direction_count_is_exactly_antipodal():
    g = make_grid(factorize(100, 2), 2)
    assert g.symmetric
    pts = {tuple(p) for p in g.points}
    neg = {tuple(-p) for p in g.points}
    assert pts == neg  # bit-exact, not approximate


def test_odd_direction_count_is_asymmetric():
    g = make_grid(GridFactorization(15, 5, 3, 0), 2)
    assert not g.symmetric


def test_d3_grid_seeded_and_antipodal():
    fact = GridFactorization(40, 4, 10, 0)
    g1 = make_grid(fact, 3, seed=11)
    g2 = make_grid(fact, 3, seed=11)
    g3 = make_grid(fact, 3, seed=12)
    assert np.array_equal(g1.points, g2.points)
    assert not np.array_equal(g1.points, g3.points)
    assert g1.symmetric
    pts = {tuple(p) for p in g1.points}
    assert pts == {tuple(-p) for p in g1.points}


def test_d1_grid():
    g = make_grid(GridFactorization(6, 3, 2, 0), 1)
    vals = np.sort(g.points.ravel())
    assert np.allclose(vals, [-0.75, -0.5, -0.25, 0.25, 0.5, 0.75])


def test_sphere_grid():
    g = make_sphere_grid(10, 2)
    assert g.factorization.n_R == 1
    assert g.factorization.n_S == 10
    assert g.factorization.n_0 == 0
    assert np.allclose(np.linalg.norm(g.points, axis=1), 0.5, atol=1e-14)
    assert g.symmetric
    with pytest.raises(InputError):
        make_sphere_grid(1, 2)


@pytest.mark.parametrize(
    "n,d,sphere",
    [
        (101, 1, False),  # n_0 = 1
        (103, 2, False),  # n_0 = 3
        (1400, 3, False),  # n_0 = 3, not antipodal
        (50, 3, True),
    ],
)
def test_reconstruct_grid_round_trip(n, d, sphere):
    grid = make_sphere_grid(n, d, seed=2) if sphere else make_grid(factorize(n, d), d, seed=5)
    rebuilt = _reconstruct_grid(grid.points)
    assert np.array_equal(rebuilt.points, grid.points)
    assert rebuilt.factorization == grid.factorization
    assert np.array_equal(rebuilt.point_ranks, grid.point_ranks)
    # signs are renormalized points: equal up to rounding
    assert np.allclose(rebuilt.point_signs, grid.point_signs, rtol=0, atol=1e-15)
    assert rebuilt.symmetric == grid.symmetric
