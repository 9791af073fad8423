import math

import numpy as np
import pytest
from scipy import stats
from scipy.special import chdtr

from rankvar import (
    GridFactorization,
    InputError,
    ScoreSpec,
    centering,
    chisq_quantile,
    chisq_sf,
    factorize,
    grid_scores,
    make_grid,
    score_covariance,
)
from rankvar._rng import stream
from rankvar.scores import _radial

SPECS = [ScoreSpec("sign"), ScoreSpec("spearman"), ScoreSpec("vdw")]


def eval_score(spec: ScoreSpec, which: int, f_value: np.ndarray, n_R: int) -> np.ndarray:
    """Oracle: score J_which at one F-value on a grid with n_R radii.

    The origin maps to the zero vector for all three scores.  For the vdW
    score the norm must sit on a grid radius j/(n_R+1) to within 1e-9.
    """
    if which not in (1, 2):
        raise InputError(f"which must be 1 or 2, got {which}")
    f = np.asarray(f_value, dtype=float)
    d = f.shape[0]
    r = float(np.linalg.norm(f))
    if r > n_R / (n_R + 1.0) + 1e-9:
        raise InputError(f"norm {r} exceeds the outermost grid radius")
    if r < 1e-12:
        return np.zeros(d)
    if spec.kind == "sign":
        return f / r
    if spec.kind == "spearman":
        return f.copy()
    j = round(r * (n_R + 1))
    if abs(r - j / (n_R + 1.0)) > 1e-9 or not 1 <= j <= n_R:
        raise InputError(f"norm {r} is not a grid radius for n_R={n_R}")
    return math.sqrt(chisq_quantile(d, j / (n_R + 1.0))) * (f / r)


def mc_score_covariance(
    spec: ScoreSpec, d: int, n_draws: int = 10**6, seed: int = 0
) -> np.ndarray:
    """Oracle: Monte Carlo estimate of C over U_d.

    Uses two independent samples for the inner and outer integrals.
    """
    rng = stream(seed, 97, d)

    def sample(m):
        g = rng.standard_normal((m, d))
        u = g / np.linalg.norm(g, axis=1, keepdims=True)
        r = rng.uniform(size=m)
        return _radial(spec.kind, r, d)[:, None] * u

    j2 = sample(n_draws)
    b = j2.T @ j2 / n_draws
    b_mean = j2.mean(0)
    j1 = sample(n_draws)
    a = j1.T @ j1 / n_draws
    a_mean = j1.mean(0)
    return np.kron(b, a) - np.kron(np.outer(b_mean, b_mean), np.outer(a_mean, a_mean))


@pytest.mark.parametrize("df", [1, 2, 3, 4, 7, 10.5])
def test_chisq_cdf_sf_match_scipy(df):
    x = np.linspace(0.01, 40.0, 200)
    assert np.allclose(chisq_sf(x, df), stats.chi2.sf(x, df), atol=1e-10)
    assert chisq_sf(0.0, df) == 1.0


def test_chisq_quantile_anchors():
    assert np.isclose(chisq_quantile(2, 0.5), 1.3862943611, atol=1e-6)
    assert np.isclose(chisq_quantile(2, 0.95), 5.9914645471, atol=1e-6)
    assert np.isclose(chisq_quantile(4, 0.95), 9.4877290368, atol=1e-6)


@pytest.mark.parametrize("df", [1, 2, 3, 6])
def test_chisq_quantile_round_trip(df):
    p = np.linspace(0.001, 0.999, 97)
    x = chisq_quantile(df, p)
    assert np.allclose(chdtr(df, x), p, atol=1e-8)
    # the lower tail keeps its relative accuracy, below the rounding of 1 - p
    tiny = np.array([1e-17, 1e-12, 1e-8])
    assert np.allclose(chdtr(df, chisq_quantile(df, tiny)), tiny, rtol=1e-10, atol=0.0)
    with pytest.raises(InputError):
        chisq_quantile(df, 0.0)
    with pytest.raises(InputError):
        chisq_quantile(df, 1.0)


def test_vdw_norm_is_chisq_quantile():
    # ||J_vdw(F)||^2 = chi2_d quantile at ||F|| for F on a grid radius
    n_R, d = 9, 3
    for j in (1, 4, 9):
        f = np.zeros(d)
        f[0] = j / (n_R + 1.0)
        jval = eval_score(ScoreSpec("vdw"), 1, f, n_R)
        assert np.isclose(jval @ jval, chisq_quantile(d, j / (n_R + 1.0)), atol=1e-10)


def test_eval_score_rejects_off_grid_radius_for_vdw():
    with pytest.raises(InputError):
        eval_score(ScoreSpec("vdw"), 1, np.array([0.37, 0.0]), 9)
    with pytest.raises(InputError):
        eval_score(ScoreSpec("vdw"), 3, np.array([0.5, 0.0]), 9)


@pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.kind)
def test_grid_scores_match_rowwise_eval(spec):
    grid = make_grid(factorize(60, 2), 2)
    table = grid_scores(spec, 1, grid)
    for t in range(grid.n):
        assert np.allclose(table[t], eval_score(spec, 1, grid.points[t], grid.n_R), atol=1e-12)


@pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.kind)
def test_scores_are_odd(spec):
    f = np.array([0.3, -0.4])  # norm 0.5 = 5/10, a radius of the n_R=9 grid
    assert np.allclose(
        eval_score(spec, 1, -f, 9), -eval_score(spec, 1, f, 9), atol=1e-14
    )
    assert np.allclose(eval_score(spec, 1, np.zeros(2), 9), 0.0)


def test_radial_second_moments():
    assert ScoreSpec("sign").radial_second_moment(3) == 1.0
    assert np.isclose(ScoreSpec("spearman").radial_second_moment(2), 1.0 / 3.0)
    assert ScoreSpec("vdw").radial_second_moment(4) == 4.0


@pytest.mark.parametrize("d", [2, 3])
def test_score_covariance_closed_forms(d):
    eye = np.eye(d * d)
    assert np.allclose(score_covariance(ScoreSpec("vdw"), d), eye)
    assert np.allclose(score_covariance(ScoreSpec("sign"), d), eye / d**2)
    assert np.allclose(score_covariance(ScoreSpec("spearman"), d), eye / (9 * d**2))


def test_mc_covariance_agrees_with_closed_form():
    for spec in SPECS:
        c_mc = mc_score_covariance(spec, 2, n_draws=200_000, seed=4)
        assert np.allclose(c_mc, score_covariance(spec, 2), atol=0.02)


def test_centering_on_symmetric_grid_is_diagonal_correction():
    # the product term cancels by oddness; the distinct-pair constraint
    # leaves -sum_k J1(g_k) J2(g_k)' / (n(n-1))
    grid = make_grid(factorize(100, 2), 2)
    assert grid.symmetric
    for spec in SPECS:
        j1 = grid_scores(spec, 1, grid)
        j2 = grid_scores(spec, 2, grid)
        want = -(j1.T @ j2) / (100 * 99.0)
        assert np.allclose(centering(spec, grid), want, atol=1e-14)
        assert np.allclose(j1.sum(0), 0.0, atol=1e-12)


@pytest.mark.parametrize(
    "fact", [GridFactorization(15, 5, 3, 0), GridFactorization(13, 3, 4, 1)]
)
def test_centering_matches_pair_enumeration(fact):
    grid = make_grid(fact, 2)
    for spec in SPECS:
        j1 = grid_scores(spec, 1, grid)
        j2 = grid_scores(spec, 2, grid)
        n = grid.n
        acc = np.zeros((2, 2))
        for t in range(n):
            for s in range(n):
                if s != t:
                    acc += np.outer(j1[t], j2[s])
        assert np.allclose(centering(spec, grid), acc / (n * (n - 1)), atol=1e-12)


def test_unknown_kind_rejected():
    with pytest.raises(InputError):
        ScoreSpec("wilcoxon")
