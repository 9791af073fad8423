import numpy as np
import pytest
from scipy import stats

from rankvar import (
    GridFactorization,
    InputError,
    ScoreSpec,
    centering,
    chisq_cdf,
    chisq_quantile,
    chisq_sf,
    eval_score,
    factorize,
    grid_scores,
    make_grid,
    mc_score_covariance,
    score_covariance,
)

SPECS = [ScoreSpec("sign"), ScoreSpec("spearman"), ScoreSpec("vdw")]


@pytest.mark.parametrize("df", [1, 2, 3, 4, 7, 10.5])
def test_chisq_cdf_sf_match_scipy(df):
    x = np.linspace(0.01, 40.0, 200)
    assert np.allclose(chisq_cdf(x, df), stats.chi2.cdf(x, df), atol=1e-10)
    assert np.allclose(chisq_sf(x, df), stats.chi2.sf(x, df), atol=1e-10)
    assert chisq_cdf(0.0, df) == 0.0
    assert chisq_sf(0.0, df) == 1.0


def test_chisq_quantile_anchors():
    assert np.isclose(chisq_quantile(2, 0.5), 1.3862943611, atol=1e-6)
    assert np.isclose(chisq_quantile(2, 0.95), 5.9914645471, atol=1e-6)
    assert np.isclose(chisq_quantile(4, 0.95), 9.4877290368, atol=1e-6)


@pytest.mark.parametrize("df", [1, 2, 3, 6])
def test_chisq_quantile_round_trip(df):
    p = np.linspace(0.001, 0.999, 97)
    x = chisq_quantile(df, p)
    assert np.allclose(chisq_cdf(x, df), p, atol=1e-8)
    # the lower tail keeps its relative accuracy, below the rounding of 1 - p
    tiny = np.array([1e-17, 1e-12, 1e-8])
    assert np.allclose(chisq_cdf(chisq_quantile(df, tiny), df), tiny, rtol=1e-10, atol=0.0)
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
