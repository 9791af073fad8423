import numpy as np
import pytest
from scipy import stats

from rankvar import (
    InputError,
    NumericalError,
    VarModel,
    gaussian_test_order,
    gaussian_test_specified,
    simulate_var,
)

ZERO2 = VarModel(d=2, p0=0, p1=1, theta=np.zeros(4))


def test_white_noise_statistic_fits_chi_square():
    rng = np.random.default_rng(101)
    vals = [
        gaussian_test_specified(rng.standard_normal((200, 2)), ZERO2).statistic
        for _ in range(300)
    ]
    assert stats.kstest(vals, stats.chi2(4).cdf).pvalue > 0.01


def test_white_noise_statistic_is_affine_invariant():
    rng = np.random.default_rng(55)
    x = rng.standard_normal((150, 2))
    m = np.array([[2.0, 0.7], [-0.3, 1.4]])
    y = x @ m.T + np.array([10.0, -4.0])
    a = gaussian_test_specified(x, ZERO2).statistic
    b = gaussian_test_specified(y, ZERO2).statistic
    assert np.isclose(a, b, rtol=1e-8)


def test_order_statistic_is_scale_invariant():
    # pure scaling leaves the fit, the residual geometry, and the
    # self-normalizing Lambda blocks aligned, so the statistic is exact;
    # general affine maps are only asymptotically neutral because the
    # lattice-discretized fit does not commute with conjugation
    rng = np.random.default_rng(56)
    model = VarModel.from_matrices([np.array([[0.3, 0.12], [-0.06, 0.24]])])
    x = simulate_var(model, 300, rng.standard_normal((500, 2)))
    a = gaussian_test_order(x, 1, 2).statistic
    b = gaussian_test_order(0.02 * x, 1, 2).statistic
    assert np.isclose(a, b, rtol=1e-6)


def test_order_p0_zero_coincides_with_specified_zero():
    x = np.random.default_rng(77).standard_normal((100, 2))
    null = VarModel(d=2, p0=0, p1=2, theta=np.zeros(8))
    a = gaussian_test_order(x, 0, 2)
    b = gaussian_test_specified(x, null)
    assert a.statistic == b.statistic
    assert a.df == b.df == 8
    assert a.meta["p0"] == 0
    assert a.p_permutational is None


def test_specified_nonzero_null_size():
    rng = np.random.default_rng(88)
    model = VarModel.from_matrices([np.array([[0.3, 0.12], [-0.06, 0.24]])], p1=2)
    hits = 0
    for _ in range(150):
        x = simulate_var(model, 300, rng.standard_normal((500, 2)))
        hits += gaussian_test_specified(x, model).reject
    assert 0.005 <= hits / 150 <= 0.15


def test_order_test_null_size():
    rng = np.random.default_rng(99)
    model = VarModel.from_matrices([np.array([[0.3, 0.12], [-0.06, 0.24]])])
    hits = 0
    for _ in range(150):
        x = simulate_var(model, 300, rng.standard_normal((500, 2)))
        out = gaussian_test_order(x, 1, 2)
        assert out.df == 4
        hits += out.reject
    assert 0.005 <= hits / 150 <= 0.15


def test_p1_reframing():
    x = np.random.default_rng(6).standard_normal((100, 2))
    model = VarModel.from_matrices([np.array([[0.2, 0.0], [0.0, 0.2]])], p1=3)
    out = gaussian_test_specified(x, model)
    assert out.df == 12
    assert out.meta["p1"] == 3


def test_singular_covariance_rejected():
    n = 100
    rng = np.random.default_rng(4)
    x = np.column_stack([rng.standard_normal(n), np.ones(n)])
    with pytest.raises(NumericalError):
        gaussian_test_specified(x, ZERO2)
    # a zero column stays zero after residual filtering, so the whitening
    # path hits a singular covariance too
    model = VarModel.from_matrices([0.3 * np.eye(2)])
    degenerate = np.column_stack([rng.standard_normal(n), np.zeros(n)])
    with pytest.raises(NumericalError):
        gaussian_test_specified(degenerate, model)


def test_validation():
    x = np.random.default_rng(1).standard_normal((50, 2))
    with pytest.raises(InputError):
        gaussian_test_specified(x, ZERO2, alpha=0.0)
    with pytest.raises(InputError):
        gaussian_test_order(x, 2, 2)
    with pytest.raises(InputError):
        gaussian_test_specified(x[:2], VarModel(d=2, p0=0, p1=3, theta=np.zeros(12)))
    theta3 = VarModel(d=3, p0=0, p1=1, theta=np.zeros(9))
    with pytest.raises(InputError):
        gaussian_test_specified(x, theta3)
