"""Tests for innovation samplers, contamination, config parsing, and the study engine."""

import math

import numpy as np
import pytest
from scipy import stats as sps

import rankvar as rv
from rankvar import (
    ContaminationSpec,
    InnovationModel,
    InputError,
    ScoreSpec,
    StudyConfig,
    VarModel,
    contaminate,
    factorize,
    identify_order,
    innovation_preset,
    make_grid,
    parse_config,
    run_study,
    sample_innovations,
    simulate_var,
    transport,
)


# ---------------------------------------------------------------- samplers


def test_gaussian_sampler_moments():
    model = InnovationModel.gaussian(2)
    x = sample_innovations(model, 200_000, 2, seed=11)
    assert np.allclose(x.mean(axis=0), 0.0, atol=0.02)
    assert np.allclose(np.cov(x.T), np.eye(2), atol=0.02)


def test_gaussian_sampler_custom_sigma():
    sigma = np.array([[2.0, 0.6], [0.6, 1.0]])
    model = InnovationModel.gaussian(2, sigma)
    x = sample_innovations(model, 200_000, 2, seed=12)
    assert np.allclose(np.cov(x.T), sigma, atol=0.04)
    # marginals are exactly normal; KS on a standardized coordinate
    p = sps.kstest(x[:50_000, 0] / math.sqrt(2.0), "norm").pvalue
    assert p > 0.01


def test_student_sampler_marginals():
    # t(3) has infinite fourth moments, so the sample covariance is a poor
    # check; the marginal distribution is exact and stable instead.
    model = InnovationModel.student(3, nu=3.0)
    x = sample_innovations(model, 100_000, 3, seed=13)
    for j in range(3):
        assert sps.kstest(x[:, j], sps.t(3).cdf).pvalue > 0.01
    # spherical: coordinates are uncorrelated
    c = np.corrcoef(x.T)
    assert np.allclose(c - np.diag(np.diag(c)), 0.0, atol=0.02)


def test_mixture_sampler_moments():
    model = innovation_preset("mixture", 2)
    x = sample_innovations(model, 400_000, 2, seed=14)
    # weights 3/8, 3/8, 1/4 with means (-5,0), (5,0), (0,0): mean is zero and
    # cov = sum w_k (Sigma_k + mu_k mu_k')
    target = np.array([[25.0, -0.375], [-0.375, 4.875]])
    assert np.allclose(x.mean(axis=0), 0.0, atol=0.05)
    assert np.allclose(np.cov(x.T), target, atol=0.3)


def test_skew_t_sampler_mean():
    model = innovation_preset("skewt3", 2)
    x = sample_innovations(model, 400_000, 2, seed=15)
    # E[Z] = xi + w * delta * b_nu with b_nu = sqrt(nu/pi) Gamma((nu-1)/2) / Gamma(nu/2)
    w = np.sqrt(np.diag(model.sigma))
    omega_bar = model.sigma / np.outer(w, w)
    delta = omega_bar @ model.alpha / math.sqrt(1.0 + model.alpha @ omega_bar @ model.alpha)
    b = math.sqrt(model.nu / math.pi) * math.gamma((model.nu - 1) / 2) / math.gamma(model.nu / 2)
    assert np.allclose(x.mean(axis=0), w * delta * b, atol=0.05)


def test_skew_t_second_moment_scaling():
    # with xi = 0 and nu = 3, E[Z Z'] = nu/(nu-2) Sigma = 3 Sigma; heavy tails
    # make this slow to converge, so the tolerance is loose
    model = InnovationModel.skew_t(xi=(0.0, 0.0), sigma=np.eye(2), alpha=(4.0, 0.0), nu=7.0)
    x = sample_innovations(model, 400_000, 2, seed=16)
    second = x.T @ x / x.shape[0]
    assert np.allclose(second, (7.0 / 5.0) * np.eye(2), atol=0.05)


def test_sampler_determinism():
    model = innovation_preset("mixture", 3)
    a = sample_innovations(model, 500, 3, seed=77)
    b = sample_innovations(model, 500, 3, seed=77)
    c = sample_innovations(model, 500, 3, seed=78)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_sampler_accepts_generator():
    model = InnovationModel.gaussian(2)
    g = np.random.default_rng(5)
    x = sample_innovations(model, 50, 2, seed=g)
    y = sample_innovations(model, 50, 2, seed=np.random.default_rng(5))
    assert np.array_equal(x, y)


def test_sampler_validation():
    model = InnovationModel.gaussian(2)
    with pytest.raises(InputError):
        sample_innovations(model, 0, 2, seed=1)
    with pytest.raises(InputError):
        sample_innovations(model, 10, 3, seed=1)


# ------------------------------------------------------------------ presets


def test_preset_parameters_pinned():
    m2 = innovation_preset("mixture", 2)
    assert np.array_equal(m2.weights, [0.375, 0.375, 0.25])
    assert np.array_equal(m2.covs[1], [[7.0, -6.0], [-6.0, 6.0]])
    m3 = innovation_preset("mixture", 3)
    assert m3.means.shape == (3, 3)
    s2 = innovation_preset("skewt3", 2)
    assert s2.nu == 3.0
    assert np.array_equal(s2.alpha, [5.0, 2.0])
    assert np.array_equal(s2.sigma, [[7.0, 4.0], [4.0, 5.0]])
    s3 = innovation_preset("skewt3", 3)
    assert np.array_equal(s3.alpha, [7.0, 5.0, 3.0])
    assert innovation_preset("normal", 4).kind == "gaussian"
    assert innovation_preset("t3", 4).nu == 3.0


def test_preset_unknown_or_wrong_dimension():
    with pytest.raises(InputError):
        innovation_preset("cauchy", 2)
    with pytest.raises(InputError):
        innovation_preset("mixture", 4)
    with pytest.raises(InputError):
        innovation_preset("skewt3", 5)


def test_model_validation():
    with pytest.raises(InputError):
        InnovationModel.gaussian(2, sigma=[[1.0, 2.0], [2.0, 1.0]])  # not pd
    with pytest.raises(InputError):
        InnovationModel.gaussian(3, sigma=np.eye(2))  # dimension clash
    with pytest.raises(InputError):
        InnovationModel.student(2, nu=0.0)
    with pytest.raises(InputError):
        InnovationModel.mixture((0.5, 0.6), [(0.0,), (0.0,)], [np.eye(1), np.eye(1)])
    with pytest.raises(InputError):
        InnovationModel.skew_t(xi=(0.0,), sigma=np.eye(2), alpha=(1.0, 1.0), nu=3.0)


# ----------------------------------------------------------- contamination


def test_contamination_positions():
    spec = ContaminationSpec(fraction=0.05, size=(9.0, 9.0))
    assert np.array_equal(spec.positions(100), [10, 30, 50, 70, 90])
    pos = spec.positions(800)
    assert pos.size == 40
    assert pos[0] == 10 and pos[-1] == 790
    assert np.all(np.diff(pos) == 20)


def test_contamination_fraction_bounds():
    for bad in (0.0, 0.5, -0.1, 1.0):
        with pytest.raises(InputError):
            ContaminationSpec(fraction=bad, size=(1.0,))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_contamination_size_must_be_finite(bad):
    with pytest.raises(InputError, match="non-finite"):
        ContaminationSpec(fraction=0.2, size=(bad, 1.0))


def test_contaminate_zero_size_is_pure_demeaning():
    x = np.random.default_rng(0).standard_normal((100, 2)) + 3.0
    out = contaminate(x, ContaminationSpec(fraction=0.05, size=(0.0, 0.0)))
    assert np.allclose(out, x - x.mean(axis=0))


def test_contaminate_exact_spikes_net_of_mean_shift():
    x = np.random.default_rng(1).standard_normal((100, 2))
    size = np.array([9.0, -4.0])
    spec = ContaminationSpec(fraction=0.05, size=size)
    out = contaminate(x, spec)
    pos = spec.positions(100)
    shift = x.mean(axis=0) + pos.size * size / 100
    assert np.allclose(out[pos], x[pos] + size - shift)
    mask = np.ones(100, dtype=bool)
    mask[pos] = False
    assert np.allclose(out[mask], x[mask] - shift)


def test_contaminate_validation():
    x = np.zeros((50, 2))
    with pytest.raises(InputError):
        contaminate(x, ContaminationSpec(fraction=0.1, size=(1.0,)))
    with pytest.raises(InputError):
        contaminate(np.zeros(50), ContaminationSpec(fraction=0.1, size=(1.0,)))


# ----------------------------------------------------------- config parsing


def test_parse_config_round_trip(tmp_path):
    text = """
    # white-noise study
    dgp.d = 2
    dgp.p = 1
    dgp.theta = 0.05, -0.01, 0.02, 0.05
    dgp.ell = 0, 1, 2
    innovations.kind = skewt
    innovations.sigma = 7 4 4 5
    innovations.alpha = 5, 2
    innovations.nu = 3
    tests = vdw, vdw_bc, gaussian
    n = 300
    N = 50
    M = 100            # permutation draws
    alpha = 0.10
    seed = 42
    out = results.csv
    task = reject
    contamination.fraction = 0.05
    contamination.size = 9, 9
    threads = 2
    max_order = 4
    grid.nr = 17
    grid.ns = 17
    grid.n0 = 11
    """
    path = tmp_path / "study.cfg"
    path.write_text(text)
    cfg = parse_config(str(path))
    assert cfg.d == 2 and cfg.p == 1
    assert np.array_equal(cfg.theta, [0.05, -0.01, 0.02, 0.05])
    assert cfg.ell == (0.0, 1.0, 2.0)
    assert cfg.innovations.kind == "skew_t"
    assert np.array_equal(cfg.innovations.sigma, [[7.0, 4.0], [4.0, 5.0]])
    assert np.array_equal(cfg.innovations.alpha, [5.0, 2.0])
    assert np.array_equal(cfg.innovations.xi, [0.0, 0.0])
    assert cfg.innovations.nu == 3.0
    assert cfg.tests == ("vdw", "vdw_bc", "gaussian")
    assert (cfg.n, cfg.N, cfg.M) == (300, 50, 100)
    assert cfg.alpha == 0.10 and cfg.seed == 42
    assert cfg.out == "results.csv" and cfg.task == "reject"
    assert cfg.contamination.fraction == 0.05
    assert np.array_equal(cfg.contamination.size, [9.0, 9.0])
    assert cfg.threads == 2 and cfg.max_order == 4
    assert cfg.grid_override == (17, 17, 11)


def test_parse_config_presets_and_defaults(tmp_path):
    path = tmp_path / "a.cfg"
    path.write_text(
        "dgp.d = 2\ndgp.p = 1\ndgp.theta = 0.1 0 0 0.1\n"
        "innovations.kind = mixture\ntests = sign\nn = 100\nN = 5\nseed = 1\n"
    )
    cfg = parse_config(str(path))
    assert cfg.innovations.kind == "mixture"
    assert np.array_equal(cfg.innovations.covs[1], [[7.0, -6.0], [-6.0, 6.0]])
    assert cfg.ell == (1.0,)
    assert cfg.M is None and cfg.alpha == 0.05
    assert cfg.task == "reject" and cfg.contamination is None
    assert cfg.grid_override is None


_BASE_LINES = {
    "dgp.d": "2",
    "dgp.p": "1",
    "dgp.theta": "0.1 0 0 0.1",
    "innovations.kind": "normal",
    "tests": "sign",
    "n": "100",
    "N": "5",
    "seed": "1",
}


@pytest.mark.parametrize(
    "replace,extra,fragment",
    [
        ({}, "bogus = 1", "unknown key"),
        ({}, "n = 200", "duplicate key"),
        ({}, "just a line", "expected key = value"),
        ({"dgp.theta": "a b"}, None, "cannot parse numbers"),
        ({}, "grid.nr = 5", "given together"),
        ({"innovations.kind": "cauchy"}, None, "unknown innovations.kind"),
        ({"dgp.d": "two"}, None, "dgp.d = 'two' is not a valid int"),
        ({"N": "5.5"}, None, "N = '5.5' is not a valid int"),
        ({}, "alpha = x", "alpha = 'x' is not a valid float"),
        ({}, "M = 99.5", "M = '99.5' is not a valid int"),
        ({}, "grid.nr = 5\ngrid.ns = 4\ngrid.n0 = one", "grid.n0 = 'one'"),
        ({"innovations.kind": "student"}, "innovations.nu = three", "innovations.nu"),
    ],
)
def test_parse_config_errors(tmp_path, replace, extra, fragment):
    lines = [f"{k} = {v}" for k, v in {**_BASE_LINES, **replace}.items()]
    if extra is not None:
        lines.append(extra)
    path = tmp_path / "bad.cfg"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(InputError, match=fragment):
        parse_config(str(path))


def test_parse_config_missing_required(tmp_path):
    path = tmp_path / "m.cfg"
    path.write_text("dgp.d = 2\n")
    with pytest.raises(InputError, match="missing required key"):
        parse_config(str(path))


def test_parse_config_missing_file(tmp_path):
    with pytest.raises(InputError, match="cannot read config"):
        parse_config(str(tmp_path / "nope.cfg"))


# ------------------------------------------------------------ study config


def test_study_config_validation():
    good = dict(d=2, p=1, theta=np.full(4, 0.1), innovations=InnovationModel.gaussian(2))
    StudyConfig(**good)
    with pytest.raises(InputError):
        StudyConfig(**{**good, "theta": np.zeros(3)})
    with pytest.raises(InputError):
        StudyConfig(**{**good, "task": "select"})
    with pytest.raises(InputError):
        StudyConfig(**{**good, "N": 0})
    with pytest.raises(InputError):
        StudyConfig(**{**good, "p": 0})
    with pytest.raises(InputError):
        StudyConfig(**{**good, "tests": ()})
    with pytest.raises(InputError):
        StudyConfig(**{**good, "tests": ("vdw_sphere",)})
    with pytest.raises(InputError):
        StudyConfig(**{**good, "tests": ("gaussian_bc",)})
    with pytest.raises(InputError):
        StudyConfig(**{**good, "innovations": InnovationModel.gaussian(3)})
    # sphere-grid variant exists for the sign score
    StudyConfig(**{**good, "tests": ("sign_sphere", "sign_sphere_bc")})


def test_unknown_study_test_lists_the_nine_valid_names():
    good = dict(d=2, p=1, theta=np.full(4, 0.1), innovations=InnovationModel.gaussian(2))
    valid = (
        "gaussian, sign, sign_bc, spearman, spearman_bc, vdw, vdw_bc, "
        "sign_sphere, sign_sphere_bc"
    )
    with pytest.raises(InputError, match=f"unknown test 'vdw_sphere'; valid tests: {valid}$"):
        StudyConfig(**{**good, "tests": ("sign", "vdw_sphere")})


# ------------------------------------------------------------ study engine


def _small_config(**over):
    base = dict(
        d=2,
        p=1,
        theta=np.array([0.3, 0.1, -0.1, 0.2]),
        ell=(0.0, 1.0),
        innovations=InnovationModel.gaussian(2),
        tests=("sign", "gaussian"),
        n=60,
        N=8,
        M=59,
        seed=314,
    )
    base.update(over)
    return StudyConfig(**base)


def test_run_study_repeatable():
    cfg = _small_config()
    a = run_study(cfg)
    b = run_study(cfg)
    assert a.to_csv() == b.to_csv()
    assert a.cells == b.cells


def test_run_study_thread_invariance():
    serial = run_study(_small_config(tests=("sign", "sign_bc", "gaussian")))
    pooled = run_study(_small_config(tests=("sign", "sign_bc", "gaussian"), threads=2))
    assert serial.to_csv() == pooled.to_csv()


def test_cells_invariant_to_test_order():
    a = run_study(_small_config(tests=("sign", "vdw_bc")))
    b = run_study(_small_config(tests=("vdw_bc", "sign")))
    for name in ("sign", "vdw_bc"):
        assert a.cells[name] == b.cells[name]


def test_asymptotic_cell_ignores_permutation_sibling():
    alone = run_study(_small_config(tests=("vdw",)))
    paired = run_study(_small_config(tests=("vdw", "vdw_bc")))
    assert alone.cells["vdw"] == paired.cells["vdw"]


def test_reject_report_shape():
    cfg = _small_config()
    rep = run_study(cfg)
    lines = rep.to_csv().strip().split("\n")
    assert lines[0] == "test,0,1"
    assert len(lines) == 1 + len(cfg.tests)
    for name in cfg.tests:
        for idx in range(2):
            cell = rep.cells[name][idx]
            assert cell["valid"] + cell["failures"] == cfg.N
            assert 0.0 <= cell["frequency"] <= 1.0
            assert cell["rejections"] <= cell["valid"]
    payload = rep.to_json_dict()
    assert payload["schema"] == "rankvar/study/1"
    assert payload["tests"] == list(cfg.tests)
    assert payload["innovations"] == "gaussian"


def test_sphere_variant_runs():
    rep = run_study(_small_config(tests=("sign_sphere",), ell=(0.0,), N=4))
    cell = rep.cells["sign_sphere"][0]
    assert cell["valid"] == 4


def test_identify_task_counts():
    cfg = _small_config(
        task="identify", tests=("gaussian", "sign"), ell=(1.0,), n=80, N=6,
        M=None, max_order=2,
    )
    rep = run_study(cfg)
    lines = rep.to_csv().strip().split("\n")
    assert lines[0] == "test,ell,under,correct,over"
    for name in cfg.tests:
        cell = rep.cells[name][0]
        assert cell["under"] + cell["correct"] + cell["over"] == cell["valid"]
        assert cell["valid"] + cell["failures"] == cfg.N
        assert 0.0 <= cell["correct_rate"] <= 1.0
    payload = rep.to_json_dict()
    assert payload["task"] == "identify"


def test_grid_override_used():
    # an override that does not factor n must surface when grids are built
    cfg = _small_config(grid_override=(10, 5, 0))
    with pytest.raises(InputError):
        run_study(cfg)
    ok = run_study(_small_config(grid_override=(10, 6, 0), ell=(0.0,), N=3))
    assert ok.cells["sign"][0]["valid"] == 3


def test_run_study_requires_innovations():
    cfg = StudyConfig(d=2, p=1, theta=np.full(4, 0.1))
    with pytest.raises(InputError, match="no innovation model"):
        run_study(cfg)


def test_run_study_thread_validation():
    with pytest.raises(InputError):
        run_study(_small_config(threads=0))


# ------------------------------------------------------- shared couplings


def _sharing_config(task, **over):
    """A study in which every test takes the same identification steps."""
    base = dict(
        theta=np.array([0.5, 0.1, -0.1, 0.4]), n=80, N=4, M=19, task=task,
        ell=(1.0,) if task == "identify" else (0.0, 1.0), max_order=2,
    )
    base.update(over)
    return _small_config(**base)


def _count_solves(monkeypatch):
    """List that grows by one per linear sum assignment solved in this process."""
    calls = []
    solver = transport.linear_sum_assignment

    def counted(cost):
        calls.append(cost.shape)
        return solver(cost)

    monkeypatch.setattr(transport, "linear_sum_assignment", counted)
    return calls


def _full_solves(calls, bases):
    """Number of full n x n solves among the counted ones.

    A base coupling is warm-started by one coarse m x m solve just before
    its full solve, m = max(n // 4, 1); a perturbed coupling of the
    finite-difference Upsilon is warm-started from its base's potentials,
    with no coarse solve.  Asserts that exactly ``bases`` full solves have a
    coarse solve before them.
    """
    n = max(rows for rows, _ in calls)
    m = max(n // 4, 1)
    assert set(calls) <= {(m, m), (n, n)}
    coarse = [i for i, shape in enumerate(calls) if shape == (m, m)]
    assert all(calls[i + 1] == (n, n) for i in coarse)
    assert len(coarse) == bases
    return calls.count((n, n))


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize(
    "task, tests",
    [("identify", ("vdw", "sign_bc")), ("reject", ("sign", "spearman", "vdw"))],
)
def test_shared_couplings_leave_every_cell_unchanged(task, tests, threads):
    together = run_study(_sharing_config(task, tests=tests, threads=threads))
    for name in tests:
        alone = run_study(_sharing_config(task, tests=(name,), threads=threads))
        assert together.cells[name] == alone.cells[name]


def test_identification_solves_each_coupling_once_per_series(monkeypatch):
    calls = _count_solves(monkeypatch)
    counts = {}
    for tests in (("vdw",), ("sign_bc",), ("vdw", "sign_bc")):
        calls.clear()
        run_study(_sharing_config("identify", tests=tests))
        counts[tests] = _full_solves(calls, bases=4 * 2)
    # each series: order 0 vs 1 (one coupling), order 1 vs 2 (1 + d^2 = 5)
    assert counts[("vdw",)] == counts[("sign_bc",)] == 4 * 6
    assert counts[("vdw", "sign_bc")] == counts[("vdw",)]


def test_rejection_solves_one_coupling_per_series(monkeypatch):
    calls = _count_solves(monkeypatch)
    cfg = _sharing_config("reject", tests=("sign", "spearman", "vdw"), M=None)
    run_study(cfg)
    assert _full_solves(calls, bases=cfg.N * len(cfg.ell)) == cfg.N * len(cfg.ell)


def test_direct_calls_share_no_coupling(monkeypatch):
    calls = _count_solves(monkeypatch)
    model = VarModel.from_matrices([np.array([[0.5, -0.1], [0.1, 0.4]])])
    eps = np.random.default_rng(8).standard_normal((280, 2))
    x = simulate_var(model, 80, eps)
    grid = make_grid(factorize(80, 2), 2)
    for spec in (ScoreSpec("vdw"), ScoreSpec("sign")):
        rv.test_order(x, 1, 2, spec, grid)
    assert _full_solves(calls, bases=2) == 2 * 5
    calls.clear()
    steps = [
        len(identify_order(x, spec, max_order=2, grid=grid).steps)
        for spec in (ScoreSpec("vdw"), ScoreSpec("vdw"))
    ]
    assert steps == [2, 2] and _full_solves(calls, bases=2 * 2) == 2 * 6


def test_no_sharing_scope_outlives_run_study():
    assert transport._SHARED.get() is None
    run_study(_sharing_config("reject", tests=("sign", "vdw"), N=2))
    assert transport._SHARED.get() is None
