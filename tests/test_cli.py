"""End-to-end tests of the command-line interface via main(argv)."""

import json

import numpy as np
import pytest

import rankvar as rv
from rankvar._rng import derive_seed
from rankvar.cli import ingest_csv, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def report_of(out: str) -> dict:
    return json.loads(out)


def write_series(path, x):
    np.savetxt(path, x, delimiter=",")


@pytest.fixture
def var1_csv(tmp_path):
    model = rv.VarModel.from_matrices([np.array([[0.3, 0.1], [-0.1, 0.2]])])
    eps = np.random.default_rng(81).standard_normal((400, 2))
    x = rv.simulate_var(model, 200, eps)
    path = tmp_path / "x.csv"
    write_series(path, x)
    return str(path)


@pytest.fixture
def white_csv(tmp_path):
    x = np.random.default_rng(82).standard_normal((100, 2))
    path = tmp_path / "w.csv"
    write_series(path, x)
    return str(path)


def write_theta0(tmp_path, d, mats, name="theta0.json"):
    payload = {"d": d, "p": len(mats), "A": [np.asarray(a).tolist() for a in mats]}
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


# -------------------------------------------------------------------- grid


def test_grid_writes_points_and_report(tmp_path, capsys):
    out = tmp_path / "g.csv"
    code, stdout, _ = run_cli(capsys, "grid", "--n", "100", "--d", "2",
                              "--seed", "3", "--out", str(out))
    assert code == 0
    rep = report_of(stdout)
    assert rep["schema"] == "rankvar/report/1"
    assert rep["command"] == "grid"
    assert rep["seed"] == 3
    assert rep["results"] == {"n_R": 10, "n_S": 10, "n_0": 0, "symmetric": True}
    points = np.loadtxt(out, delimiter=",")
    expected = rv.make_grid(rv.factorize(100, 2), 2, seed=derive_seed(3, 3))
    assert points.shape == (100, 2)
    assert np.allclose(points, expected.points)


def test_grid_override_and_partial_trio(tmp_path, capsys):
    out = tmp_path / "g.csv"
    code, stdout, _ = run_cli(capsys, "grid", "--n", "100", "--d", "2",
                              "--nr", "9", "--ns", "11", "--n0", "1",
                              "--seed", "1", "--out", str(out))
    assert code == 0
    assert report_of(stdout)["results"]["n_R"] == 9
    code, _, stderr = run_cli(capsys, "grid", "--n", "100", "--d", "2",
                              "--nr", "10", "--seed", "1", "--out", str(out))
    assert code == 2
    assert "given together" in stderr


# -------------------------------------------------------------------- ranks


def test_ranks_default_grid(white_csv, tmp_path, capsys):
    out = tmp_path / "r.json"
    code, stdout, _ = run_cli(capsys, "ranks", "--data", white_csv,
                              "--seed", "5", "--out", str(out))
    assert code == 0
    assert report_of(stdout)["command"] == "ranks"
    payload = json.loads(out.read_text())
    assert payload["schema"] == "rankvar/ranks/1"
    assert payload["n"] == 100 and payload["d"] == 2
    assert payload["factorization"] == {"n_R": 10, "n_S": 10, "n_0": 0}
    obs = payload["observations"]
    assert len(obs) == 100
    ranks = np.array([o["rank"] for o in obs])
    # each radius level receives exactly n_S observations
    assert np.array_equal(np.bincount(ranks, minlength=11)[1:], np.full(10, 10))
    for o in obs[:5]:
        f = np.array(o["f"])
        assert np.isclose(np.linalg.norm(f), o["rank"] / 11.0)
        assert np.allclose(f, (o["rank"] / 11.0) * np.array(o["sign"]))


def test_ranks_grid_round_trip(white_csv, tmp_path, capsys):
    gpath = tmp_path / "g.csv"
    assert run_cli(capsys, "grid", "--n", "100", "--d", "2", "--seed", "3",
                   "--out", str(gpath))[0] == 0
    out = tmp_path / "r.json"
    code, _, _ = run_cli(capsys, "ranks", "--data", white_csv,
                         "--grid", str(gpath), "--out", str(out))
    assert code == 0
    payload = json.loads(out.read_text())
    x = ingest_csv(white_csv)
    grid = rv.make_grid(rv.factorize(100, 2), 2, seed=derive_seed(3, 3))
    coupling = rv.solve_coupling(x, grid)
    f = np.array([o["f"] for o in payload["observations"]])
    assert np.allclose(f, coupling.f_values)


def test_ranks_grid_shape_mismatch(white_csv, tmp_path, capsys):
    gpath = tmp_path / "g.csv"
    assert run_cli(capsys, "grid", "--n", "60", "--d", "2", "--seed", "3",
                   "--out", str(gpath))[0] == 0
    code, _, stderr = run_cli(capsys, "ranks", "--data", white_csv,
                              "--grid", str(gpath), "--out", str(tmp_path / "r.json"))
    assert code == 2
    assert "60x2" in stderr


def test_ranks_rejects_malformed_grid_file(white_csv, tmp_path, capsys):
    gpath = tmp_path / "g.csv"
    write_series(gpath, np.random.default_rng(1).standard_normal((100, 2)))
    code, _, stderr = run_cli(capsys, "ranks", "--data", white_csv,
                              "--grid", str(gpath), "--out", str(tmp_path / "r.json"))
    assert code == 2
    assert "equispaced" in stderr


# --------------------------------------------------------------------- fit


def test_fit_matches_library(var1_csv, capsys):
    code, stdout, _ = run_cli(capsys, "fit", "--data", var1_csv, "--p0", "1")
    assert code == 0
    rep = report_of(stdout)
    model = rv.fit_constrained_ls(ingest_csv(var1_csv), 1)
    assert rep["results"]["d"] == 2 and rep["results"]["p0"] == 1
    assert np.allclose(rep["results"]["A"][0], model.coefficient(1))
    assert np.allclose(rep["results"]["theta"], model.theta)


# ------------------------------------------------------------------ ingest


def test_ingest_header_diff_demean(tmp_path):
    path = tmp_path / "h.csv"
    path.write_text("alpha,beta\n1,2\n3,5\n6,9\n")
    x = ingest_csv(str(path))
    assert np.array_equal(x, [[1, 2], [3, 5], [6, 9]])
    d = ingest_csv(str(path), diff=True)
    assert np.array_equal(d, [[2, 3], [3, 4]])
    m = ingest_csv(str(path), demean=True)
    assert np.allclose(m.mean(axis=0), 0.0)
    dm = ingest_csv(str(path), diff=True, demean=True)
    assert np.allclose(dm, d - d.mean(axis=0))


def test_ingest_error_names_row_and_column(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("1,2\n3,oops\n")
    with pytest.raises(rv.InputError, match="row 2, column 2"):
        ingest_csv(str(path))
    path.write_text("1,2\nNaN,4\n")
    with pytest.raises(rv.InputError, match="row 2, column 1"):
        ingest_csv(str(path))


def test_ingest_ragged_blank_and_empty(tmp_path):
    path = tmp_path / "r.csv"
    path.write_text("1,2\n\n3,4,5\n")
    with pytest.raises(rv.InputError, match="expected 2 columns, got 3"):
        ingest_csv(str(path))
    path.write_text("a,b\n")
    with pytest.raises(rv.InputError, match="no data rows"):
        ingest_csv(str(path))
    path.write_text("1,2\n")
    with pytest.raises(rv.InputError, match="at least 2 rows to difference"):
        ingest_csv(str(path), diff=True)


def test_cli_surfaces_ingest_error(tmp_path, capsys):
    path = tmp_path / "bad.csv"
    path.write_text("1,2\n3,nan\n")
    code, _, stderr = run_cli(capsys, "fit", "--data", str(path), "--p0", "1")
    assert code == 2
    assert "row 2, column 2" in stderr


# --------------------------------------------------------------- test-spec


def test_spec_asymptotic_and_permutational(white_csv, tmp_path, capsys):
    t0 = write_theta0(tmp_path, 2, [np.zeros((2, 2))])
    code, stdout, _ = run_cli(capsys, "test-spec", "--data", white_csv,
                              "--theta0", t0, "--score", "sign", "--seed", "11")
    assert code == 0
    rep = report_of(stdout)
    res = rep["results"]
    assert rep["seed"] == 11
    assert res["df"] == 4
    assert res["p_permutational"] is None
    x = ingest_csv(white_csv)
    grid = rv.make_grid(rv.factorize(100, 2), 2, seed=derive_seed(11, 3))
    zero = rv.VarModel(d=2, p0=1, p1=1, theta=np.zeros(4))
    direct = rv.test_specified(x, zero, rv.ScoreSpec("sign"), grid)
    assert np.isclose(res["statistic"], direct.statistic)
    assert np.isclose(res["p_asymptotic"], direct.p_asymptotic)

    code, stdout, _ = run_cli(capsys, "test-spec", "--data", white_csv,
                              "--theta0", t0, "--score", "sign", "--seed", "11",
                              "--perm", "99")
    assert code == 0
    res = report_of(stdout)["results"]
    direct = rv.test_specified(x, zero, rv.ScoreSpec("sign"), grid, M=99, seed=11)
    assert np.isclose(res["p_permutational"], direct.p_permutational)
    assert res["reject"] == direct.reject


def test_spec_gaussian_and_sphere(white_csv, tmp_path, capsys):
    t0 = write_theta0(tmp_path, 2, [np.zeros((2, 2))])
    code, stdout, _ = run_cli(capsys, "test-spec", "--data", white_csv,
                              "--theta0", t0, "--score", "gaussian")
    assert code == 0
    rep = report_of(stdout)
    assert rep["seed"] is None
    assert rep["results"]["df"] == 4

    # --p1 pads theta0 with zero blocks
    a1 = np.array([[0.2, 0.1], [0.0, 0.3]])
    t1 = write_theta0(tmp_path, 2, [a1], name="theta1.json")
    code, stdout, _ = run_cli(capsys, "test-spec", "--data", white_csv,
                              "--theta0", t1, "--p1", "3", "--score", "gaussian")
    assert code == 0
    res = report_of(stdout)["results"]
    direct = rv.gaussian_test_specified(
        ingest_csv(white_csv), rv.VarModel.from_matrices([a1], p1=3)
    )
    assert res["df"] == 12
    assert res["statistic"] == direct.statistic

    code, _, stderr = run_cli(capsys, "test-spec", "--data", white_csv,
                              "--theta0", t0, "--score", "gaussian", "--perm", "50")
    assert code == 2
    assert "no permutational variant" in stderr

    code, stdout, _ = run_cli(capsys, "test-spec", "--data", white_csv,
                              "--theta0", t0, "--score", "sign", "--sphere",
                              "--seed", "2")
    assert code == 0
    code, _, stderr = run_cli(capsys, "test-spec", "--data", white_csv,
                              "--theta0", t0, "--score", "vdw", "--sphere",
                              "--seed", "2")
    assert code == 2
    assert "--score sign" in stderr


def test_spec_theta0_validation(white_csv, tmp_path, capsys):
    # p1 below the null order
    t0 = write_theta0(tmp_path, 2, [np.eye(2) * 0.1, np.eye(2) * 0.05])
    code, _, stderr = run_cli(capsys, "test-spec", "--data", white_csv,
                              "--theta0", t0, "--p1", "1", "--score", "sign",
                              "--seed", "1")
    assert code == 2
    assert "below the null order" in stderr
    # dimension mismatch against the data
    t0 = write_theta0(tmp_path, 3, [np.zeros((3, 3))])
    code, _, stderr = run_cli(capsys, "test-spec", "--data", white_csv,
                              "--theta0", t0, "--score", "sign", "--seed", "1")
    assert code == 2
    assert "d=3" in stderr
    # malformed files
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, stderr = run_cli(capsys, "test-spec", "--data", white_csv,
                              "--theta0", str(bad), "--score", "sign", "--seed", "1")
    assert code == 2
    assert "invalid JSON" in stderr
    bad.write_text(json.dumps({"d": 2, "p": 2, "A": [np.zeros((2, 2)).tolist()]}))
    code, _, stderr = run_cli(capsys, "test-spec", "--data", white_csv,
                              "--theta0", str(bad), "--score", "sign", "--seed", "1")
    assert code == 2
    assert "lists 1 matrices" in stderr


# -------------------------------------------------------------- test-order


def test_order_matches_library(var1_csv, capsys):
    code, stdout, _ = run_cli(capsys, "test-order", "--data", var1_csv,
                              "--p0", "1", "--p1", "2", "--score", "vdw",
                              "--seed", "7")
    assert code == 0
    res = report_of(stdout)["results"]
    x = ingest_csv(var1_csv)
    grid = rv.make_grid(rv.factorize(200, 2), 2, seed=derive_seed(7, 3))
    direct = rv.test_order(x, 1, 2, rv.ScoreSpec("vdw"), grid)
    assert res["df"] == 4
    assert np.isclose(res["statistic"], direct.statistic)

    code, stdout, _ = run_cli(capsys, "test-order", "--data", var1_csv,
                              "--p0", "0", "--p1", "1", "--score", "gaussian")
    assert code == 0
    assert report_of(stdout)["results"]["meta"]["p0"] == 0


def test_order_collinear_is_numerical_failure(tmp_path, capsys):
    w = np.random.default_rng(3).standard_normal(150)
    path = tmp_path / "c.csv"
    write_series(path, np.column_stack([w, w]))
    code, _, stderr = run_cli(capsys, "test-order", "--data", str(path),
                              "--p0", "1", "--p1", "2", "--score", "sign",
                              "--seed", "1")
    assert code == 3
    assert "numerical failure" in stderr


def test_order_constant_series_is_input_error(tmp_path, capsys):
    path = tmp_path / "flat.csv"
    write_series(path, np.full((60, 2), 7.5))
    code, stdout, stderr = run_cli(capsys, "test-order", "--data", str(path),
                                   "--p0", "0", "--p1", "1", "--score", "vdw",
                                   "--seed", "1")
    assert code == 2 and stdout == ""
    assert "all equal" in stderr


def test_ranks_accepts_constant_series(tmp_path, capsys):
    path = tmp_path / "flat.csv"
    write_series(path, np.zeros((60, 2)))
    out = tmp_path / "r.json"
    code, _, _ = run_cli(capsys, "ranks", "--data", str(path), "--seed", "1",
                         "--out", str(out))
    assert code == 0
    assert len(json.loads(out.read_text())["observations"]) == 60


@pytest.mark.parametrize("p0", ["0", "1"])
def test_order_overflow_scale_data_matches_unscaled(tmp_path, capsys, p0):
    # squared distances at 1e160 overflow, and at 5e307 so does the fit's
    # column mean; neither the coupling nor the fit depends on scale
    x = np.random.default_rng(4).standard_normal((60, 2))
    stats = []
    for name, scale in (("unit.csv", 1.0), ("big.csv", 1e160), ("huge.csv", 5e307)):
        path = tmp_path / name
        write_series(path, x * scale)
        code, stdout, _ = run_cli(capsys, "test-order", "--data", str(path),
                                  "--p0", p0, "--p1", "2", "--score", "vdw",
                                  "--seed", "1")
        assert code == 0
        stats.append(report_of(stdout)["results"]["statistic"])
    assert stats[1] == stats[0]
    assert stats[2] == stats[0]


def test_order_failed_fit_is_numerical_failure(tmp_path, capsys, monkeypatch):
    def no_convergence(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge in Linear Least Squares")

    monkeypatch.setattr(np.linalg, "lstsq", no_convergence)
    path = tmp_path / "x.csv"
    write_series(path, np.random.default_rng(4).standard_normal((60, 2)))
    code, _, stderr = run_cli(capsys, "test-order", "--data", str(path),
                              "--p0", "1", "--p1", "2", "--score", "vdw",
                              "--seed", "1")
    assert code == 3
    assert "least-squares fit failed" in stderr


# ---------------------------------------------------------------- identify


def test_identify_gaussian(var1_csv, capsys):
    code, stdout, _ = run_cli(capsys, "identify", "--data", var1_csv,
                              "--score", "gaussian", "--max-order", "3")
    assert code == 0
    res = report_of(stdout)["results"]
    assert res["selected_order"] == 1
    assert [s["p0"] for s in res["steps"]] == [0, 1]
    assert res["truncated"] is False


def test_identify_rank_with_permutations(var1_csv, capsys):
    code, stdout, _ = run_cli(capsys, "identify", "--data", var1_csv,
                              "--score", "vdw", "--max-order", "2",
                              "--perm", "99", "--seed", "21")
    assert code == 0
    res = report_of(stdout)["results"]
    assert res["selected_order"] in (1, 2)
    assert res["steps"][0]["reject"] is True
    assert res["steps"][0]["p_permutational"] is not None


@pytest.mark.parametrize("score", ["sign", "gaussian"])
def test_identify_partial_trace_on_failure(tmp_path, capsys, score):
    rng = np.random.default_rng(17)
    e = rng.standard_normal(151)
    w = np.empty(151)
    w[0] = e[0]
    for t in range(1, 151):
        w[t] = 0.7 * w[t - 1] + e[t]
    path = tmp_path / "dup.csv"
    write_series(path, np.column_stack([w, w])[1:])
    seed = ["--seed", "4"] if score == "sign" else []
    code, stdout, stderr = run_cli(capsys, "identify", "--data", str(path),
                                   "--score", score, *seed)
    assert code == 3
    assert "numerical failure" in stderr
    res = report_of(stdout)["results"]
    # the partial trace marks the failing step as the truncation point
    assert res["truncated"] is True
    if score == "gaussian":
        # the Gaussian statistic fails at p0 = 0 already (singular L)
        assert res["selected_order"] == 0
        assert res["steps"] == []
        return
    assert res["selected_order"] == 1
    assert len(res["steps"]) == 1
    assert res["steps"][0]["p0"] == 0
    assert res["steps"][0]["reject"] is True


# ---------------------------------------------------------------- simulate


def test_simulate_reproducible(tmp_path, capsys):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    args = ["simulate", "--n", "80", "--d", "2", "--theta", "0.3,0.1,-0.1,0.2",
            "--p", "1", "--ell", "0.5", "--seed", "4"]
    assert run_cli(capsys, *args, "--out", str(a))[0] == 0
    assert run_cli(capsys, *args, "--out", str(b))[0] == 0
    assert a.read_bytes() == b.read_bytes()
    x = np.loadtxt(a, delimiter=",")
    assert x.shape == (80, 2)


def test_simulate_defaults_and_contamination(tmp_path, capsys):
    out = tmp_path / "s.csv"
    code, stdout, _ = run_cli(capsys, "simulate", "--n", "100", "--d", "3",
                              "--innovations", "t3", "--seed", "9",
                              "--out", str(out))
    assert code == 0
    assert report_of(stdout)["results"]["rows"] == 100
    code, _, stderr = run_cli(capsys, "simulate", "--n", "100", "--d", "2",
                              "--seed", "9", "--contaminate-fraction", "0.05",
                              "--out", str(out))
    assert code == 2
    assert "--contaminate-size" in stderr
    code, _, _ = run_cli(capsys, "simulate", "--n", "100", "--d", "2",
                         "--seed", "9", "--contaminate-fraction", "0.05",
                         "--contaminate-size", "9,9", "--out", str(out))
    assert code == 0


@pytest.mark.parametrize(
    "flags,fragment",
    [
        (["--theta", "0.1,abc,0,0"], "cannot parse numbers"),
        (["--theta", ""], "no numbers"),
        (["--contaminate-fraction", "0.2", "--contaminate-size", "1,x"],
         "cannot parse numbers"),
        (["--contaminate-fraction", "0.2", "--contaminate-size", "nan,1"], "non-finite"),
        (["--contaminate-fraction", "0.2", "--contaminate-size", "1,inf"], "non-finite"),
    ],
)
def test_simulate_rejects_malformed_numbers(tmp_path, capsys, flags, fragment):
    out = tmp_path / "s.csv"
    code, _, stderr = run_cli(capsys, "simulate", "--n", "100", "--d", "2",
                              "--seed", "9", *flags, "--out", str(out))
    assert code == 2
    assert fragment in stderr
    assert not out.exists()


# ---------------------------------------------------------------------- mc


def test_mc_end_to_end(tmp_path, capsys):
    out = tmp_path / "study.csv"
    cfg = tmp_path / "study.cfg"
    cfg.write_text(
        "dgp.d = 2\ndgp.p = 1\ndgp.theta = 0.3, 0.1, -0.1, 0.2\n"
        "dgp.ell = 0, 1\ninnovations.kind = normal\ntests = sign, gaussian\n"
        f"n = 60\nN = 4\nM = 59\nseed = 9\nout = {out}\n"
    )
    code, stdout, _ = run_cli(capsys, "mc", "--config", str(cfg))
    assert code == 0
    rep = report_of(stdout)
    assert rep["results"] == {"task": "reject", "cells": 4}
    first = out.read_bytes()
    lines = first.decode().strip().split("\n")
    assert lines[0] == "test,0,1"
    assert len(lines) == 3
    sidecar = json.loads((tmp_path / "study.json").read_text())
    assert sidecar["schema"] == "rankvar/study/1"
    assert sidecar["seed"] == 9

    # byte-identical rerun, also across worker counts
    assert run_cli(capsys, "mc", "--config", str(cfg))[0] == 0
    assert out.read_bytes() == first
    assert run_cli(capsys, "mc", "--config", str(cfg), "--threads", "2")[0] == 0
    assert out.read_bytes() == first


def test_mc_bad_config(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("dgp.d = 2\n")
    code, _, stderr = run_cli(capsys, "mc", "--config", str(cfg))
    assert code == 2
    assert "missing required key" in stderr


# ------------------------------------------------------------------- misc


def test_unknown_subcommand_and_help(capsys):
    assert main(["bogus"]) == 2
    capsys.readouterr()
    assert main(["--help"]) == 0
    out = capsys.readouterr().out
    assert "test-order" in out and "identify" in out
