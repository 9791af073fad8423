"""Command-line interface.

Subcommands: grid, ranks, fit, test-spec, test-order, identify, simulate,
mc.  Single-run commands print a self-describing JSON report to stdout;
table-producing commands write CSV (plus a JSON sidecar for mc).  Exit
codes: 0 success, 2 input error, 3 numerical failure.  Randomized paths
take --seed or draw one from entropy and echo it in the report.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import sys

import numpy as np

from ._errors import InputError, NumericalError
from ._rng import derive_seed, fresh_seed
from .gaussian_tests import gaussian_test_order, gaussian_test_specified
from .grid import BallGrid, _reconstruct_grid, factorize, make_grid, make_sphere_grid
from .order_id import IdentificationError, identify_order
from .rank_tests import test_order, test_specified
from .scores import ScoreSpec
from .simulation import (
    ContaminationSpec,
    InnovationModel,
    _floats,
    contaminate,
    innovation_preset,
    parse_config,
    run_study,
    sample_innovations,
)
from .transport import solve_coupling
from .var_algebra import VarModel, fit_constrained_ls, simulate_var

__all__ = ["ingest_csv", "main"]

_SCHEMA = "rankvar/report/1"


def ingest_csv(path: str, diff: bool = False, demean: bool = False) -> np.ndarray:
    """Read an n x d numeric CSV, with optional differencing and demeaning.

    A first line whose cells do not all parse as numbers is treated as a
    header.  Errors name the offending file line and column.  Differencing
    applies before demeaning.
    """
    rows: list[list[float]] = []
    width = None
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            for lineno, cells in enumerate(reader, start=1):
                if not cells or all(not c.strip() for c in cells):
                    continue
                parsed = []
                for col, cell in enumerate(cells, start=1):
                    try:
                        value = float(cell)
                    except ValueError:
                        if lineno == 1 and not rows:
                            parsed = None  # header line
                            break
                        raise InputError(
                            f"{path}: row {lineno}, column {col}: cannot parse "
                            f"{cell.strip()!r}"
                        ) from None
                    if not math.isfinite(value):
                        raise InputError(
                            f"{path}: row {lineno}, column {col}: non-finite "
                            f"value {cell.strip()!r}"
                        )
                    parsed.append(value)
                if parsed is None:
                    continue
                if width is None:
                    width = len(parsed)
                elif len(parsed) != width:
                    raise InputError(
                        f"{path}: row {lineno}: expected {width} columns, got "
                        f"{len(parsed)}"
                    )
                rows.append(parsed)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    if not rows:
        raise InputError(f"{path}: no data rows")
    x = np.asarray(rows, dtype=float)
    if diff:
        if x.shape[0] < 2:
            raise InputError(f"{path}: need at least 2 rows to difference")
        x = np.diff(x, axis=0)
    if demean:
        x = x - x.mean(axis=0)
    return x


def _load_theta0(path: str, p1: int | None) -> VarModel:
    """theta0 JSON: {d, p, A: list of d x d row-major matrices}."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: invalid JSON: {exc}") from exc
    try:
        d = int(payload["d"])
        p = int(payload["p"])
        mats = [np.asarray(a, dtype=float) for a in payload["A"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"{path}: expected fields d, p, A") from exc
    if len(mats) != p:
        raise InputError(f"{path}: A lists {len(mats)} matrices, p={p}")
    for i, a in enumerate(mats, start=1):
        if a.shape != (d, d):
            raise InputError(f"{path}: A[{i}] is not {d}x{d}")
    if p1 is None:
        p1 = p
    if p1 < p:
        raise InputError(f"--p1 {p1} is below the null order p={p}")
    if p == 0:
        return VarModel(d=d, p0=0, p1=p1, theta=np.zeros(p1 * d * d))
    return VarModel.from_matrices(mats, p1=p1)


def _grid_for(args, n: int, d: int, seed: int) -> BallGrid:
    """Build the grid a test subcommand needs, honoring overrides."""
    if getattr(args, "sphere", False):
        if args.score != "sign":
            raise InputError("--sphere is only available for --score sign")
        return make_sphere_grid(n, d, seed=derive_seed(seed, 4))
    override = _grid_override(args)
    fact = factorize(n, d, override=override)
    return make_grid(fact, d, seed=derive_seed(seed, 3))


def _grid_override(args) -> tuple[int, int, int] | None:
    trio = (getattr(args, "nr", None), getattr(args, "ns", None), getattr(args, "n0", None))
    given = [v for v in trio if v is not None]
    if not given:
        return None
    if len(given) != 3:
        raise InputError("--nr, --ns and --n0 must be given together")
    return (trio[0], trio[1], trio[2])


def _sanitize(obj):
    """Make a report JSON-safe: numpy scalars to python, non-finite to None."""
    if isinstance(obj, dict):
        return {k: _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating, float)):
        v = float(obj)
        return v if math.isfinite(v) else None
    if isinstance(obj, np.ndarray):
        return _sanitize(obj.tolist())
    if isinstance(obj, np.bool_):
        return bool(obj)
    return obj


def _emit(command: str, config: dict, seed, results) -> None:
    report = {
        "schema": _SCHEMA,
        "command": command,
        "config": _sanitize(config),
        "seed": seed,
        "results": _sanitize(results),
    }
    json.dump(report, sys.stdout, indent=2, allow_nan=False)
    sys.stdout.write("\n")


def _write_matrix_csv(path: str, x: np.ndarray) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        for row in np.atleast_2d(x):
            writer.writerow([f"{v:.17g}" for v in row])


def _score_spec(name: str) -> ScoreSpec:
    return ScoreSpec(kind=name)


def _seed_or_fresh(args) -> int:
    return fresh_seed() if args.seed is None else args.seed


def cmd_grid(args) -> int:
    seed = _seed_or_fresh(args)
    fact = factorize(args.n, args.d, override=_grid_override(args))
    grid = make_grid(fact, args.d, seed=derive_seed(seed, 3))
    _write_matrix_csv(args.out, grid.points)
    _emit(
        "grid",
        {"n": args.n, "d": args.d, "out": args.out},
        seed,
        {
            "n_R": fact.n_R,
            "n_S": fact.n_S,
            "n_0": fact.n_0,
            "symmetric": grid.symmetric,
        },
    )
    return 0


def cmd_ranks(args) -> int:
    x = ingest_csv(args.data, diff=args.diff, demean=args.demean)
    n, d = x.shape
    seed = _seed_or_fresh(args)
    if args.grid is not None:
        points = ingest_csv(args.grid)
        if points.shape != (n, d):
            raise InputError(
                f"grid file is {points.shape[0]}x{points.shape[1]}, data needs "
                f"{n}x{d}"
            )
        grid = _reconstruct_grid(points)
    else:
        grid = make_grid(factorize(n, d), d, seed=derive_seed(seed, 3))
    coupling = solve_coupling(x, grid)
    observations = [
        {
            "rank": int(coupling.ranks[t]),
            "sign": [float(v) for v in coupling.signs[t]],
            "f": [float(v) for v in coupling.f_values[t]],
        }
        for t in range(n)
    ]
    payload = {
        "schema": "rankvar/ranks/1",
        "n": n,
        "d": d,
        "factorization": {
            "n_R": grid.factorization.n_R,
            "n_S": grid.factorization.n_S,
            "n_0": grid.factorization.n_0,
        },
        "observations": observations,
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    _emit(
        "ranks",
        {"data": args.data, "grid": args.grid, "out": args.out,
         "diff": args.diff, "demean": args.demean},
        seed,
        {"n": n, "d": d, "out": args.out},
    )
    return 0


def cmd_fit(args) -> int:
    x = ingest_csv(args.data, diff=args.diff, demean=args.demean)
    model = fit_constrained_ls(x, args.p0)
    results = {
        "d": model.d,
        "p0": model.p0,
        "A": [model.coefficient(i).tolist() for i in range(1, model.p0 + 1)],
        "theta": model.theta.tolist(),
    }
    _emit(
        "fit",
        {"data": args.data, "p0": args.p0, "diff": args.diff, "demean": args.demean},
        None,
        results,
    )
    return 0


def cmd_test_spec(args) -> int:
    x = ingest_csv(args.data, diff=args.diff, demean=args.demean)
    n, d = x.shape
    theta0 = _load_theta0(args.theta0, args.p1)
    if theta0.d != d:
        raise InputError(f"theta0 is for d={theta0.d}, data has d={d}")
    config = {
        "data": args.data, "theta0": args.theta0, "p1": theta0.p1,
        "score": args.score, "alpha": args.alpha, "perm": args.perm,
        "diff": args.diff, "demean": args.demean,
    }
    if args.score == "gaussian":
        if args.perm is not None:
            raise InputError("the gaussian test has no permutational variant")
        out = gaussian_test_specified(x, theta0, alpha=args.alpha)
        _emit("test-spec", config, None, out.to_dict())
        return 0
    seed = _seed_or_fresh(args)
    grid = _grid_for(args, n, d, seed)
    out = test_specified(
        x, theta0, _score_spec(args.score), grid,
        alpha=args.alpha, M=args.perm, seed=seed if args.perm else None,
    )
    _emit("test-spec", config, seed, out.to_dict())
    return 0


def cmd_test_order(args) -> int:
    x = ingest_csv(args.data, diff=args.diff, demean=args.demean)
    n, d = x.shape
    config = {
        "data": args.data, "p0": args.p0, "p1": args.p1, "score": args.score,
        "alpha": args.alpha, "perm": args.perm,
        "diff": args.diff, "demean": args.demean,
    }
    if args.score == "gaussian":
        if args.perm is not None:
            raise InputError("the gaussian test has no permutational variant")
        out = gaussian_test_order(x, args.p0, args.p1, alpha=args.alpha)
        _emit("test-order", config, None, out.to_dict())
        return 0
    seed = _seed_or_fresh(args)
    grid = _grid_for(args, n, d, seed)
    out = test_order(
        x, args.p0, args.p1, _score_spec(args.score), grid,
        alpha=args.alpha, M=args.perm, seed=seed if args.perm else None,
    )
    _emit("test-order", config, seed, out.to_dict())
    return 0


def cmd_identify(args) -> int:
    x = ingest_csv(args.data, diff=args.diff, demean=args.demean)
    n, d = x.shape
    config = {
        "data": args.data, "score": args.score, "alpha": args.alpha,
        "max_order": args.max_order, "perm": args.perm,
        "diff": args.diff, "demean": args.demean,
    }
    seed = None
    try:
        if args.score == "gaussian":
            if args.perm is not None:
                raise InputError("the gaussian test has no permutational variant")
            trace = identify_order(
                x, "gaussian", alpha=args.alpha, max_order=args.max_order
            )
        else:
            seed = _seed_or_fresh(args)
            grid = _grid_for(args, n, d, seed)
            trace = identify_order(
                x, _score_spec(args.score), alpha=args.alpha,
                max_order=args.max_order, M=args.perm, seed=seed, grid=grid,
            )
    except IdentificationError as exc:
        _emit("identify", config, seed, exc.trace.to_dict())
        raise
    _emit("identify", config, seed, trace.to_dict())
    return 0


def cmd_simulate(args) -> int:
    seed = _seed_or_fresh(args)
    d = args.d
    if args.theta is not None:
        theta = np.asarray(_floats(args.theta))
        p = args.p if args.p is not None else theta.size // (d * d)
        model = VarModel(d=d, p0=p, p1=p, theta=args.ell * theta)
    else:
        model = VarModel(d=d, p0=1, p1=1, theta=np.zeros(d * d))
    if args.innovations in ("normal", "t3", "mixture", "skewt3"):
        innov = innovation_preset(args.innovations, d)
    elif args.innovations == "student":
        innov = InnovationModel.student(d, args.nu)
    else:
        raise InputError(f"unknown innovations {args.innovations!r}")
    eps = sample_innovations(innov, args.n + 200, d, derive_seed(seed, 2))
    x = simulate_var(model, args.n, eps, burn_in=200)
    if args.contaminate_fraction is not None:
        if args.contaminate_size is None:
            raise InputError("--contaminate-size required with --contaminate-fraction")
        spec = ContaminationSpec(args.contaminate_fraction, _floats(args.contaminate_size))
        x = contaminate(x, spec)
    _write_matrix_csv(args.out, x)
    _emit(
        "simulate",
        {
            "n": args.n, "d": d, "p": model.p0, "ell": args.ell,
            "innovations": args.innovations, "out": args.out,
        },
        seed,
        {"rows": int(x.shape[0]), "out": args.out},
    )
    return 0


def cmd_mc(args) -> int:
    config = parse_config(args.config)
    if args.threads is not None:
        config = dataclasses.replace(config, threads=args.threads)
    report = run_study(config)
    out_csv = config.out or "study.csv"
    sidecar = out_csv[:-4] + ".json" if out_csv.endswith(".csv") else out_csv + ".json"
    with open(out_csv, "w", encoding="utf-8") as fh:
        fh.write(report.to_csv())
    with open(sidecar, "w", encoding="utf-8") as fh:
        json.dump(_sanitize(report.to_json_dict()), fh, indent=2, allow_nan=False)
        fh.write("\n")
    _emit(
        "mc",
        {"config": args.config, "out": out_csv, "sidecar": sidecar},
        config.seed,
        {"task": config.task, "cells": len(config.tests) * len(config.ell)},
    )
    return 0


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rankvar",
        description="Center-outward rank tests for VAR models",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_data_flags(p):
        p.add_argument("--data", required=True, help="input CSV (n rows, d columns)")
        p.add_argument("--diff", action="store_true", help="first-difference the series")
        p.add_argument("--demean", action="store_true", help="subtract column means")

    def add_grid_flags(p):
        p.add_argument("--nr", type=int, help="override: radius count n_R")
        p.add_argument("--ns", type=int, help="override: directions per sphere n_S")
        p.add_argument("--n0", type=int, help="override: origin copies n_0")

    def add_seed(p):
        p.add_argument("--seed", type=int, help="RNG seed (entropy-derived if absent)")

    p = sub.add_parser("grid", help="emit a center-outward grid as CSV")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    add_grid_flags(p)
    add_seed(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_grid)

    p = sub.add_parser("ranks", help="center-outward ranks, signs, and F values")
    add_data_flags(p)
    p.add_argument("--grid", help="gridpoint CSV (defaults to an internal grid)")
    add_seed(p)
    p.add_argument("--out", required=True, help="output JSON path")
    p.set_defaults(func=cmd_ranks)

    p = sub.add_parser("fit", help="constrained least-squares VAR fit")
    add_data_flags(p)
    p.add_argument("--p0", type=int, required=True)
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("test-spec", help="test a fully specified null parameter")
    add_data_flags(p)
    p.add_argument("--theta0", required=True, help="null parameter JSON file")
    p.add_argument("--p1", type=int, help="alternative order (default: theta0's p)")
    p.add_argument("--score", required=True,
                   choices=["sign", "spearman", "vdw", "gaussian"])
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--perm", type=int, metavar="M",
                   help="permutational calibration with M permutations")
    p.add_argument("--sphere", action="store_true",
                   help="use the n_S = n sphere grid (sign score only)")
    add_grid_flags(p)
    add_seed(p)
    p.set_defaults(func=cmd_test_spec)

    p = sub.add_parser("test-order", help="test VAR order p0 against p1")
    add_data_flags(p)
    p.add_argument("--p0", type=int, required=True)
    p.add_argument("--p1", type=int, required=True)
    p.add_argument("--score", required=True,
                   choices=["sign", "spearman", "vdw", "gaussian"])
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--perm", type=int, metavar="M")
    p.add_argument("--sphere", action="store_true")
    add_grid_flags(p)
    add_seed(p)
    p.set_defaults(func=cmd_test_order)

    p = sub.add_parser("identify", help="sequential VAR order identification")
    add_data_flags(p)
    p.add_argument("--score", required=True,
                   choices=["sign", "spearman", "vdw", "gaussian"])
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--max-order", type=int, dest="max_order")
    p.add_argument("--perm", type=int, metavar="M")
    p.add_argument("--sphere", action="store_true")
    add_grid_flags(p)
    add_seed(p)
    p.set_defaults(func=cmd_identify)

    p = sub.add_parser("simulate", help="simulate a VAR sample to CSV")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--p", type=int)
    p.add_argument("--theta", help="comma-separated vec(A_1),...,vec(A_p)")
    p.add_argument("--ell", type=float, default=1.0,
                   help="scale multiplier on the coefficient matrices")
    p.add_argument("--innovations", default="normal",
                   choices=["normal", "t3", "mixture", "skewt3", "student"])
    p.add_argument("--nu", type=float, default=3.0)
    p.add_argument("--contaminate-fraction", type=float, dest="contaminate_fraction")
    p.add_argument("--contaminate-size", dest="contaminate_size",
                   help="comma-separated outlier vector")
    add_seed(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("mc", help="run a Monte Carlo study from a config file")
    p.add_argument("--config", required=True)
    p.add_argument("--threads", type=int)
    p.set_defaults(func=cmd_mc)

    return parser


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
