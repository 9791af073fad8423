"""Innovation samplers, additive-outlier contamination, and the study engine.

The engine reruns the package's own tests over simulated VAR data at
configurable scale: rejection frequencies of white-noise tests across a
family of alternatives l * A, or under-/correct/over-identification counts
of the sequential order selection.  Replications carry deterministically
derived RNG streams, so a study is bit-reproducible for a given seed no
matter how many workers share it.  All tests of one simulated series couple
the same residuals to the same grids, so each optimal coupling is solved
once per series and shared by the tests; nothing is shared across series.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from ._errors import InputError, NumericalError
from ._rng import derive_seed, stream
from .gaussian_tests import gaussian_test_order
from .grid import BallGrid, factorize, make_grid, make_sphere_grid
from .order_id import identify_order
from .rank_tests import test_order
from .scores import ScoreSpec, chisq_quantile
from .transport import _shared_couplings
from .var_algebra import VarModel, simulate_var

__all__ = [
    "InnovationModel",
    "ContaminationSpec",
    "StudyConfig",
    "StudyReport",
    "sample_innovations",
    "innovation_preset",
    "contaminate",
    "parse_config",
    "run_study",
]

_BURN_IN = 200

# Stable integer ids for seed derivation; never reorder or reuse.
_STREAM_IDS = {
    ("sign", "ball"): 1,
    ("spearman", "ball"): 2,
    ("vdw", "ball"): 3,
    ("sign", "sphere"): 4,
}

# Every valid test name: (score, grid kind, permutational?).
_TESTS = {"gaussian": ("gaussian", "ball", False)} | {
    (score if kind == "ball" else f"{score}_{kind}") + suffix: (score, kind, perm)
    for score, kind in _STREAM_IDS
    for suffix, perm in (("", False), ("_bc", True))
}


def _spd_check(sigma: np.ndarray, what: str) -> np.ndarray:
    """Symmetrize via (S + S')/2 and require positive definiteness."""
    s = np.asarray(sigma, dtype=float)
    if s.ndim != 2 or s.shape[0] != s.shape[1]:
        raise InputError(f"{what} must be square, got shape {s.shape}")
    s = (s + s.T) / 2.0
    w = np.linalg.eigvalsh(s)
    if w[0] <= 0:
        raise InputError(f"{what} is not positive definite after symmetrization")
    return s


@dataclass(frozen=True)
class InnovationModel:
    """An i.i.d. innovation distribution.

    Four kinds are supported: gaussian(sigma), student(nu) (spherical),
    gaussian mixture(weights, means, covariances), and the skew-t of
    Azzalini and Capitanio (xi, sigma, alpha, nu).  Covariance-like inputs
    are symmetrized by (S + S')/2 and must be positive definite.
    """

    kind: str
    d: int
    sigma: np.ndarray | None = field(default=None, repr=False)
    nu: float | None = None
    weights: np.ndarray | None = field(default=None, repr=False)
    means: np.ndarray | None = field(default=None, repr=False)
    covs: np.ndarray | None = field(default=None, repr=False)
    xi: np.ndarray | None = field(default=None, repr=False)
    alpha: np.ndarray | None = field(default=None, repr=False)

    @classmethod
    def gaussian(cls, d: int, sigma=None) -> "InnovationModel":
        s = np.eye(d) if sigma is None else _spd_check(sigma, "sigma")
        if s.shape[0] != d:
            raise InputError(f"sigma is {s.shape[0]}x{s.shape[0]}, d={d}")
        return cls(kind="gaussian", d=d, sigma=s)

    @classmethod
    def student(cls, d: int, nu: float) -> "InnovationModel":
        if nu <= 0:
            raise InputError(f"need nu > 0, got {nu}")
        return cls(kind="student", d=d, nu=float(nu))

    @classmethod
    def mixture(cls, weights, means, covs) -> "InnovationModel":
        w = np.asarray(weights, dtype=float)
        mu = np.asarray(means, dtype=float)
        if w.ndim != 1 or np.any(w <= 0) or abs(w.sum() - 1.0) > 1e-12:
            raise InputError("mixture weights must be positive and sum to 1")
        if mu.ndim != 2 or mu.shape[0] != w.size:
            raise InputError("means must be (k, d) matching the weights")
        cv = np.stack([_spd_check(c, f"covariance {i + 1}") for i, c in enumerate(covs)])
        if cv.shape[0] != w.size or cv.shape[1] != mu.shape[1]:
            raise InputError("covariances must be (k, d, d) matching means")
        return cls(kind="mixture", d=mu.shape[1], weights=w, means=mu, covs=cv)

    @classmethod
    def skew_t(cls, xi, sigma, alpha, nu: float) -> "InnovationModel":
        s = _spd_check(sigma, "sigma")
        x = np.asarray(xi, dtype=float).reshape(-1)
        a = np.asarray(alpha, dtype=float).reshape(-1)
        if x.size != s.shape[0] or a.size != s.shape[0]:
            raise InputError("xi and alpha must match sigma's dimension")
        if nu <= 0:
            raise InputError(f"need nu > 0, got {nu}")
        return cls(kind="skew_t", d=s.shape[0], sigma=s, nu=float(nu), xi=x, alpha=a)


def innovation_preset(name: str, d: int) -> InnovationModel:
    """Named innovation densities of the simulation designs.

    "normal" and "t3" are spherical at any d; "mixture" and "skewt3" carry
    the fixed bivariate and trivariate parameter sets.
    """
    if name == "normal":
        return InnovationModel.gaussian(d)
    if name == "t3":
        return InnovationModel.student(d, 3.0)
    if name == "mixture":
        if d == 2:
            return InnovationModel.mixture(
                weights=(0.375, 0.375, 0.25),
                means=[(-5.0, 0.0), (5.0, 0.0), (0.0, 0.0)],
                covs=[
                    [[7.0, 5.0], [5.0, 5.0]],
                    [[7.0, -6.0], [-6.0, 6.0]],
                    [[4.0, 0.0], [0.0, 3.0]],
                ],
            )
        if d == 3:
            return InnovationModel.mixture(
                weights=(0.375, 0.375, 0.25),
                means=[(-5.0, -5.0, 0.0), (5.0, 5.0, 2.0), (0.0, 0.0, -3.0)],
                covs=[
                    [[7.0, 3.0, 5.0], [3.0, 6.0, 1.0], [5.0, 1.0, 7.0]],
                    [[7.0, -5.0, -3.0], [-5.0, 7.0, 4.0], [-3.0, 4.0, 5.0]],
                    [[4.0, 0.0, 0.0], [0.0, 3.0, 0.0], [0.0, 0.0, 1.0]],
                ],
            )
        raise InputError(f"mixture preset defined for d in (2, 3), got d={d}")
    if name == "skewt3":
        if d == 2:
            return InnovationModel.skew_t(
                xi=(0.0, 0.0),
                sigma=[[7.0, 4.0], [4.0, 5.0]],
                alpha=(5.0, 2.0),
                nu=3.0,
            )
        if d == 3:
            return InnovationModel.skew_t(
                xi=(0.0, 0.0, 0.0),
                sigma=[[7.0, -5.0, -3.0], [-5.0, 7.0, 4.0], [-3.0, 4.0, 5.0]],
                alpha=(7.0, 5.0, 3.0),
                nu=3.0,
            )
        raise InputError(f"skewt3 preset defined for d in (2, 3), got d={d}")
    raise InputError(f"unknown innovation preset {name!r}")


def _as_generator(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return stream(int(seed), 2)


def sample_innovations(model: InnovationModel, n: int, d: int, seed) -> np.ndarray:
    """n i.i.d. draws from the innovation model.

    ``seed`` is an integer (expanded into a fresh stream) or an existing
    Generator.  Draw order within each kind is fixed, so equal seeds give
    equal samples.
    """
    if n < 1:
        raise InputError(f"need n >= 1, got {n}")
    if d != model.d:
        raise InputError(f"model has d={model.d}, requested d={d}")
    rng = _as_generator(seed)

    if model.kind == "gaussian":
        root = np.linalg.cholesky(model.sigma)
        return rng.standard_normal((n, d)) @ root.T
    if model.kind == "student":
        g = rng.standard_normal((n, d))
        v = rng.chisquare(model.nu, n)
        return g / np.sqrt(v / model.nu)[:, None]
    if model.kind == "mixture":
        comp = rng.choice(model.weights.size, size=n, p=model.weights)
        g = rng.standard_normal((n, d))
        out = np.empty((n, d))
        for k in range(model.weights.size):
            rows = comp == k
            root = np.linalg.cholesky(model.covs[k])
            out[rows] = model.means[k] + g[rows] @ root.T
        return out
    if model.kind == "skew_t":
        w = np.sqrt(np.diag(model.sigma))
        omega_bar = model.sigma / np.outer(w, w)
        delta = omega_bar @ model.alpha / math.sqrt(
            1.0 + float(model.alpha @ omega_bar @ model.alpha)
        )
        resid = omega_bar - np.outer(delta, delta)
        root = np.linalg.cholesky(resid)
        u0 = np.abs(rng.standard_normal(n))
        u1 = rng.standard_normal((n, d)) @ root.T
        y = u0[:, None] * delta + u1
        v = rng.chisquare(model.nu, n)
        x = y / np.sqrt(v / model.nu)[:, None]
        return model.xi + x * w
    raise InputError(f"unknown innovation kind {model.kind!r}")


@dataclass(frozen=True)
class ContaminationSpec:
    """Additive outliers at equally spaced positions.

    floor(n * fraction) observations, starting at index floor(1/(2 fraction))
    with spacing floor(1/fraction), are shifted by the vector ``size``; the
    whole series is demeaned afterward.
    """

    fraction: float
    size: np.ndarray = field(repr=False)

    def __post_init__(self):
        if not 0.0 < self.fraction < 0.5:
            raise InputError(f"need 0 < fraction < 0.5, got {self.fraction}")
        size = np.asarray(self.size, dtype=float).reshape(-1)
        if not np.all(np.isfinite(size)):
            raise InputError("outlier size contains non-finite entries")
        object.__setattr__(self, "size", size)

    def positions(self, n: int) -> np.ndarray:
        count = int(np.floor(n * self.fraction))
        start = int(np.floor(1.0 / (2.0 * self.fraction)))
        spacing = int(np.floor(1.0 / self.fraction))
        pos = start + spacing * np.arange(count)
        if count and pos[-1] >= n:
            raise InputError(
                f"outlier position {pos[-1]} falls outside a series of length {n}"
            )
        return pos


def contaminate(x: np.ndarray, spec: ContaminationSpec) -> np.ndarray:
    """Apply additive outliers, then demean the result."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 2:
        raise InputError(f"series must be 2-d, got shape {x.shape}")
    if spec.size.size != x.shape[1]:
        raise InputError(
            f"outlier size has {spec.size.size} entries for d={x.shape[1]}"
        )
    out = x.copy()
    out[spec.positions(x.shape[0])] += spec.size
    out -= out.mean(axis=0)
    return out


@dataclass(frozen=True)
class StudyConfig:
    """Configuration of one Monte Carlo study."""

    d: int
    p: int
    theta: np.ndarray = field(repr=False)
    ell: tuple[float, ...] = (0.0,)
    innovations: InnovationModel | None = None
    tests: tuple[str, ...] = ("sign",)
    n: int = 300
    N: int = 100
    M: int | None = None
    alpha: float = 0.05
    seed: int = 0
    out: str | None = None
    task: str = "reject"
    contamination: ContaminationSpec | None = None
    threads: int | None = None
    max_order: int | None = None
    grid_override: tuple[int, int, int] | None = None

    def __post_init__(self):
        theta = np.asarray(self.theta, dtype=float).reshape(-1)
        if theta.size != self.p * self.d ** 2:
            raise InputError(
                f"dgp.theta has {theta.size} entries, expected p*d^2 = "
                f"{self.p * self.d ** 2}"
            )
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "ell", tuple(float(e) for e in self.ell))
        object.__setattr__(self, "tests", tuple(self.tests))
        if self.task not in ("reject", "identify"):
            raise InputError(f"task must be 'reject' or 'identify', got {self.task!r}")
        if self.N < 1:
            raise InputError(f"need N >= 1, got {self.N}")
        if self.p < 1:
            raise InputError(f"need dgp.p >= 1, got {self.p}")
        if not self.tests:
            raise InputError("no tests requested")
        for name in self.tests:
            _split_test_name(name)
        if self.innovations is not None and self.innovations.d != self.d:
            raise InputError("innovation model dimension does not match dgp.d")


def _split_test_name(name: str) -> tuple[str, str, bool]:
    """(score, grid kind, permutational?) from a test name."""
    try:
        return _TESTS[name]
    except KeyError:
        raise InputError(f"unknown test {name!r}; valid tests: {', '.join(_TESTS)}") from None


_CONFIG_KEYS = {
    "dgp.d", "dgp.p", "dgp.theta", "dgp.ell",
    "innovations.kind", "innovations.nu", "innovations.sigma",
    "innovations.xi", "innovations.alpha",
    "tests", "n", "N", "M", "alpha", "seed", "out", "task",
    "contamination.fraction", "contamination.size", "threads", "max_order",
    "grid.nr", "grid.ns", "grid.n0",
}


def _floats(text: str) -> list[float]:
    """The comma- or space-separated numbers of ``text``; at least one."""
    try:
        values = [float(tok) for tok in text.replace(",", " ").split()]
    except ValueError as exc:
        raise InputError(f"cannot parse numbers from {text!r}") from exc
    if not values:
        raise InputError(f"no numbers in {text!r}")
    return values


def parse_config(path: str) -> StudyConfig:
    """Read a flat key = value study configuration file.

    Lines are ``key = value`` with ``#`` comments; list values are
    comma-separated.  Innovation parameters may be given inline (sigma
    row-major, nu, xi, alpha) or left to the named presets.
    """
    raw: dict[str, str] = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                text = line.split("#", 1)[0].strip()
                if not text:
                    continue
                if "=" not in text:
                    raise InputError(f"{path}:{lineno}: expected key = value")
                key, value = (part.strip() for part in text.split("=", 1))
                if key not in _CONFIG_KEYS:
                    raise InputError(f"{path}:{lineno}: unknown key {key!r}")
                if key in raw:
                    raise InputError(f"{path}:{lineno}: duplicate key {key!r}")
                raw[key] = value
    except OSError as exc:
        raise InputError(f"cannot read config {path}: {exc}") from exc

    def need(key: str) -> str:
        if key not in raw:
            raise InputError(f"config is missing required key {key!r}")
        return raw[key]

    def number(kind, key: str, default: str | None = None):
        """``kind`` (int or float) of the key's value, or of ``default`` when
        the key is absent; without a default the key is required."""
        text = need(key) if default is None else raw.get(key, default)
        try:
            return kind(text)
        except ValueError as exc:
            raise InputError(f"{key} = {text!r} is not a valid {kind.__name__}") from exc

    d = number(int, "dgp.d")
    p = number(int, "dgp.p")
    theta = _floats(need("dgp.theta"))
    ell = _floats(raw.get("dgp.ell", "1"))
    n = number(int, "n")
    big_n = number(int, "N")
    tests = tuple(tok.strip() for tok in need("tests").split(",") if tok.strip())

    kind = need("innovations.kind")
    if kind in ("normal", "t3", "mixture", "skewt3"):
        innov = innovation_preset(kind, d)
    elif kind == "gaussian":
        sigma = None
        if "innovations.sigma" in raw:
            vals = _floats(raw["innovations.sigma"])
            if len(vals) != d * d:
                raise InputError("innovations.sigma must have d*d entries (row-major)")
            sigma = np.asarray(vals).reshape(d, d)
        innov = InnovationModel.gaussian(d, sigma)
    elif kind == "student":
        innov = InnovationModel.student(d, number(float, "innovations.nu", "3"))
    elif kind == "skewt":
        vals = _floats(need("innovations.sigma"))
        if len(vals) != d * d:
            raise InputError("innovations.sigma must have d*d entries (row-major)")
        innov = InnovationModel.skew_t(
            xi=_floats(raw.get("innovations.xi", ",".join(["0"] * d))),
            sigma=np.asarray(vals).reshape(d, d),
            alpha=_floats(need("innovations.alpha")),
            nu=number(float, "innovations.nu", "3"),
        )
    else:
        raise InputError(f"unknown innovations.kind {kind!r}")

    contamination = None
    if "contamination.fraction" in raw or "contamination.size" in raw:
        contamination = ContaminationSpec(
            fraction=number(float, "contamination.fraction"),
            size=_floats(need("contamination.size")),
        )

    grid_override = None
    grid_keys = [k for k in ("grid.nr", "grid.ns", "grid.n0") if k in raw]
    if grid_keys:
        if len(grid_keys) != 3:
            raise InputError("grid.nr, grid.ns, grid.n0 must be given together")
        grid_override = tuple(number(int, k) for k in ("grid.nr", "grid.ns", "grid.n0"))

    return StudyConfig(
        d=d,
        p=p,
        theta=np.asarray(theta),
        ell=tuple(ell),
        innovations=innov,
        tests=tests,
        n=n,
        N=big_n,
        M=number(int, "M") if "M" in raw else None,
        alpha=number(float, "alpha", "0.05"),
        seed=number(int, "seed"),
        out=raw.get("out"),
        task=raw.get("task", "reject"),
        contamination=contamination,
        threads=number(int, "threads") if "threads" in raw else None,
        max_order=number(int, "max_order") if "max_order" in raw else None,
        grid_override=grid_override,
    )


def _study_grids(config: StudyConfig) -> dict[str, BallGrid]:
    """The shared grids of a study, keyed by kind."""
    grids: dict[str, BallGrid] = {}
    kinds = {
        _split_test_name(name)[1]
        for name in config.tests
        if _split_test_name(name)[0] != "gaussian"
    }
    if "ball" in kinds:
        fact = factorize(config.n, config.d, override=config.grid_override)
        grids["ball"] = make_grid(fact, config.d, seed=derive_seed(config.seed, 3))
    if "sphere" in kinds:
        grids["sphere"] = make_sphere_grid(
            config.n, config.d, seed=derive_seed(config.seed, 4)
        )
    return grids


def _replicate(config: StudyConfig, grids: dict[str, BallGrid], rep: int) -> list:
    """All cell results of one replication.

    Returns records (test, ell index, value); value is a bool (reject), an
    int (selected order), or None on a numerical failure.
    """
    d, p = config.d, config.p
    records = []
    for ell_idx, ell in enumerate(config.ell):
        model = VarModel(d=d, p0=p, p1=p, theta=ell * config.theta)
        rng = stream(config.seed, 101, rep, ell_idx)
        eps = sample_innovations(config.innovations, config.n + _BURN_IN, d, rng)
        try:
            x = simulate_var(model, config.n, eps, burn_in=_BURN_IN)
        except NumericalError:
            records.extend((t, ell_idx, None) for t in config.tests)
            continue
        if config.contamination is not None:
            x = contaminate(x, config.contamination)

        cell = _reject_cell if config.task == "reject" else _identify_cell
        with _shared_couplings():
            records.extend(cell(config, grids, rep, ell_idx, x))
    return records


def _reject_cell(config, grids, rep, ell_idx, x) -> list:
    """White-noise test decisions for every requested test on one series."""
    records = []
    groups: dict[tuple[str, str], list[str]] = {}
    for name in config.tests:
        score, kind, _ = _split_test_name(name)
        groups.setdefault((score, kind), []).append(name)

    for (score, kind), names in groups.items():
        want_perm = any(_split_test_name(t)[2] for t in names)
        try:
            if score == "gaussian":
                out = gaussian_test_order(x, 0, config.p, alpha=config.alpha)
            else:
                seed_t = derive_seed(
                    config.seed, 7, rep, ell_idx, _STREAM_IDS[(score, kind)]
                )
                out = test_order(
                    x,
                    0,
                    config.p,
                    ScoreSpec(kind=score),
                    grids[kind],
                    alpha=config.alpha,
                    M=config.M if want_perm else None,
                    seed=seed_t,
                )
        except NumericalError:
            records.extend((t, ell_idx, None) for t in names)
            continue
        asym_cv = float(chisq_quantile(out.df, 1.0 - config.alpha))
        for name in names:
            perm = _split_test_name(name)[2]
            records.append(
                (name, ell_idx, out.reject if perm else out.statistic > asym_cv)
            )
    return records


def _identify_cell(config, grids, rep, ell_idx, x) -> list:
    """Selected orders for every requested test on one series."""
    records = []
    for name in config.tests:
        score, kind, perm = _split_test_name(name)
        try:
            if score == "gaussian":
                trace = identify_order(
                    x,
                    "gaussian",
                    alpha=config.alpha,
                    max_order=config.max_order,
                    seed=derive_seed(config.seed, 7, rep, ell_idx, 0),
                )
            else:
                seed_t = derive_seed(
                    config.seed, 7, rep, ell_idx, _STREAM_IDS[(score, kind)]
                )
                trace = identify_order(
                    x,
                    ScoreSpec(kind=score),
                    alpha=config.alpha,
                    max_order=config.max_order,
                    M=config.M if perm else None,
                    seed=seed_t,
                    grid=grids[kind],
                )
            records.append((name, ell_idx, trace.selected_order))
        except NumericalError:
            records.append((name, ell_idx, None))
    return records


@dataclass(frozen=True)
class StudyReport:
    """Aggregated study results.

    ``cells[test][ell_index]`` holds counts and frequencies; failures count
    replications whose value was unavailable (excluded from denominators).
    """

    config: StudyConfig
    cells: dict

    def to_csv(self) -> str:
        lines = []
        if self.config.task == "reject":
            header = ["test"] + [_format_num(e) for e in self.config.ell]
            lines.append(",".join(header))
            for test in self.config.tests:
                row = [test]
                for idx in range(len(self.config.ell)):
                    cell = self.cells[test][idx]
                    row.append(
                        "NA" if cell["valid"] == 0 else f"{cell['frequency']:.6f}"
                    )
                lines.append(",".join(row))
        else:
            lines.append("test,ell,under,correct,over")
            for test in self.config.tests:
                for idx, ell in enumerate(self.config.ell):
                    cell = self.cells[test][idx]
                    lines.append(
                        f"{test},{_format_num(ell)},{cell['under']},"
                        f"{cell['correct']},{cell['over']}"
                    )
        return "\n".join(lines) + "\n"

    def to_json_dict(self) -> dict:
        cfg = self.config
        payload = {
            "schema": "rankvar/study/1",
            "task": cfg.task,
            "n": cfg.n,
            "N": cfg.N,
            "M": cfg.M,
            "alpha": cfg.alpha,
            "seed": cfg.seed,
            "d": cfg.d,
            "p": cfg.p,
            "theta": [float(v) for v in cfg.theta],
            "ell": list(cfg.ell),
            "tests": list(cfg.tests),
            "innovations": cfg.innovations.kind if cfg.innovations else None,
            "cells": {
                test: [self.cells[test][i] for i in range(len(cfg.ell))]
                for test in cfg.tests
            },
        }
        if cfg.contamination is not None:
            payload["contamination"] = {
                "fraction": cfg.contamination.fraction,
                "size": [float(v) for v in cfg.contamination.size],
            }
        return payload


def _format_num(x: float) -> str:
    return f"{x:g}"


def _binomial_se(k: int, m: int) -> float:
    if m == 0:
        return float("nan")
    f = k / m
    return math.sqrt(f * (1.0 - f) / m)


def run_study(config: StudyConfig) -> StudyReport:
    """Run the full Monte Carlo study described by the config.

    Replications are split across processes when ``threads`` exceeds one
    (None means one); results are identical for any worker count because
    each replication derives its randomness from (seed, replication index)
    alone.  The tests of one simulated series share its optimal couplings
    (see the module docstring), which changes no result.
    """
    if config.innovations is None:
        raise InputError("config has no innovation model")
    grids = _study_grids(config)
    threads = 1 if config.threads is None else config.threads
    if threads < 1:
        raise InputError(f"need threads >= 1, got {threads}")

    all_records: list = []
    if threads == 1:
        for rep in range(config.N):
            all_records.extend(_replicate(config, grids, rep))
    else:
        with ProcessPoolExecutor(max_workers=threads) as pool:
            for chunk in pool.map(
                _replicate,
                (config for _ in range(config.N)),
                (grids for _ in range(config.N)),
                range(config.N),
                chunksize=max(1, config.N // (8 * threads)),
            ):
                all_records.extend(chunk)

    by_cell: dict = {}
    for test, idx, value in all_records:
        by_cell.setdefault((test, idx), []).append(value)
    cells: dict = {test: {} for test in config.tests}
    for test in config.tests:
        for idx in range(len(config.ell)):
            values = by_cell[test, idx]
            failures = sum(1 for v in values if v is None)
            good = [v for v in values if v is not None]
            if config.task == "reject":
                k = sum(1 for v in good if v)
                cells[test][idx] = {
                    "rejections": k,
                    "valid": len(good),
                    "failures": failures,
                    "frequency": (k / len(good)) if good else float("nan"),
                    "se": _binomial_se(k, len(good)),
                }
            else:
                under = sum(1 for v in good if v < config.p)
                correct = sum(1 for v in good if v == config.p)
                over = sum(1 for v in good if v > config.p)
                cells[test][idx] = {
                    "under": under,
                    "correct": correct,
                    "over": over,
                    "valid": len(good),
                    "failures": failures,
                    "correct_rate": (correct / len(good)) if good else float("nan"),
                    "se": _binomial_se(correct, len(good)),
                }
    return StudyReport(config=config, cells=cells)
