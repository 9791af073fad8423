"""Sequential VAR order identification.

The order is identified by testing p0 = 0, 1, 2, ... against p1 = p0 + 1
and stopping at the first non-rejection.  Every step reuses the same grid
and the same seed, so the step at p0 = 0 reproduces the standalone
white-noise test bit for bit, and the steps run in one series scope, so
they share one permutation draw.  Per-step levels are not multiplicity
adjusted; the sequential procedure controls the under-identification
probability at alpha asymptotically.

:func:`_order_test` alone picks an order test's family, the rank test of a
ScoreSpec or the Gaussian benchmark, for this module, the CLI and the study
engine.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._errors import InputError, NumericalError
from ._rng import fresh_seed
from .gaussian_tests import gaussian_test_order
from .grid import BallGrid, _seeded_grid
from .rank_tests import TestOutcome, test_order
from .scores import ScoreSpec
from .var_algebra import _series, _series_scope

__all__ = ["IdentificationTrace", "IdentificationError", "identify_order"]


@dataclass(frozen=True)
class IdentificationTrace:
    """Record of a sequential identification run.

    ``steps`` holds (p0, outcome) pairs for p0 = 0, 1, ... in order;
    ``selected_order`` is the first non-rejected p0, or ``max_order`` with
    ``truncated`` set when every test up to the cap rejected.
    """

    steps: tuple[tuple[int, TestOutcome], ...]
    selected_order: int
    max_order: int
    truncated: bool = False

    def to_dict(self) -> dict:
        return {
            "selected_order": int(self.selected_order),
            "max_order": int(self.max_order),
            "truncated": bool(self.truncated),
            "steps": [
                {"p0": int(p0), **outcome.to_dict()} for p0, outcome in self.steps
            ],
        }


class IdentificationError(NumericalError):
    """A step failed numerically; carries the partial trace."""

    def __init__(self, message: str, trace: IdentificationTrace):
        super().__init__(message)
        self.trace = trace


def _order_test(x, p0, p1, spec, grid, alpha, M, seed) -> TestOutcome:
    """Order test of p0 against p1 in the family of ``spec``: the rank test
    for a ScoreSpec, the Gaussian test for "gaussian", which refuses a grid
    and permutations and leaves the seed unused."""
    if isinstance(spec, ScoreSpec):
        return test_order(x, p0, p1, spec, grid, alpha=alpha, M=M, seed=seed)
    if not isinstance(spec, str) or spec != "gaussian":
        raise InputError(f"spec must be a ScoreSpec or 'gaussian', got {spec!r}")
    if M is not None:
        raise InputError("the Gaussian test has no permutational variant")
    if grid is not None:
        raise InputError("the Gaussian test takes no grid")
    return gaussian_test_order(x, p0, p1, alpha=alpha)


def identify_order(
    x,
    spec,
    alpha: float = 0.05,
    max_order: int | None = None,
    M: int | None = None,
    seed: int | None = None,
    grid: BallGrid | None = None,
) -> IdentificationTrace:
    """Identify the VAR order by sequential order tests.

    Parameters
    ----------
    x : (n, d) array
        Observed series.
    spec : ScoreSpec or "gaussian"
        Rank score to use, or the Gaussian benchmark (which admits no
        permutational calibration).
    alpha : float
        Per-step level.
    max_order : int, optional
        Safety cap; defaults to floor(n^(1/3)).
    M : int, optional
        Permutation count for rank scores; asymptotic calibration if None.
    seed : int, optional
        Seed shared by every step (and by the grid construction when no
        grid is supplied); entropy-derived if None.  The Gaussian test
        draws nothing and leaves it unused.
    grid : BallGrid, optional
        Grid for the rank couplings; built from factorize(n, d) by default.
        The Gaussian test refuses one.

    Raises
    ------
    IdentificationError
        When a step fails numerically; the partial trace rides along on the
        exception's ``trace`` attribute.
    """
    x = _series(x)
    n, d = x.shape
    if max_order is None:
        max_order = int(np.floor(n ** (1.0 / 3.0)))
    if max_order < 0:
        raise InputError(f"need max_order >= 0, got {max_order}")
    if n <= d * max_order + 10:
        raise InputError(
            f"need n > d*max_order + 10 = {d * max_order + 10} for the largest "
            f"fit, got n={n}"
        )

    if isinstance(spec, ScoreSpec):
        if seed is None:
            seed = fresh_seed()
        if grid is None:
            grid = _seeded_grid(n, d, seed)

    # The steps share one permutation draw in a scope: run_study's, or else
    # one of their own.
    with _series_scope():
        steps: list[tuple[int, TestOutcome]] = []
        for p0 in range(0, max_order + 1):
            try:
                outcome = _order_test(x, p0, p0 + 1, spec, grid, alpha, M, seed)
            except NumericalError as exc:
                partial = IdentificationTrace(
                    steps=tuple(steps),
                    selected_order=p0,
                    max_order=max_order,
                    truncated=True,
                )
                raise IdentificationError(
                    f"order test at p0={p0} failed: {exc}", partial
                ) from exc
            steps.append((p0, outcome))
            if not outcome.reject:
                return IdentificationTrace(
                    steps=tuple(steps),
                    selected_order=p0,
                    max_order=max_order,
                    truncated=False,
                )
        return IdentificationTrace(
            steps=tuple(steps),
            selected_order=max_order,
            max_order=max_order,
            truncated=True,
        )
