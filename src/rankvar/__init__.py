"""Center-outward rank tests for vector autoregressive models.

The package builds measure-transportation ranks and signs from a regular
grid over the unit ball, turns them into score-based cross-covariance
statistics, and uses those to test a specified VAR null, test the model
order, and identify the order sequentially.  Gaussian benchmark tests,
innovation samplers, and a Monte Carlo study driver round out the toolkit.
"""

from ._errors import InputError, NumericalError
from .grid import (
    BallGrid,
    GridFactorization,
    factorize,
    make_grid,
    make_sphere_grid,
)
from .transport import Coupling, coupling_cost, solve_coupling
from .scores import (
    ScoreSpec,
    centering,
    chisq_quantile,
    chisq_sf,
    grid_scores,
    score_covariance,
)
from .var_algebra import (
    OperatorMatrices,
    VarModel,
    build_operator_matrices,
    fit_constrained_ls,
    residuals,
    simulate_var,
    unvec,
    vec,
)
from .rank_tests import TestOutcome, test_order, test_specified
from .gaussian_tests import gaussian_test_order, gaussian_test_specified
from .order_id import IdentificationError, IdentificationTrace, identify_order
from .simulation import (
    ContaminationSpec,
    InnovationModel,
    StudyConfig,
    StudyReport,
    contaminate,
    innovation_preset,
    parse_config,
    run_study,
    sample_innovations,
)

__all__ = [
    "BallGrid",
    "ContaminationSpec",
    "Coupling",
    "GridFactorization",
    "IdentificationError",
    "IdentificationTrace",
    "InnovationModel",
    "InputError",
    "NumericalError",
    "OperatorMatrices",
    "ScoreSpec",
    "StudyConfig",
    "StudyReport",
    "TestOutcome",
    "VarModel",
    "build_operator_matrices",
    "centering",
    "chisq_quantile",
    "chisq_sf",
    "contaminate",
    "coupling_cost",
    "factorize",
    "fit_constrained_ls",
    "gaussian_test_order",
    "gaussian_test_specified",
    "grid_scores",
    "identify_order",
    "innovation_preset",
    "make_grid",
    "make_sphere_grid",
    "parse_config",
    "residuals",
    "run_study",
    "sample_innovations",
    "score_covariance",
    "simulate_var",
    "solve_coupling",
    "test_order",
    "test_specified",
    "unvec",
    "vec",
]

__version__ = "0.1.0"
