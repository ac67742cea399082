"""patchcontrol: does a periodic arrangement of control zones eradicate a
diffusing (possibly stage-structured) population?

Closed-form spectral criteria answer the question exactly for scalar models
and one-sidedly for staged ones; an independent finite-difference oracle and
a Crank-Nicolson simulator cross-check every verdict; inverse solvers find
the minimal control mortality and minimal zone width.
"""

from .model import (
    MARGINAL_TOL,
    BirthDeathParams,
    BoundaryCondition,
    LayoutError,
    PatchLayout,
    ScalarZone,
    SpectralMethod,
    SpectralReport,
    StageZone,
    Verdict,
    VerdictStatus,
    scenario_from_dict,
    scenario_to_dict,
    validate_layout,
)
from .linalg import max_real_eigenvalue, symmetric_eigen
from .scalar import (
    InsufficientMortalityError,
    NonpositiveGrowthError,
    ScalarProblem,
    UncontrollableError,
    critical_patch_dirichlet,
    min_mortality,
    min_zone_width,
    scalar_verdict,
    top_eigenvalue_scalar,
)
from .staged import (
    AssumptionViolatedError,
    ControlCheck,
    StagedProblem,
    SufficiencyResult,
    build_stage_matrix,
    critical_patch_staged,
    min_control_decay_rate,
    proportional_control_check,
    symmetrized_critical_patch,
    symmetrized_sufficient_verdict,
    two_stage_verdict,
    uniform_control_verdict,
)
from .oracle import (
    DiscreteOperator,
    GridSpec,
    NoConvergenceError,
    assemble,
    min_mortality_fd,
    min_zone_width_fd,
    top_eigenvalue_fd,
    verdict_fd,
)
from .simulate import (
    InstabilityError,
    SimulationResult,
    SimulationRun,
    TransientNotResolvedError,
    growth_exponent,
    simulate,
)
from .presets import PRESET_NAMES, get_preset, preset_scenario

__version__ = "0.1.0"

__all__ = [
    "MARGINAL_TOL",
    "BirthDeathParams",
    "BoundaryCondition",
    "LayoutError",
    "PatchLayout",
    "ScalarZone",
    "SpectralMethod",
    "SpectralReport",
    "StageZone",
    "Verdict",
    "VerdictStatus",
    "scenario_from_dict",
    "scenario_to_dict",
    "validate_layout",
    "max_real_eigenvalue",
    "symmetric_eigen",
    "InsufficientMortalityError",
    "NonpositiveGrowthError",
    "ScalarProblem",
    "UncontrollableError",
    "critical_patch_dirichlet",
    "min_mortality",
    "min_zone_width",
    "scalar_verdict",
    "top_eigenvalue_scalar",
    "AssumptionViolatedError",
    "ControlCheck",
    "StagedProblem",
    "SufficiencyResult",
    "build_stage_matrix",
    "critical_patch_staged",
    "min_control_decay_rate",
    "proportional_control_check",
    "symmetrized_critical_patch",
    "symmetrized_sufficient_verdict",
    "two_stage_verdict",
    "uniform_control_verdict",
    "DiscreteOperator",
    "GridSpec",
    "NoConvergenceError",
    "assemble",
    "min_mortality_fd",
    "min_zone_width_fd",
    "top_eigenvalue_fd",
    "verdict_fd",
    "InstabilityError",
    "SimulationResult",
    "SimulationRun",
    "TransientNotResolvedError",
    "growth_exponent",
    "simulate",
    "PRESET_NAMES",
    "get_preset",
    "preset_scenario",
]
