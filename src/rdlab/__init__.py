"""rdlab: a numerical laboratory for competitive reaction-diffusion systems."""

from .analysis import (
    ChsReport,
    OmegaClassification,
    REGION_A_3SPECIES,
    REGION_SIGMA_2SPECIES,
    chs_report,
    classify_omega,
    decay_fit,
    periodicity_score,
    sup_jacobian_norm,
)
from .errors import (
    ConfigError,
    DegenerateModelError,
    InvariantViolation,
    NoCycleError,
    NumericalFailure,
)
from .kinetics import (
    OrbitAnalysis,
    StabilityVerdict,
    Trajectory,
    detect_limit_cycle,
    integrate,
    modal_multipliers,
    monodromy,
    orbital_stability,
)
from .model import (
    CompetitionModel,
    ConditionReport,
    Equilibrium,
    SupportSolution,
    classify,
    condition_report,
    equilibria,
    jacobian,
    load_model,
    model_to_dict,
    reaction,
    region_membership,
    support_solutions,
    two_species_case,
)
from .pde import (
    Domain1D,
    Field,
    PdeTrajectory,
    evolve,
    flatness,
    grad_l2_norm,
    neumann_eigenvalue,
    spatial_average,
)
from .scalar import (
    ShootResult,
    SteadyProfile,
    dirichlet_steady_profile,
    energy,
    kiss_size,
    potential,
    radial_shoot,
    time_map,
)

__version__ = "0.1.0"
