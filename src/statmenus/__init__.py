"""Separating menus of statistical contracts.

A principal screening heterogeneous strategic agents can pair type-optimal
hypothesis-test thresholds with rewards and costs so that every agent
self-selects the contract built for its own prior — matching the
statistical performance of an oracle that observes the private types.
This package constructs such menus, verifies their incentive properties,
and evaluates their statistical and financial performance.
"""

__version__ = "0.1.0"

from .builders import (
    EpsilonSchedule,
    GPotential,
    build_finite_menu,
    build_fixed_reward,
    build_from_potential,
    build_varying_reward,
    elicitable_range,
    fixed_cost_feasible,
    fixed_reward_potential,
    quadratic_schedule,
    recover_potential,
    tabulated_potential,
    tabulated_schedule,
    validate_potential,
    varying_reward_potential,
)
from .contracts import (
    Contract,
    Menu,
    SeparationReport,
    scoring_rule,
    utility,
    verify_separating,
    zero_utility_cost,
)
from .errors import (
    ConfigError,
    InfeasibleMenuError,
    InvalidModelError,
    InvalidPotentialError,
    ParticipationError,
    StatMenusError,
    UnsupportedModelError,
)
from .evaluation import (
    FrontierPoint,
    SimulationReport,
    bayes_risk,
    fdr,
    frontier,
    information_rent,
    principal_return,
    screening_cost,
    simulate_population,
    tdr,
)
from .objectives import (
    PrincipalObjective,
    TypePopulation,
    bayes_objective,
    bayes_threshold,
    discrete_population,
    fdr_objective,
    fdr_threshold,
    optimal_threshold,
    oracle_bayes_risk,
    oracle_tdr,
    threshold_map,
    type_for_threshold,
    uniform_population,
)
from .sensitivity import (
    MisspecScenario,
    fdr_gap_fixed_reward,
    implied_true_type,
    sensitivity_sweep,
)
from .testmodel import (
    TestModel,
    gaussian_model,
    inverse_likelihood_ratio,
    likelihood_ratio,
    normal_cdf,
    normal_quantile,
    power,
    power_derivative,
    tabulated_from_csv,
    tabulated_model,
)
