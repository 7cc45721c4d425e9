"""Proximal gradient and mirror descent as generalized proximal point
iterations, with per-iteration convergence-rate certificates and a
backtracking line-search variant."""

from .bregman import (
    BregmanGenerator,
    ProximalDistanceAxioms,
    bregman_distance,
    check_linearity,
    check_three_point,
    composite_generator,
    negative_entropy,
    squared_euclidean,
    verify_proximal_distance_axioms,
)
from .errors import (
    BregProxError,
    ConfigurationError,
    ContractViolation,
    DegenerateInput,
    DomainError,
    HypothesisViolation,
    NumericalFailure,
    SolverFailure,
)
from .experiments import (
    ExperimentResult,
    ExperimentSpec,
    build_lasso_onestep,
    build_simplex_ls,
    reference_simplex_ls,
    run_experiment,
)
from .functions import (
    CompositeProblem,
    DomainDescriptor,
    NonsmoothTerm,
    SmoothFunction,
    check_gradient,
    estimate_spectral_norm,
    evaluate_composite,
    euclidean_space,
    l1_norm,
    least_squares,
    probability_simplex,
    shifted_quadratic,
    simplex_indicator,
    zero_function,
    zero_term,
)
from .prox import (
    ProxMap,
    entropic_update,
    make_prox_map,
    project_simplex,
    simplex_projection,
    soft_threshold,
    verify_prox_optimality,
)
from .rates import (
    RateCertificate,
    bpga_bound,
    certify_trace,
    classical_pga_bound,
    gppa_bound,
    line_search_bound,
)
from .solvers import (
    IterationRecord,
    IterationTrace,
    SolverConfig,
    gppa_objective,
    run_solver,
    step_bpga,
    verify_theorem2_equivalence,
)

__version__ = "0.1.0"
