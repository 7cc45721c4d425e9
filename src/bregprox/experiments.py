"""Problem generators and scripted experiment runs.

Two scripted studies: the one-step LASSO demonstration (step size equal to
the inverse gradient-Lipschitz constant makes the first iterate optimal)
and the simplex least-squares four-way comparison of proximal gradient vs
mirror descent, each with constant step and with backtracking line search.

All randomness flows through seeded Philox (counter-based) generators so
traces are bit-reproducible on a given platform.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from .bregman import BregmanGenerator, negative_entropy, squared_euclidean
from .errors import BregProxError, ContractViolation, SolverFailure
from .functions import (
    CompositeProblem,
    Vector,
    estimate_spectral_norm,
    l1_norm,
    least_squares,
    probability_simplex,
    shifted_quadratic,
    simplex_indicator,
    euclidean_space,
)
from .prox import make_prox_map, simplex_projection
from .rates import (
    RateCertificate,
    certify_trace,
    constant_step_certificate,
    line_search_certificate,
)
from .solvers import IterationTrace, SolverConfig, run_solver

logger = logging.getLogger(__name__)

VARIANTS = (
    "pga-constant",
    "pga-linesearch",
    "mirror-constant",
    "mirror-linesearch",
)


@dataclass(frozen=True)
class ExperimentSpec:
    name: str
    m: int
    n: int
    seed: int
    eta0: float = 100.0
    alpha: float = 0.5
    max_iters: int = 5000
    ref_iters: int = 100_000
    variants: Tuple[str, ...] = VARIANTS

    def __post_init__(self):
        if self.m < 1 or self.n < 1:
            raise ContractViolation("m and n must be positive")
        if not self.variants:
            raise ContractViolation("at least one variant is required")
        for v in self.variants:
            if v not in VARIANTS:
                raise ContractViolation(f"unknown variant {v!r}")


@dataclass(frozen=True, eq=False)
class CertificateCheck:
    certificate: RateCertificate
    margin: float
    hypothesis_satisfied: bool


@dataclass(frozen=True, eq=False)
class ExperimentResult:
    spec: ExperimentSpec
    problem: CompositeProblem
    reference_optimum: Tuple[Vector, float]
    reference_gap: float  # Frank-Wolfe gap at x*, an upper bound on F(x*) - F*
    gamma: float
    x0: Vector
    tolerance: float
    traces: Dict[str, IterationTrace]
    certificates: Dict[str, CertificateCheck]
    iters_to_tol: Dict[str, Optional[int]]
    failures: Dict[str, str]


def build_simplex_ls(spec: ExperimentSpec) -> CompositeProblem:
    """Least squares over the simplex with seeded standard-normal data.

    b and the columns of A are normalized to unit length; the exact
    gradient-Lipschitz constant lambda_max(A^T A) is attached.
    """
    rng = np.random.Generator(np.random.Philox(spec.seed))
    A = rng.standard_normal((spec.m, spec.n))
    b = rng.standard_normal(spec.m)
    A /= np.linalg.norm(A, axis=0)
    b /= np.linalg.norm(b)
    lam_max = estimate_spectral_norm(A, iterations=1000, seed=spec.seed)
    f = least_squares(A, b, lipschitz=lam_max)
    return CompositeProblem(
        f=f,
        g=simplex_indicator(spec.n),
        domain=probability_simplex(spec.n),
        problem_id=f"{spec.name}_{spec.m}x{spec.n}_seed{spec.seed}",
    )


def build_lasso_onestep(gamma: float, b: Vector) -> CompositeProblem:
    """f = 1/(2 gamma) ||x - b||^2 plus the l1 norm, with the closed-form
    optimum (componentwise shrink of b by gamma) attached."""
    if gamma <= 0:
        raise ContractViolation("gamma must be positive")
    b = np.asarray(b, dtype=float)
    f = shifted_quadratic(b, gamma)
    x_star = np.sign(b) * np.maximum(np.abs(b) - gamma, 0.0)
    f_star = f.value(x_star) + float(np.sum(np.abs(x_star)))
    return CompositeProblem(
        f=f,
        g=l1_norm(),
        domain=euclidean_space(b.size),
        optimum_oracle=(x_star, f_star),
        problem_id=f"lasso_onestep_n{b.size}",
    )


# The reference stops once the Frank-Wolfe gap certifies
# F(x) - F* <= 1e-13 (1 + |F(x)|).  That is 1e-7 times the experiment's own
# tolerance 1e-6 (1 + |F*|) (F(x) and F* agree to 1e-13 relative, so either
# may scale it): an error in F* of that size cannot move an iteration across
# the tolerance except at a 1e-7 relative tie, and shifts every certificate
# margin by at most 1e-13, far inside the CLI's -1e-9 slack.
REFERENCE_GAP_RTOL = 1e-13


def frank_wolfe_gap(grad: Vector, x: Vector) -> float:
    """Frank-Wolfe duality gap <grad, x> - min_i grad_i at a point x of the
    simplex: an upper bound on F(x) - F* for a convex f over the simplex
    (Jaggi 2013, "Revisiting Frank-Wolfe")."""
    return float(grad @ x - np.min(grad))


def reference_simplex_ls(A: np.ndarray, b: np.ndarray, eta: float,
                         iters: int = 100_000,
                         x0: Optional[Vector] = None) -> Tuple[Vector, float]:
    """Reference optimum of 1/2 ||A x - b||^2 over the simplex, certified by
    its Frank-Wolfe gap.

    Runs constant-step projected gradient from ``x0`` (default: the
    barycentre) and returns ``(x, F(x))`` at the first iterate, ``x0``
    included, whose gap is at most ``REFERENCE_GAP_RTOL * (1 + |F(x)|)``.
    ``iters`` caps the number of projection steps; a run that hits the cap
    uncertified returns its last iterate and logs one warning with the gap
    it reached.  Works on the precomputed Gram matrix so each step is cheap.
    """
    if iters < 0:
        raise ContractViolation(f"iters must be non-negative, got {iters}")
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    n = A.shape[1]
    G = A.T @ A
    c = A.T @ b
    x = np.full(n, 1.0 / n) if x0 is None else np.asarray(x0, dtype=float)
    for k in range(iters + 1):
        g = G @ x - c
        gap = frank_wolfe_gap(g, x)
        f_x = 0.5 * float(np.sum((A @ x - b) ** 2))
        certified = gap <= REFERENCE_GAP_RTOL * (1.0 + abs(f_x))
        if certified or k == iters:
            break
        x = simplex_projection(x - eta * g)
    if not certified:
        logger.warning(
            "reference run hit its cap of %d steps uncertified: "
            "Frank-Wolfe gap %.3e", iters, gap,
        )
    return x, f_x


def _variant_setup(variant: str, n: int) -> Tuple[BregmanGenerator, bool]:
    generator, mode = variant.split("-")
    H = squared_euclidean(n) if generator == "pga" else negative_entropy(n)
    return H, mode == "linesearch"


def run_experiment(spec: ExperimentSpec) -> ExperimentResult:
    """Build the problem, compute the reference optimum, run every variant,
    and attach per-variant certificate checks and iterations-to-tolerance."""
    base = build_simplex_ls(spec)
    f = base.f
    gamma = 1.0 / f.lipschitz_grad
    x_star, f_star = reference_simplex_ls(f.A, f.b, gamma, iters=spec.ref_iters)
    # recomputed from the problem's own gradient oracle, as a check on x*
    # that does not rest on the reference run's Gram-matrix arithmetic
    reference_gap = frank_wolfe_gap(f.grad(x_star), x_star)
    problem = CompositeProblem(
        f=f, g=base.g, domain=base.domain,
        optimum_oracle=(x_star, f_star), problem_id=base.problem_id,
    )
    x0 = np.full(spec.n, 1.0 / spec.n)
    tol = 1e-6 * (1.0 + abs(f_star))

    traces: Dict[str, IterationTrace] = {}
    certs: Dict[str, CertificateCheck] = {}
    iters_to_tol: Dict[str, Optional[int]] = {}
    failures: Dict[str, str] = {}
    # every configuration is checked before the first solve: a bad setting
    # fails before any solver work, not after variants have finished
    configs = {}
    for variant in spec.variants:
        H, line_search = _variant_setup(variant, spec.n)
        configs[variant] = H, line_search, SolverConfig(
            eta0=spec.eta0 if line_search else gamma,
            alpha=spec.alpha,
            max_iters=spec.max_iters,
            line_search_enabled=line_search,
            tolerance=tol,
        )
    for variant, (H, line_search, cfg) in configs.items():
        pm = make_prox_map("simplex", H.kind)
        try:
            trace = run_solver(problem, H, pm, x0, cfg)
        except BregProxError as exc:
            # one failing variant must not discard the others' results
            failures[variant] = str(exc)
            if not isinstance(exc, SolverFailure) or exc.partial_trace is None:
                continue
            trace = exc.partial_trace
        traces[variant] = trace
        if line_search:
            cert = line_search_certificate(
                H, spec.alpha, gamma, spec.eta0, x_star, x0, f_star)
            hypothesis_ok = spec.eta0 >= gamma
        else:
            cert = constant_step_certificate(H, f, gamma, x_star, x0, f_star)
            hypothesis_ok = True
        certs[variant] = CertificateCheck(
            cert, certify_trace(trace, cert), hypothesis_ok)
        reached = [r.k for r in trace.records
                   if r.k >= 1 and r.objective - f_star <= tol]
        iters_to_tol[variant] = reached[0] if reached else None

    return ExperimentResult(
        spec=spec,
        problem=problem,
        reference_optimum=(x_star, f_star),
        reference_gap=reference_gap,
        gamma=gamma,
        x0=x0,
        tolerance=tol,
        traces=traces,
        certificates=certs,
        iters_to_tol=iters_to_tol,
        failures=failures,
    )
