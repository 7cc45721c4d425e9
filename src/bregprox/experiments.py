"""Problem generators and scripted experiment runs.

Two scripted studies: the one-step LASSO demonstration (step size equal to
the inverse gradient-Lipschitz constant makes the first iterate optimal)
and the simplex least-squares four-way comparison of proximal gradient vs
mirror descent, each with constant step and with backtracking line search.

All randomness flows through seeded Philox (counter-based) generators so
traces are bit-reproducible on a given platform.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Tuple

import numpy as np

from .bregman import BregmanGenerator, negative_entropy, squared_euclidean
from .errors import (
    BregProxError,
    ConfigurationError,
    ContractViolation,
    SolverFailure,
)
from .functions import (
    SMALLEST_NORMAL,
    CompositeProblem,
    Vector,
    estimate_spectral_norm,
    evaluate_composite,
    first_order_gap,
    l1_norm,
    least_squares,
    shifted_quadratic,
    simplex_indicator,
)
from .prox import make_prox_map, soft_threshold
from .rates import RateCertificate, certify_trace
from .solvers import IterationTrace, SolverConfig, run_solver

VARIANTS = (
    "pga-constant",
    "pga-linesearch",
    "mirror-constant",
    "mirror-linesearch",
)
# the most float64 entries an array can have: numpy refuses a larger one
# with a ValueError ("array is too big") before trying to allocate it
MAX_ENTRIES = np.iinfo(np.intp).max // 8


@dataclass(frozen=True)
class ExperimentSpec:
    name: str
    m: int
    n: int
    seed: int
    eta0: float = 100.0
    alpha: float = 0.5
    max_iters: int = 5000
    variants: Tuple[str, ...] = VARIANTS

    def __post_init__(self):
        if self.m < 1 or self.n < 1:
            raise ContractViolation("m and n must be positive")
        if self.m * self.n > MAX_ENTRIES:
            raise ContractViolation(f"m x n = {self.m} x {self.n} is more "
                                    "entries than numpy can address")
        if not self.variants:
            raise ContractViolation("at least one variant is required")
        for v in self.variants:
            if v not in VARIANTS:
                raise ContractViolation(f"unknown variant {v!r}")
            if self.variants.count(v) > 1:
                raise ContractViolation(f"variant {v!r} is repeated")


@dataclass(frozen=True, eq=False)
class ExperimentResult:
    spec: ExperimentSpec
    problem: CompositeProblem
    reference_optimum: Tuple[Vector, float]
    reference_gap: float  # Frank-Wolfe gap at x*, an upper bound on F(x*) - F*
    tolerance: float
    traces: Dict[str, IterationTrace]
    certificates: Dict[str, RateCertificate]
    failures: Dict[str, str]


def build_simplex_ls(spec: ExperimentSpec) -> CompositeProblem:
    """Least squares over the simplex with seeded standard-normal data.

    b and the columns of A are normalized to unit length; the exact
    gradient-Lipschitz constant lambda_max(A^T A), from a dense eigensolve,
    is attached.
    """
    rng = np.random.Generator(np.random.Philox(spec.seed))
    A = rng.standard_normal((spec.m, spec.n))
    b = rng.standard_normal(spec.m)
    A /= np.linalg.norm(A, axis=0)
    b /= np.linalg.norm(b)
    f = least_squares(A, b, lipschitz=estimate_spectral_norm(A))
    return CompositeProblem(f=f, g=simplex_indicator(spec.n))


def build_lasso_onestep(gamma: float, b: Vector) -> CompositeProblem:
    """f = 1/(2 gamma) ||x - b||^2 plus the l1 norm, with the closed-form
    optimum (componentwise shrink of b by gamma) attached; shifted_quadratic
    rejects a gamma that is not positive and finite."""
    p = CompositeProblem(f=shifted_quadratic(b, gamma), g=l1_norm())
    x_star = soft_threshold(0.0, b, gamma)
    return replace(p, optimum_oracle=(x_star, evaluate_composite(p, x_star)))


# The reference stops once the Frank-Wolfe gap certifies
# F(x) - F* <= 1e-13 s, s = max(|b|^2, max_i |a_i|^2) / 2: A and b scaled
# by 2^k scale both sides by 4^k, so the reference keeps its bits, and the
# gap's rounding scales with s.  F at the start vertex would not do: b near
# a column makes it tiny, and not the rounding (the test
# ``test_b_near_a_column_is_certified``).  ``build_simplex_ls``'s data give
# s = 1/2, so the bound is at most 5e-8 times the experiment's tolerance
# 1e-6 (1 + |F*|): an error in F* of that size moves no iteration across
# the tolerance except at a 5e-8 relative tie.
REFERENCE_GAP_RTOL = 1e-13
REFERENCE_MAX_CYCLES = 100_000


def reference_simplex_ls(A: np.ndarray, b: np.ndarray) -> Tuple[Vector, float]:
    """Reference optimum of 1/2 ||A x - b||^2 over the simplex, certified by
    its Frank-Wolfe gap.

    On the simplex ``A x - b = P x`` with ``P = A - b 1^T``, so the optimum
    is the point nearest 0 in the convex hull of the columns ``p_i`` of
    ``P``: Wolfe's minimum-norm-point method (P. Wolfe, "Finding the nearest
    point in a polytope", Math. Programming 11, 1976).  It keeps a corral
    ``S`` of affinely independent columns, starting from the one nearest 0,
    and the weights ``x_S`` of the current point.  A major cycle adds the
    Frank-Wolfe vertex ``argmin_i (A^T r)_i``.  Each minor cycle then moves
    to the point of the affine hull of ``p_S`` nearest 0 or, when a weight
    there is not positive, as far towards it as the weights stay
    nonnegative, and drops the point whose weight reaches 0.  No ``n x n``
    matrix is formed; a minor cycle solves one least-squares problem with
    ``|S| - 1`` columns.

    Returns ``(x, F(x))`` at the first major cycle, the start included,
    whose gap is at most ``REFERENCE_GAP_RTOL * max(|b|^2, max_i |a_i|^2)
    / 2``, the data's magnitude: within 17
    major cycles at 50x100 (seeds 0-23, 42), 13 at 20x40 (seeds 0-24), 58
    at 500x1000 (seeds 0-7) and 70 at 1000x500 (seeds 0-2), as measured.  A
    run that reaches ``REFERENCE_MAX_CYCLES`` uncertified, or whose
    Frank-Wolfe vertex has entered the corral before (rounding has then
    stopped the method), raises ``ConfigurationError`` with the gap it
    reached, since nothing may be measured against an uncertified F*.
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    P = A - b[:, None]
    S = [int(np.argmin(np.einsum("ij,ij->j", P, P)))]
    threshold = REFERENCE_GAP_RTOL * 0.5 * max(
        float(b @ b), float(np.max(np.einsum("ij,ij->j", A, A))))
    w = np.ones(1)
    entered = -1
    for cycle in range(REFERENCE_MAX_CYCLES + 1):
        x = np.zeros(A.shape[1])
        x[S] = w
        r = A @ x - b
        g = A.T @ r
        gap = first_order_gap("simplex", g, x)
        if gap <= threshold:
            return x, 0.5 * float(np.sum(r ** 2))
        j = int(np.argmin(g))
        # Wolfe's entering point stays in the corral and so never enters
        # twice; if it does, rounding has made the corral affinely dependent
        if cycle == REFERENCE_MAX_CYCLES or j in S or j == entered:
            raise ConfigurationError(
                f"reference optimum uncertified after {cycle} major cycles: "
                f"Frank-Wolfe gap {gap:.3e} exceeds {threshold:.3e}" + (
                    "" if cycle == REFERENCE_MAX_CYCLES else
                    f"; its Frank-Wolfe vertex {j} has entered the corral "
                    "before"))
        S.append(j)
        w = np.append(w, 0.0)
        entered = j
        while True:
            # the affine minimizer v = e_0 + (0, z) of ||P_S v|| over
            # sum(v) = 1, by least squares on the columns themselves.  The
            # corral's Gram block would square their conditioning and take
            # two columns 6.6e-7 apart (2x199, seed 754105628) as one point.
            # The rank cutoff gives a corral that rounding made affinely
            # dependent its minimum-norm weights, not a blow-up.
            p0 = P[:, S[0]]
            z = np.linalg.lstsq(P[:, S[1:]] - p0[:, None], -p0,
                                rcond=None)[0]
            v = np.concatenate(([1.0 - np.sum(z)], z))
            if np.min(v) > 0.0:
                w = v
                break
            # step towards v until the first weight reaches 0, and drop it;
            # a weight that is 0 at both ends takes a step of 0
            out = np.flatnonzero(v <= 0.0)
            ratio = w[out] / np.maximum(w[out] - v[out], SMALLEST_NORMAL)
            w = w + ratio.min() * (v - w)
            w[out[np.argmin(ratio)]] = 0.0
            keep = w > 0.0
            S = [i for i, kept in zip(S, keep) if kept]
            w = w[keep]


def variant_configs(spec: ExperimentSpec, gamma: float, tol: float
                    ) -> Dict[str, Tuple[BregmanGenerator, SolverConfig]]:
    """Each variant's generator and solver configuration as
    ``run_experiment`` runs it: a constant step at gamma or the line search
    from spec.eta0, the early stop at tol, and no iterate kept but the
    first and the last."""
    configs = {}
    for variant in spec.variants:
        generator, mode = variant.split("-")
        H = squared_euclidean(spec.n) if generator == "pga" \
            else negative_entropy(spec.n)
        line_search = mode == "linesearch"
        configs[variant] = H, SolverConfig(
            eta0=spec.eta0 if line_search else gamma,
            alpha=spec.alpha,
            max_iters=spec.max_iters,
            line_search_enabled=line_search,
            tolerance=tol,
            keep_iterates=False,
        )
    return configs


def run_experiment(spec: ExperimentSpec) -> ExperimentResult:
    """Build the problem, compute the reference optimum, run every variant,
    and attach per-variant certificate checks; each trace records whether
    it met the tolerance (``IterationTrace.iters_to_tol``)."""
    base = build_simplex_ls(spec)
    f = base.f
    gamma = 1.0 / f.lipschitz_grad
    x_star, f_star = reference_simplex_ls(f.A, f.b)
    # the reference's own stopping gap, recomputed through the problem's
    # gradient oracle: f.grad(x*) forms the same A^T (A x* - b) as the
    # reference's last cycle, so it gives that gap bit for bit
    reference_gap = first_order_gap("simplex", f.grad(x_star), x_star)
    problem = CompositeProblem(f=f, g=base.g, optimum_oracle=(x_star, f_star))
    x0 = np.full(spec.n, 1.0 / spec.n)
    # an absolute floor, not a scale of the data's own: build_simplex_ls
    # normalizes A and b, so no run here meets data of another scale
    tol = 1e-6 * (1.0 + abs(f_star))

    traces: Dict[str, IterationTrace] = {}
    certs: Dict[str, RateCertificate] = {}
    failures: Dict[str, str] = {}
    # every configuration is checked before the first solve: a bad setting
    # fails before any solver work, not after variants have finished
    configs = variant_configs(spec, gamma, tol)
    for variant, (H, cfg) in configs.items():
        pm = make_prox_map(problem.g.kind, H.kind)
        try:
            trace = run_solver(problem, H, pm, x0, cfg)
        except BregProxError as exc:
            # one failing variant must not discard the others' results
            failures[variant] = str(exc)
            if not isinstance(exc, SolverFailure):
                continue
            trace = exc.partial_trace
        traces[variant] = trace
        certs[variant] = certify_trace(problem, H, trace)

    return ExperimentResult(
        spec=spec,
        problem=problem,
        reference_optimum=(x_star, f_star),
        reference_gap=reference_gap,
        tolerance=tol,
        traces=traces,
        certificates=certs,
        failures=failures,
    )
