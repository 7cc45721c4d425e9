"""Iteration drivers for proximal gradient, mirror descent, and line search.

One driver covers every variant: a Bregman proximal gradient step with
generator H is, by the composite-generator identity, the same point as a
generalized proximal point step with generator (1/eta) H - f, so the
backtracking criterion D_{h_k}(x_{k+1}, x_k) = D_H / eta - D_f >= 0 can be
evaluated on the candidate directly from the two closed-form distances.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass
from typing import List

import numpy as np

from .bregman import BregmanGenerator, bregman_distance, composite_generator
from .errors import ContractViolation, SolverFailure
from .functions import CompositeProblem, Vector, blocks, evaluate_composite
from .prox import ProxMap, sample_feasible

logger = logging.getLogger(__name__)

# A candidate is accepted when D_H / eta - D_f >= -ACCEPT_TOL (D_H / eta +
# D_f).  A slack relative to the distances reads the same in any units of
# the data: A, b scaled by s and eta by 1/s^2 scale both sides by s^2.  The
# squared norms carry a relative rounding error near n eps, under 1e-12 for
# n up to a few thousand.  A KL term is exact to about 2 eps / |t| relative,
# t = x_i / y_i - 1, and to series precision for |t| < 1e-3 (see
# kl_divergence), so under 5e-13 at a near tie as well.
ACCEPT_TOL = 1e-12

# With a constant step nothing in the iteration reads d_hk, so run_solver
# computes it after the steps: the D_H(x_k, x_{k-1}) of a block of accepted
# steps come from one stacked closed-form call, which gives the bits of one
# call per step.  A block holds at most FLUSH_ENTRIES iterate entries (64 kB
# per stack), so its memory does not grow with n: 81 rows at n = 100, 8 at
# n = 1000.
FLUSH_ENTRIES = 8192


@dataclass(frozen=True)
class SolverConfig:
    eta0: float
    alpha: float = 0.5
    max_iters: int = 1000
    max_backtracks_per_iter: int = 60
    line_search_enabled: bool = False
    tolerance: float = 0.0  # early stop on gap, needs an optimum oracle

    def __post_init__(self):
        if not 0.0 < self.eta0 < np.inf:  # a NaN fails this too
            raise ContractViolation("eta0 must be positive and finite")
        if not 0.0 < self.alpha < 1.0:
            raise ContractViolation("alpha must lie in (0, 1)")
        if self.max_iters < 1 or self.max_backtracks_per_iter < 1:
            raise ContractViolation("iteration budgets must be positive")
        if self.tolerance < 0:
            raise ContractViolation("tolerance must be nonnegative")


@dataclass(frozen=True, eq=False)
class IterationRecord:
    k: int
    x: Vector
    objective: float
    eta_used: float
    backtracks: int
    d_hk_value: float  # D_{h_k}(x_{k+1}, x_k) at acceptance; 0 for k = 0
    elapsed_ms: float = 0.0  # wall time since the run started


@dataclass(frozen=True, eq=False)
class IterationTrace:
    records: List[IterationRecord]
    config: SolverConfig
    problem_id: str
    generator_kind: str

    def objectives(self) -> np.ndarray:
        return np.array([r.objective for r in self.records])

    def final(self) -> IterationRecord:
        return self.records[-1]


def gppa_objective(p: CompositeProblem, h: BregmanGenerator, x: Vector,
                   x_k: Vector) -> float:
    """F(x) + D_h(x, x_k), the proximal-point objective at anchor x_k, at x
    or at each row of a (rows, n) stack x."""
    return evaluate_composite(p, x) + bregman_distance(h, x, x_k)


def run_solver(p: CompositeProblem, H: BregmanGenerator, pm: ProxMap,
               x0: Vector, cfg: SolverConfig) -> IterationTrace:
    """Run the iteration to max_iters (or early stop on gap).

    Constant mode uses eta0 throughout.  With line search enabled, each
    candidate is accepted only if D_{h_k}(x_{k+1}, x_k) >= 0 with
    h_k = (1/eta_k) H - f; otherwise eta_k shrinks by alpha and the step is
    recomputed from the same x_k.  The accepted eta carries over to the
    next iteration.  The smooth term is reached through its stepper: by
    default each accepted iterate costs one gradient and one value of f,
    however many candidates the line search tries, and each candidate one
    distance; least squares carries its residual instead, so a step makes
    one pass over A for the gradient and one per candidate.  A constant
    step evaluates no D_H in the loop: its records are built in blocks,
    each with one stacked D_H call (see FLUSH_ENTRIES).
    """
    if (p.g.kind, H.kind) != (pm.g_kind, pm.H_kind):
        raise ContractViolation("prox map does not match (g, H)")
    if p.f.distance is None:
        raise ContractViolation("the smooth term has no closed-form distance")
    x = np.asarray(x0, dtype=float)
    if not H.domain.interior(x):
        raise ContractViolation("x0 must be interior to the generator domain")
    obj0 = evaluate_composite(p, x)
    if not np.isfinite(obj0):
        raise ContractViolation("x0 must have finite objective")

    if p.f.lipschitz_grad:
        gamma = 1.0 / p.f.lipschitz_grad
        if not cfg.line_search_enabled and cfg.eta0 > gamma * (1 + 1e-12):
            logger.warning(
                "constant step eta = %g exceeds gamma = %g; rate "
                "certificates may not hold", cfg.eta0, gamma,
            )

    start = time.perf_counter()
    records = [IterationRecord(0, x, obj0, cfg.eta0, 0, 0.0)]
    # accepted steps as the fields of their records, with d_hk in place, or
    # with D_f under a constant step until flush() completes d_hk
    pending = []
    block_rows = max(1, FLUSH_ENTRIES // x.size)

    def flush():
        if not pending:
            return
        ks, xs, objs, etas, bts, ds, ms = zip(*pending)
        if not cfg.line_search_enabled:
            prev = np.stack((records[-1].x,) + xs[:-1])
            ds = H.distance(np.stack(xs), prev) / cfg.eta0 - np.array(ds)
        records.extend(map(IterationRecord, ks, xs, objs, etas, bts,
                           map(float, ds), ms))
        pending.clear()

    eta = cfg.eta0
    smooth = p.f.stepper(x)
    for k in range(1, cfg.max_iters + 1):
        v = smooth.grad()
        backtracks = 0
        while True:
            cand = pm.solve(v, x, eta)
            d = d_f = smooth.distance(cand)
            if not cfg.line_search_enabled:
                break
            d_H = H.distance(cand, x) / eta
            d = d_H - d_f
            if d >= -ACCEPT_TOL * (d_H + d_f):
                break
            backtracks += 1
            if backtracks > cfg.max_backtracks_per_iter:
                flush()
                raise SolverFailure(
                    f"backtracking budget exhausted at iteration {k}",
                    partial_trace=IterationTrace(
                        records, cfg, p.problem_id, H.kind),
                )
            eta *= cfg.alpha
        x = cand
        obj = float(smooth.accept() + p.g.value(x))
        pending.append((k, x, obj, eta, backtracks, d,
                        (time.perf_counter() - start) * 1e3))
        if len(pending) == block_rows:
            flush()
        if (
            cfg.tolerance > 0
            and p.optimum_oracle is not None
            and obj - p.optimum_oracle[1] <= cfg.tolerance
        ):
            break
    flush()
    return IterationTrace(records, cfg, p.problem_id, H.kind)


def verify_theorem2_equivalence(p: CompositeProblem, H: BregmanGenerator,
                                pm: ProxMap, x0: Vector, eta: float,
                                iters: int = 10, samples: int = 1000,
                                seed: int = 0) -> float:
    """Worst proximal-point optimality violation of the BPGA iterates.

    Each of the first ``iters`` constant-step iterates of ``run_solver`` is
    compared against ``samples`` random feasible points, in blocks of at
    most ``BLOCK_ROWS`` rows, under the objective F(x) + D_h(x, x_k) with
    h = (1/eta) H - f; a nonpositive result (up to rounding) certifies that
    the two iterations coincide.
    """
    rng = np.random.Generator(np.random.Philox(seed))
    h = composite_generator(H, p.f, eta)
    records = run_solver(p, H, pm, x0,
                         SolverConfig(eta0=eta, max_iters=iters)).records
    worst = -np.inf
    for anchor, step in zip(records, records[1:]):
        base = gppa_objective(p, h, step.x, anchor.x)
        for rows in blocks(samples):
            z = sample_feasible(p.g.kind, step.x, rng, size=rows)
            worst = np.max(base - gppa_objective(p, h, z, anchor.x),
                           initial=worst)
    return float(worst)
