"""Iteration drivers for proximal gradient, mirror descent, and line search.

One driver covers every variant: a Bregman proximal gradient step with
generator H is, by the composite-generator identity, the same point as a
generalized proximal point step with generator (1/eta) H - f, so the
backtracking criterion D_{h_k}(x_{k+1}, x_k) = D_H / eta - D_f >= 0 can be
evaluated on the candidate directly from the two closed-form distances.
"""

from __future__ import annotations

import time
from collections import namedtuple
from dataclasses import dataclass
from itertools import repeat
from typing import List, NoReturn, Optional

import numpy as np

from .bregman import (BregmanGenerator, accepts, bregman_distance,
                      composite_generator)
from .errors import ConfigurationError, ContractViolation, SolverFailure
from .functions import (SMALLEST_NORMAL, CompositeProblem, Vector,
                        check_step, evaluate_composite, first_order_gap)
from .prox import ProxMap

# candidates a line-search step may reject before the run fails: at
# alpha = 0.5, 60 halvings shrink eta by 2^-60 (about 1e-18)
MAX_BACKTRACKS = 60


@dataclass(frozen=True)
class SolverConfig:
    eta0: float
    alpha: float = 0.5
    max_iters: int = 1000
    line_search_enabled: bool = False
    tolerance: float = 0.0  # early stop on gap, needs an optimum oracle
    # the trace's xs; without it a run holds one block of iterates
    keep_iterates: bool = True

    def __post_init__(self):
        check_step(self.eta0, "eta0")
        if not 0.0 < self.alpha < 1.0:
            raise ContractViolation("alpha must lie in (0, 1)")
        if self.max_iters < 1:
            raise ContractViolation("iteration budgets must be positive")
        if self.tolerance < 0:
            raise ContractViolation("tolerance must be nonnegative")


# one row of an IterationTrace, as its records and final() give it
IterationRecord = namedtuple("IterationRecord", "k x objective eta_used "
                             "backtracks d_hk_value elapsed_ms")


@dataclass(frozen=True, eq=False)
class IterationTrace:
    """The accepted steps of one run as read-only columns, row k for step k
    (row 0 is x0, with eta0, no backtrack and d_hk = 0): F(x_k), the step
    that gave x_k, the candidates it rejected first, D_{h_k}(x_k, x_{k-1})
    at acceptance and the wall time since the start; ``hypothesis_held``:
    every step passed the line search's test on it.  ``stop_reason`` is why
    the run ended: "tolerance" at the first step whose F met the early
    stop, "max_iters" at the budget, or a partial trace's failure message.
    ``x0`` and ``x`` are the first and the last iterate, and ``xs`` holds
    every iterate, row k x_k, or is None where the run kept none
    (``SolverConfig.keep_iterates``).
    """

    x0: np.ndarray
    x: np.ndarray
    objective: np.ndarray
    eta: np.ndarray
    backtracks: np.ndarray
    d_hk: np.ndarray
    elapsed_ms: np.ndarray
    hypothesis_held: bool
    stop_reason: str
    xs: Optional[np.ndarray] = None

    def __post_init__(self):
        for array in (self.x0, self.x, self.xs, *self._columns()):
            if array is not None:
                array.flags.writeable = False

    def _columns(self):
        return (self.objective, self.eta, self.backtracks, self.d_hk,
                self.elapsed_ms)

    @property
    def iters_to_tol(self) -> Optional[int]:
        """The step that met the tolerance, or None where the run ended for
        another reason."""
        if self.stop_reason != "tolerance":
            return None
        return len(self.objective) - 1

    def objectives(self) -> np.ndarray:
        return self.objective

    def final(self) -> IterationRecord:
        k = len(self.objective) - 1
        return IterationRecord(k, self.x,
                               *(c[k].item() for c in self._columns()))

    @property
    def records(self) -> List[IterationRecord]:
        """One record per row, built on each access; its x is None where
        the run kept no iterates."""
        xs = repeat(None) if self.xs is None else self.xs
        return list(map(IterationRecord, range(len(self.objective)), xs,
                        *(c.tolist() for c in self._columns())))


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
    next iteration.  The smooth term is reached through its stepper: a step
    costs one gradient however many candidates the line search tries, and
    for least squares one pass over A for it and one per candidate.  The
    loop reads D_f only under line search; f, g and, under a constant
    step, D_f and d_hk are completed by one hook, ``complete``, once per
    block of the stepper's ``rows`` steps, one stacked call each.  The
    early stop reads the F that ``complete`` writes: after a step that the
    stepper's ``may_stop`` cannot rule out, the block completes early, and
    the run stops if that F meets the tolerance; the stepper's
    ``stop_test`` fixes that predicate's bound once per run.  A line-search
    step below the smallest normal float is never tried, and a candidate
    whose step overflows (eta max |v_i|, or the mirror step's shift
    eta max v - eta min v) counts as a rejection without being formed.
    Without ``cfg.keep_iterates`` the run holds one block of iterates and
    no more: the trace keeps x0 and the final point.

    The prox map writes each candidate straight into the iterate ring (its
    ``out``).  Under a constant step the loop records only the clock, and
    ``build`` makes the eta, backtracks and d_hk columns once.
    """
    if (p.g.kind, H.kind) != (pm.g_kind, pm.H_kind):
        raise ContractViolation("prox map does not match (g, H)")
    if p.f.distance is None:
        raise ContractViolation("the smooth term has no closed-form distance")
    x = np.asarray(x0, dtype=float)
    if not H.domain.interior(x):
        raise ContractViolation("x0 must be interior to the generator domain")
    # under numpy's "warn" the run ignores overflow: an f(x0) that
    # overflowed is refused below, and a D_f that did fails ``accepts``; any
    # other setting of the caller's holds (README "The solver loop")
    with np.errstate(over="ignore" if np.geterr()["over"] == "warn" else None):
        obj0 = evaluate_composite(p, x)
        if not np.isfinite(obj0):
            raise ContractViolation("x0 must have finite objective")

        if cfg.line_search_enabled and cfg.eta0 < SMALLEST_NORMAL:
            raise ContractViolation(
                f"eta0 = {cfg.eta0!r} is below the smallest normal float, the "
                "smallest step a line search tries")
        early_stop = cfg.tolerance > 0
        if early_stop:
            if p.optimum_oracle is None:
                raise ConfigurationError("a tolerance needs the problem's "
                                         "optimum oracle to stop on")
            f_star, tol = p.optimum_oracle[1], cfg.tolerance

        start = time.perf_counter()
        smooth = p.f.stepper(x)
        # xs holds one block of the stepper's rows after the point before it:
        # x_k sits in row k - lo + 1, where the prox map writes each candidate
        # for step k.  complete() reads the block in place and then moves its
        # last row to row 0, where the anchor and the stepper's point follow
        # it, so that no candidate is written over its own anchor.  Kept
        # iterates grow by each finished block by realloc, which copies no page
        # once they are mapped apart
        xs = np.empty((smooth.rows + 1, x.size))
        xs[0], x0 = x, x.copy()
        kept = x0[None].copy() if cfg.keep_iterates else None
        # ms of each step, and under line search eta, backtracks and d_hk;
        # a constant step's eta and backtracks are columns of one value
        ms, steps = [0.0], [(cfg.eta0, 0, 0.0)]
        # F(x_k) and the constant-step d_hk of each completed block; steps lo
        # on are not completed yet
        objective, d_hks, lo, held = [np.array([obj0])], [], 1, True

        def complete() -> None:
            """Finish steps lo, ..., len(ms) - 1: f from the stepper, g
            and, under a constant step, D_f, d_hk and its test D_{h_k} >= 0,
            one stacked call each, with the bits of the calls on each row.
            The line search tested its d_hk in the loop, and reads no D_f."""
            nonlocal lo, held, x
            block, lo = xs[:len(ms) - lo + 1], len(ms)
            if kept is not None:
                kept.resize((lo, x.size), refcheck=False)
                kept[1 - len(block):] = block[1:]
            if not cfg.line_search_enabled:
                # before the flush, which starts the stepper's next block
                d_f = smooth.distances(block)
                d_H = H.distance(block[1:], block[:-1]) / cfg.eta0
                d_hks.append(d_H - d_f)
                held &= bool(np.logical_and.reduce(accepts(d_H, d_f)))
            # f + 0.0 keeps f's bits, and a stacked g equals its row calls
            objective.append(smooth.flush(block) + p.g.value(block[1:]))
            xs[0] = block[-1]
            smooth.x = x = xs[0]

        def build(stop_reason: str) -> IterationTrace:
            if lo < len(ms):
                complete()
            if cfg.line_search_enabled:
                etas, bts, d_hk = map(np.array, zip(*steps))
            else:
                etas, bts = np.full(len(ms), cfg.eta0), np.zeros(len(ms), int)
                d_hk = np.concatenate(([0.0], *d_hks))
            return IterationTrace(x0, x.copy(), np.concatenate(objective),
                                  etas, bts, d_hk, np.array(ms), held,
                                  stop_reason, kept)

        def fail(message: str) -> NoReturn:
            raise SolverFailure(message, partial_trace=build(message))

        # the loop's callees and flags, looked up once per run
        grad, propose, distance = smooth.grad, smooth.propose, smooth.distance
        accept, rows, solve = smooth.accept, smooth.rows, pm.solve
        line_search = cfg.line_search_enabled
        # may_stop tests f alone: every nonsmooth kind is >= 0, so F = f + g
        # meets the tolerance only where f does
        may_stop = smooth.stop_test(f_star, tol) if early_stop else None
        record, tick, clock = steps.append, ms.append, time.perf_counter
        eta, up, down, mirror = cfg.eta0, 0.0, 0.0, H.kind == "entropy"
        for k in range(1, cfg.max_iters + 1):
            v, row = grad(), xs[k - lo + 1]
            if line_search:
                # a candidate whose step would overflow is rejected unformed:
                # y - eta v and -eta v overflow only where eta max |v_i| does,
                # which takes eta > 1 for finite v; the mirror step's shift
                # -eta v - max(-eta v) spans eta max v - eta min v (over all of
                # v, a bound on its span over supp(y)), which takes eta > 1/2.
                # A step starting at or below its map's bound reads no extremum
                up = down = 0.0
                if mirror and eta > 0.5:
                    up, down = v.item(v.argmax()), -v.item(v.argmin())
                elif eta > 1.0:  # max |v_i|
                    up = max(v.item(v.argmax()), -v.item(v.argmin()))
            backtracks = 0
            while True:
                if eta * up + eta * down < np.inf:
                    cand = solve(v, x, eta, row)
                    if cand is not row:  # a map that ignored ``out``
                        row[...] = cand
                    propose(row)
                    if not line_search:
                        break
                    d_H = H.distance(row, x) / eta
                    d_f = distance()
                    d = d_H - d_f
                    if accepts(d_H, d_f):
                        break
                backtracks += 1
                if backtracks > MAX_BACKTRACKS:
                    fail(f"backtracking budget exhausted at iteration {k}")
                eta *= cfg.alpha
                if eta < SMALLEST_NORMAL:
                    fail(f"line-search step {eta:.3g} fell below the smallest "
                         f"normal float at iteration {k}")
            x = row
            accept()
            if line_search:
                record((eta, backtracks, d))
            tick((clock() - start) * 1e3)
            if k - lo + 1 == rows or (early_stop and may_stop()):
                complete()
                if early_stop and objective[-1][-1] - f_star <= tol:
                    return build("tolerance")
        return build("max_iters")


def verify_theorem2_equivalence(p: CompositeProblem, H: BregmanGenerator,
                                pm: ProxMap, x0: Vector, eta: float,
                                iters: int = 10) -> float:
    """An upper bound on how far the BPGA iterates are from solving their
    generalized proximal point subproblems: the largest first-order gap
    (``first_order_gap``) of min F(z) + D_h(z, x_{k-1}), h = (1/eta) H - f,
    at x_k, over the first ``iters`` constant-step iterates of
    ``run_solver``.

    The gradient of the subproblem's smooth part at x_k comes from the GPPA
    objective's own oracles, f.grad(x_k) + h.grad(x_k) - h.grad(x_{k-1}),
    not from the prox map's formula.  F + D_h(., x_{k-1}) is g + H / eta
    plus an affine term, so where g needs it the subproblem is
    (1/eta)-strongly convex as H is 1-strongly convex.  Every anchor and
    iterate must lie in the interior of H's domain: the entropy gradient
    raises ``DomainError`` elsewhere.
    """
    h = composite_generator(H, p.f, eta)
    xs = run_solver(p, H, pm, x0, SolverConfig(
        eta0=eta, max_iters=iters, keep_iterates=True)).xs
    return float(np.max([first_order_gap(
        p.g.kind, p.f.grad(x) + h.grad(x) - h.grad(anchor), x, eta)
        for anchor, x in zip(xs, xs[1:])]))
