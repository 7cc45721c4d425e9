"""Closed-form Bregman proximal maps.

Each map returns the exact minimizer of

    g(x) + <x, v> + (1/eta) D_H(x, y)

for one supported (g, H) pair; v is the gradient of the smooth term at the
linearization point, supplied by the caller so these maps stay independent
of any particular smooth function.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .bregman import BregmanGenerator
from .errors import ContractViolation, DomainError, NumericalFailure
from .functions import (EPS, SIMPLEX_SUM_TOL, SMALLEST_NORMAL,
                        NonsmoothTerm, Vector, check_step, first_order_gap,
                        on_simplex, per_row, row_sum)

GeneratorKind = str  # "quadratic" | "entropy"

FLOAT_MAX = float(np.finfo(float).max)


# Every map takes an optional ``out``, an array of y's shape that shares no
# memory with v or y, and then writes its minimizer there and returns it:
# run_solver passes the row of its iterate ring that the candidate takes.


def gradient_step(v: Vector, y: Vector, eta: float,
                  out: Optional[Vector] = None) -> Vector:
    """Minimizer of <x, v> + 1/(2 eta) ||x - y||^2 (g identically zero):
    the forward step y - eta v, which the other quadratic maps start from."""
    check_step(eta)
    return np.subtract(y, eta * np.asarray(v, dtype=float), out=out)


def soft_threshold(v: Vector, y: Vector, eta: float,
                   out: Optional[Vector] = None) -> Vector:
    """Minimizer of ||x||_1 + <x, v> + 1/(2 eta) ||x - y||^2.

    Componentwise shrink of y - eta v by eta.
    """
    z = gradient_step(v, y, eta)
    return np.multiply(np.sign(z), np.maximum(np.abs(z) - eta, 0.0), out=out)


def simplex_projection(z: Vector, out: Optional[Vector] = None) -> Vector:
    """Euclidean projection onto {x : sum x_i = 1, x >= 0} by
    sort-and-threshold, into ``out`` where given (not overlapping z)."""
    z = np.asarray(z, dtype=float)
    x = _simplex_threshold(z, SUM_DRIFT_MAX, out)
    if x is None:
        # Entries that dwarf 1 (z = [1e17, 0, -3]) round the 1 out of the
        # prefix sums and leave no index, and large near-tied entries round
        # the sum of x away from 1; the projection is shift-invariant, so
        # retry (only then, so other inputs keep their exact result) from
        # max(z) = 0.  An entry the shift takes below -FLOAT_MAX is -inf and
        # projects to 0, and prefix sums that overflow are dropped
        with np.errstate(over="ignore"):
            x = _simplex_threshold(z - z.item(z.argmax()), np.inf, out)
        if x is None:
            raise NumericalFailure(
                "cannot project a non-finite point onto the simplex")
    return x


# The first pass's x sums to 1 within (eps / 4) M (rho + 3)^2 to first
# order, M = |u_0| + 1: the rho entries above theta lie in (theta, u_0]
# with u_0 - theta <= 1, so none exceeds M in magnitude and the k-th prefix
# sum is at most k M.  Accumulating them rounds by at most
# (eps / 2) M (2 + ... + rho) < (eps / 4) M (rho + 1)^2; subtracting 1,
# dividing by rho and subtracting theta from rho entries add at most
# (eps / 2) (2 rho M + 2), and (rho + 1)^2 + 4 rho + 4 <= (rho + 3)^2.
# Where that bound exceeds half of SIMPLEX_SUM_TOL (the other half covers
# on_simplex's own sum), x is tested by on_simplex, and only an x off the
# simplex retries shifted, where M = 1 and ties give exactly 1/n: every
# other input keeps the first pass's bits and pays one test.  The bound
# stays below that half for rho up to about 3000 / sqrt(M): 3000 in the
# retry, and past it the retry's output is not tested.
SUM_DRIFT_MAX = 2 * SIMPLEX_SUM_TOL / EPS


def _simplex_threshold(z: Vector, drift_max: float, out=None):
    """max(z - theta, 0), theta = css_rho / rho at the last rho with
    u_rho - css_rho / rho > 0, u the entries of z in decreasing order and
    css their prefix sums less 1, in ``out`` where given; None where no rho
    has it, or where (rho + 3)^2 (|u_0| + 1) exceeds ``drift_max`` and x is
    off the simplex."""
    u = z.copy()
    u.sort()
    u = u[::-1]
    # n entries below this magnitude sum to below FLOAT_MAX, rounding
    # included, and z - theta stays below it; past it an overflow is handled
    limit = FLOAT_MAX / (2 * u.size)
    if u[0] < limit and u[-1] > -limit:
        return _threshold_sorted(z, u, drift_max, out)
    with np.errstate(over="ignore"):
        return _threshold_sorted(z, u, drift_max, out)


def _threshold_sorted(z: Vector, u: Vector, drift_max: float, out):
    """_simplex_threshold of z, given u."""
    css = np.add.accumulate(u)
    css -= 1.0
    css /= _counts(u.size)
    # with subnormals, fl(a - b) > 0 exactly where a > b
    above = u > css
    rho = above.nonzero()[0]
    if not rho.size:
        return None
    theta = css[rho[-1]]
    if not math.isfinite(theta):
        # A prefix sum that overflowed to -inf passes every later test, but
        # rho passes the exact test only where u_1, ..., u_rho lie within 1
        # of u_rho in total, so |css_rho| <= rho (|u_1| + 1): never at an
        # overflowed sum in the retry, where u_1 = 0.  Such sums are
        # dropped, only here, so that other inputs pay nothing
        rho = (above & np.isfinite(css)).nonzero()[0]
        if not rho.size:
            return None
        theta = css[rho[-1]]
    x = np.subtract(z, theta, out=out)
    np.maximum(x, 0.0, out=x)
    drift = (rho.item(-1) + 4) ** 2 * (abs(u.item(0)) + 1.0)
    return None if drift > drift_max and not on_simplex(x) else x


@functools.lru_cache(maxsize=8)
def _counts(n: int) -> Vector:
    """1.0, 2.0, ..., n, read-only: made once per size, not per projection."""
    counts = np.arange(1.0, n + 1.0)
    counts.flags.writeable = False
    return counts


def project_simplex(v: Vector, y: Vector, eta: float,
                    out: Optional[Vector] = None) -> Vector:
    """Minimizer over the simplex of <x, v> + 1/(2 eta) ||x - y||^2."""
    return simplex_projection(gradient_step(v, y, eta), out)


def entropic_update(v: Vector, y: Vector, eta: float,
                    out: Optional[Vector] = None) -> Vector:
    """Mirror step on the simplex: x_i = y_i exp(-eta v_i) / normalization.

    Exponents are shifted by their maximum over supp(y) before
    exponentiating so that large steps (eta far above 1/L during line
    search) cannot overflow.  Zero components of y stay zero, and
    components below the smallest normal float become zero.
    """
    check_step(eta)
    y = np.asarray(y, dtype=float)
    y_min = y.item(y.argmin())
    if y_min < 0.0:
        raise DomainError("mirror step undefined for negative components")
    x = np.multiply(-eta, np.asarray(v, dtype=float), out=out)
    if not y_min > 0.0:
        np.copyto(x, -np.inf, where=np.logical_not(y > 0.0))
    x -= x.item(x.argmax())
    np.multiply(np.exp(x, out=x), y, out=x)  # y exp(x - max x), in place
    x /= np.add.reduce(x)
    # subnormal entries weigh nothing in any sum, but as operands they make
    # every later matvec several times slower; they become exact zeros,
    # which stay zero.  A step from a y without zeros whose output has no
    # entry below the floor, nor a NaN, skips the store.  Extrema by
    # argmin/argmax keep every bit: README "The extrema rule"
    if not (y_min > 0.0 and x.item(x.argmin()) >= SMALLEST_NORMAL):
        x[x < SMALLEST_NORMAL] = 0.0
    return x


@dataclass(frozen=True, eq=False)
class ProxMap:
    """Closed-form inner solver for one (g, H) pair."""

    g_kind: str  # "l1" | "simplex" | "zero"
    H_kind: GeneratorKind
    solve: Callable[..., Vector]  # (v, y, eta, out=None)


_REGISTRY = {
    ("l1", "quadratic"): soft_threshold,
    ("simplex", "quadratic"): project_simplex,
    ("simplex", "entropy"): entropic_update,
    ("zero", "quadratic"): gradient_step,
}


def make_prox_map(g_kind: str, H_kind: GeneratorKind) -> ProxMap:
    """Look up the closed form for (g_kind, H_kind); fails fast if absent."""
    try:
        solve = _REGISTRY[(g_kind, H_kind)]
    except KeyError:
        raise ContractViolation(
            f"no closed-form prox registered for g={g_kind!r}, H={H_kind!r}"
        ) from None
    return ProxMap(g_kind=g_kind, H_kind=H_kind, solve=solve)


def prox_objective(g: NonsmoothTerm, H: BregmanGenerator, x: Vector,
                   v: Vector, y: Vector, eta: float) -> float:
    """g(x) + <x, v> + (1/eta) D_H(x, y), the objective a prox map of (g, H)
    minimizes, at x or at each row of a stack x."""
    x = np.asarray(x, dtype=float)
    return per_row(
        g.value(x)
        + row_sum(x * np.asarray(v, dtype=float))
        + H.distance(x, np.asarray(y, dtype=float)) / eta
    )


def verify_prox_optimality(pm: ProxMap, v: Vector, y: Vector,
                           eta: float) -> float:
    """An upper bound on how far the prox output x = pm.solve(v, y, eta) is
    from the minimum of the map's objective g(z) + <z, v> + D_H(z, y) / eta:
    the first-order gap of g at x (``first_order_gap``) for the gradient
    s = v + (grad H(x) - grad H(y)) / eta of the smooth part.  For the
    quadratic H the objective is (1/eta)-strongly convex, and
    grad H(x) - grad H(y) = x - y.

    For entropy the difference is ln(x / y), over supp(y): where y_i = 0
    every point with z_i > 0 has an infinite objective, and so has x if
    x_i != 0 there.  An entry x_i below the smallest normal float tau
    (``entropic_update`` flushes such entries to 0) takes ln x_i at tau.
    On the simplex the objective is a constant plus the sum over supp(y) of
    the convex phi_i(t) = t v_i + (t ln(t / y_i) - t) / eta, and
    phi_i'(a_i) = s_i at a_i = max(x_i, tau).  The sum of the tangents of
    phi_i at a_i bounds it below, so the objective at x exceeds its
    minimum by at most the Frank-Wolfe gap plus, per entry below tau, the
    Bregman distance of phi_i from tau to x_i,
    (x_i ln(x_i / tau) - x_i + tau) / eta <= tau / eta: less than
    n 2.2e-308 / eta in all.  A correctly flushed entry's s_i is no smaller
    than the minimizer's multiplier, so it leaves the gap unchanged; a
    wrongly zeroed one has s_i far below the rest.
    """
    v, y = np.asarray(v, dtype=float), np.asarray(y, dtype=float)
    x = pm.solve(v, y, eta)
    if pm.H_kind == "quadratic":
        return first_order_gap(pm.g_kind, v + (x - y) / eta, x, eta)
    on = y > 0.0
    ln_ratio = np.log(np.maximum(x[on], SMALLEST_NORMAL)) - np.log(y[on])
    return np.inf if np.any(x[~on]) else first_order_gap(
        pm.g_kind, v[on] + ln_ratio / eta, x[on])
