"""Closed-form Bregman proximal maps.

Each map returns the exact minimizer of

    g(x) + <x, v> + (1/eta) D_H(x, y)

for one supported (g, H) pair; v is the gradient of the smooth term at the
linearization point, supplied by the caller so these maps stay independent
of any particular smooth function.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .bregman import DISTANCES
from .errors import ContractViolation, DomainError, NumericalFailure
from .functions import (NONSMOOTH_VALUES, Vector, check_step, per_row,
                        row_sum, worst_excess)

GeneratorKind = str  # "quadratic" | "entropy"

# the smallest normal float; mirror iterates hold no entry below it but 0
SMALLEST_NORMAL = np.finfo(float).tiny

FLOAT_MAX = float(np.finfo(float).max)


def soft_threshold(v: Vector, y: Vector, eta: float) -> Vector:
    """Minimizer of ||x||_1 + <x, v> + 1/(2 eta) ||x - y||^2.

    Componentwise shrink of y - eta v by eta.
    """
    check_step(eta)
    z = np.asarray(y, dtype=float) - eta * np.asarray(v, dtype=float)
    return np.sign(z) * np.maximum(np.abs(z) - eta, 0.0)


def simplex_projection(z: Vector) -> Vector:
    """Euclidean projection onto {x : sum x_i = 1, x >= 0} by sort-and-threshold."""
    z = np.asarray(z, dtype=float)
    x = _simplex_threshold(z)
    if x is None:
        # Entries that dwarf 1 (z = [1e17, 0, -3]) round the 1 out of the
        # prefix sums and leave no index; the projection is shift-invariant,
        # so retry (only then, so other inputs keep their exact result)
        # from max(z) = 0.  An entry the shift takes below -FLOAT_MAX is
        # -inf and projects to 0, and prefix sums that overflow are dropped
        with np.errstate(over="ignore"):
            x = _simplex_threshold(z - np.maximum.reduce(z))
        if x is None:
            raise NumericalFailure(
                "cannot project a non-finite point onto the simplex")
    return x


def _simplex_threshold(z: Vector):
    """max(z - theta, 0), theta = css_rho / rho at the last rho with
    u_rho - css_rho / rho > 0, u the entries of z in decreasing order and
    css their prefix sums less 1; None where no rho has it."""
    u = z.copy()
    u.sort()
    u = u[::-1]
    # n entries below this magnitude sum to below FLOAT_MAX, rounding
    # included, and z - theta stays below it; past it an overflow is handled
    limit = FLOAT_MAX / (2 * u.size)
    if u[0] < limit and u[-1] > -limit:
        return _threshold_sorted(z, u)
    with np.errstate(over="ignore"):
        return _threshold_sorted(z, u)


def _threshold_sorted(z: Vector, u: Vector):
    """_simplex_threshold of z, given u."""
    css = np.add.accumulate(u)
    css -= 1.0
    css /= np.arange(1.0, u.size + 1.0)
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
    x = z - theta
    return np.maximum(x, 0.0, out=x)


def project_simplex(v: Vector, y: Vector, eta: float) -> Vector:
    """Minimizer over the simplex of <x, v> + 1/(2 eta) ||x - y||^2."""
    check_step(eta)
    return simplex_projection(np.asarray(y, dtype=float)
                              - eta * np.asarray(v, dtype=float))


def entropic_update(v: Vector, y: Vector, eta: float) -> Vector:
    """Mirror step on the simplex: x_i = y_i exp(-eta v_i) / normalization.

    Exponents are shifted by their maximum over supp(y) before
    exponentiating so that large steps (eta far above 1/L during line
    search) cannot overflow.  Zero components of y stay zero, and
    components below the smallest normal float become zero.
    """
    check_step(eta)
    y = np.asarray(y, dtype=float)
    y_min = np.minimum.reduce(y)
    if y_min < 0.0:
        raise DomainError("mirror step undefined for negative components")
    x = -eta * np.asarray(v, dtype=float)
    if not y_min > 0.0:
        x = np.where(y > 0.0, x, -np.inf)
    x -= np.maximum.reduce(x)
    np.multiply(np.exp(x, out=x), y, out=x)  # y exp(x - max x), in place
    x /= np.add.reduce(x)
    # subnormal entries weigh nothing in any sum, but as operands they make
    # every later matvec several times slower; they become exact zeros,
    # which stay zero
    x[x < SMALLEST_NORMAL] = 0.0
    return x


def gradient_step(v: Vector, y: Vector, eta: float) -> Vector:
    """Minimizer of <x, v> + 1/(2 eta) ||x - y||^2 (g identically zero)."""
    check_step(eta)
    return np.asarray(y, dtype=float) - eta * np.asarray(v, dtype=float)


@dataclass(frozen=True, eq=False)
class ProxMap:
    """Closed-form inner solver for one (g, H) pair."""

    g_kind: str  # "l1" | "simplex" | "zero"
    H_kind: GeneratorKind
    solve: Callable[[Vector, Vector, float], Vector]


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


def prox_objective(pm: ProxMap, x: Vector, v: Vector, y: Vector,
                   eta: float) -> float:
    """g(x) + <x, v> + (1/eta) D_H(x, y) for the map's (g, H) pair, at x or
    at each row of a stack x."""
    x = np.asarray(x, dtype=float)
    return per_row(
        NONSMOOTH_VALUES[pm.g_kind](x)
        + row_sum(x * np.asarray(v, dtype=float))
        + DISTANCES[pm.H_kind](x, np.asarray(y, dtype=float)) / eta
    )


def verify_prox_optimality(pm: ProxMap, v: Vector, y: Vector, eta: float,
                           trials: int = 1000, seed: int = 0) -> float:
    """Worst objective excess of the prox output over ``trials`` random
    feasible points (``worst_excess``).

    Nonpositive (up to rounding) iff the output is a global minimizer.
    """
    if trials < 100:
        raise ContractViolation("trials must be >= 100")
    rng = np.random.Generator(np.random.Philox(seed))
    return float(worst_excess(lambda x: prox_objective(pm, x, v, y, eta),
                              pm.solve(v, y, eta), pm.g_kind, rng, trials))
