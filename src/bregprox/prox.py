"""Closed-form Bregman proximal maps.

Each map returns the exact minimizer of

    g(x) + <x, v> + (1/eta) D_H(x, y)

for one supported (g, H) pair; v is the gradient of the smooth term at the
linearization point, supplied by the caller so these maps stay independent
of any particular smooth function.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .bregman import DISTANCES
from .errors import ContractViolation, DomainError, NumericalFailure
from .functions import NONSMOOTH_VALUES, Vector, blocks, per_row

GeneratorKind = str  # "quadratic" | "entropy"

# the smallest normal float; mirror iterates hold no entry below it but 0
SMALLEST_NORMAL = np.finfo(float).tiny


def soft_threshold(v: Vector, y: Vector, eta: float) -> Vector:
    """Minimizer of ||x||_1 + <x, v> + 1/(2 eta) ||x - y||^2.

    Componentwise shrink of y - eta v by eta.
    """
    if eta <= 0:
        raise ContractViolation("eta must be positive")
    z = np.asarray(y, dtype=float) - eta * np.asarray(v, dtype=float)
    return np.sign(z) * np.maximum(np.abs(z) - eta, 0.0)


def simplex_projection(z: Vector) -> Vector:
    """Euclidean projection onto {x : sum x_i = 1, x >= 0} by sort-and-threshold."""
    z = np.asarray(z, dtype=float)
    ks = np.arange(1, z.size + 1)
    # Entries that dwarf 1 (z = [1e17, 0, -3]) round the 1 out of the cumsum
    # and empty the mask; the projection is shift-invariant, so retry (only
    # then, so other inputs keep their exact result) from max(z) = 0.
    for shift in (0.0, np.max(z)):
        u = np.sort(z - shift)[::-1]
        css = np.cumsum(u) - 1.0
        above = u - css / ks > 0
        if above.any():
            rho = ks[above][-1]
            return np.maximum(z - shift - css[rho - 1] / rho, 0.0)
    raise NumericalFailure("cannot project a non-finite point onto the simplex")


def project_simplex(v: Vector, y: Vector, eta: float) -> Vector:
    """Minimizer over the simplex of <x, v> + 1/(2 eta) ||x - y||^2."""
    if eta <= 0:
        raise ContractViolation("eta must be positive")
    return simplex_projection(np.asarray(y, dtype=float)
                              - eta * np.asarray(v, dtype=float))


def entropic_update(v: Vector, y: Vector, eta: float) -> Vector:
    """Mirror step on the simplex: x_i = y_i exp(-eta v_i) / normalization.

    Exponents are shifted by their maximum over supp(y) before
    exponentiating so that large steps (eta far above 1/L during line
    search) cannot overflow.  Zero components of y stay zero, and
    components below the smallest normal float become zero.
    """
    if eta <= 0:
        raise ContractViolation("eta must be positive")
    y = np.asarray(y, dtype=float)
    if y.min() < 0.0:
        raise DomainError("mirror step undefined for negative components")
    expo = np.where(y > 0.0, -eta * np.asarray(v, dtype=float), -np.inf)
    w = y * np.exp(expo - expo.max())
    x = w / w.sum()
    # subnormal entries weigh nothing in any sum, but as operands they make
    # every later matvec several times slower; they become exact zeros,
    # which stay zero
    x[x < SMALLEST_NORMAL] = 0.0
    return x


def gradient_step(v: Vector, y: Vector, eta: float) -> Vector:
    """Minimizer of <x, v> + 1/(2 eta) ||x - y||^2 (g identically zero)."""
    if eta <= 0:
        raise ContractViolation("eta must be positive")
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
        + np.sum(x * np.asarray(v, dtype=float), axis=-1)
        + DISTANCES[pm.H_kind](x, np.asarray(y, dtype=float)) / eta
    )


def sample_feasible(g_kind: str, around: Vector, rng, size=None) -> Vector:
    """A random point where g is finite, or a (size, n) stack of them:
    uniform on the simplex for the simplex indicator, else ``around`` plus
    noise at a random scale."""
    n = around.size
    if g_kind == "simplex":
        return rng.dirichlet(np.ones(n), size=size)
    rows = () if size is None else (size,)
    scale = 1.0 + np.linalg.norm(around)
    spread = 10.0 ** rng.uniform(-6, 0, size=rows + (1,))
    return around + scale * spread * rng.standard_normal(rows + (n,))


def verify_prox_optimality(pm: ProxMap, v: Vector, y: Vector, eta: float,
                           trials: int = 1000, seed: int = 0) -> float:
    """Worst objective excess of the prox output over random feasible points,
    drawn and evaluated in blocks of at most ``BLOCK_ROWS`` rows.

    Nonpositive (up to rounding) iff the output is a global minimizer.
    """
    if trials < 100:
        raise ContractViolation("trials must be >= 100")
    rng = np.random.Generator(np.random.Philox(seed))
    x_plus = pm.solve(v, y, eta)
    base = prox_objective(pm, x_plus, v, y, eta)
    worst = -np.inf
    for rows in blocks(trials):
        z = sample_feasible(pm.g_kind, x_plus, rng, size=rows)
        worst = np.max(base - prox_objective(pm, z, v, y, eta),
                       initial=worst)
    return float(worst)
