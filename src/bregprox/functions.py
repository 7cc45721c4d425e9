"""Convex function oracles, composite problems, and linear-algebra helpers.

Smooth terms are plain (value, gradient) oracle pairs with an optional
Lipschitz constant of the gradient.  Nonsmooth terms may return ``+inf``,
which is an in-band value (indicator functions), never an error.

Values and distances take a vector (giving a float) or a (rows, n) stack
(one value per row); gradients take a vector.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

from .errors import ContractViolation, DegenerateInput, NumericalFailure

Vector = np.ndarray

SIMPLEX_SUM_TOL = 1e-9
SIMPLEX_MEMBER_MIN = -1e-12
SIMPLEX_INTERIOR_MIN = 1e-300

# rows per stacked call of the randomized checks: one call per block, with
# memory bounded at any sample count
BLOCK_ROWS = 1_000


def on_simplex(x: Vector, floor: float = SIMPLEX_MEMBER_MIN):
    """Per row of x (the last axis is the vector): every entry >= floor and
    the sum within SIMPLEX_SUM_TOL of 1."""
    return (x.min(axis=-1) >= floor) & \
        (abs(x.sum(axis=-1) - 1.0) <= SIMPLEX_SUM_TOL)


def per_row(r):
    """A result with one entry per row: a Python float for a single vector,
    the array for a stack."""
    return r if isinstance(r, np.ndarray) and r.ndim else float(r)


def blocks(samples: int):
    """Row counts of the blocks that make up ``samples`` samples; the last
    block is partial."""
    return [min(BLOCK_ROWS, samples - start)
            for start in range(0, samples, BLOCK_ROWS)]


# the value of each nonsmooth kind at x, or at each row of a stack: the one
# coding that NonsmoothTerm values and prox objectives share
NONSMOOTH_VALUES = {
    "l1": lambda x: per_row(np.sum(np.abs(x), axis=-1)),
    "simplex": lambda x: per_row(np.where(on_simplex(x), 0.0, np.inf)),
    "zero": lambda x: per_row(np.zeros(np.shape(x)[:-1])),
}


@dataclass(frozen=True, eq=False)
class DomainDescriptor:
    """Feasible set: all of R^n or the probability simplex."""

    kind: str  # "rn" | "simplex"
    ambient_dimension: int

    def __post_init__(self):
        if self.kind not in ("rn", "simplex"):
            raise ContractViolation(f"unknown domain kind {self.kind!r}")
        if self.ambient_dimension < 1:
            raise ContractViolation("ambient_dimension must be positive")

    def member(self, x: Vector) -> bool:
        return self._contains(x, SIMPLEX_MEMBER_MIN)

    def interior(self, x: Vector) -> bool:
        return self._contains(x, SIMPLEX_INTERIOR_MIN)

    def _contains(self, x: Vector, floor: float) -> bool:
        """x, or every row of a (rows, n) stack, lies inside."""
        x = np.asarray(x, dtype=float)
        if x.ndim not in (1, 2) or x.shape[-1] != self.ambient_dimension:
            return False
        return self.kind == "rn" or bool(on_simplex(x, floor).all())

    def bounded(self) -> bool:
        return self.kind == "simplex"


def euclidean_space(n: int) -> DomainDescriptor:
    return DomainDescriptor("rn", n)


def probability_simplex(n: int) -> DomainDescriptor:
    return DomainDescriptor("simplex", n)


@dataclass(frozen=True, eq=False)
class SmoothFunction:
    """Differentiable convex function given by value and gradient oracles.

    ``lipschitz_grad`` is the Lipschitz constant L of the gradient (the
    paper-side step-size hypothesis reads eta <= 1/L).  ``None`` means
    unknown.  ``distance`` is the closed form of the Bregman distance
    D_f(x, y) = f(x) - f(y) - <x - y, grad f(y)>, which the solvers need;
    ``None`` means none is known.

    ``value`` and ``distance`` take x as a vector, giving a float, or as a
    (rows, n) stack, giving one value per row (y a vector or a stack of the
    same rows); ``grad`` takes a vector.
    """

    value: Callable[[Vector], float]
    grad: Callable[[Vector], Vector]
    dimension: int
    lipschitz_grad: Optional[float] = None
    distance: Optional[Callable[[Vector, Vector], float]] = None

    def __post_init__(self):
        if self.dimension < 1:
            raise ContractViolation("dimension must be positive")
        if self.lipschitz_grad is not None and self.lipschitz_grad < 0:
            raise ContractViolation("lipschitz_grad must be nonnegative")

    def stepper(self, x0: Vector) -> "OracleStepper":
        """What an iteration carries of f from one step to the next,
        starting at x0: here nothing but the point."""
        return OracleStepper(self, x0)


class OracleStepper:
    """f at the current point x of an iteration, through its oracles.

    ``grad()`` is the gradient at x, ``distance(cand)`` is D_f(cand, x),
    and ``accept()`` moves x to the candidate last passed to ``distance``
    and returns f there.
    """

    def __init__(self, f: SmoothFunction, x0: Vector):
        self.f, self.x = f, x0

    def grad(self) -> Vector:
        return np.asarray(self.f.grad(self.x), dtype=float)

    def distance(self, cand: Vector) -> float:
        self.cand = cand
        return self.f.distance(cand, self.x)

    def accept(self) -> float:
        self.x = self.cand
        return self.f.value(self.x)


@dataclass(frozen=True, eq=False)
class LeastSquaresFunction(SmoothFunction):
    """f(x) = 1/2 ||A x - b||^2 with A, b kept explicit so that the exact
    gradient-Lipschitz constant lambda_max(A^T A) is computable."""

    A: np.ndarray = None
    b: np.ndarray = None

    def stepper(self, x0: Vector) -> "ResidualStepper":
        return ResidualStepper(self.A, self.b, x0)


class ResidualStepper:
    """``OracleStepper``'s three operations for least squares, with the
    residual r = A x - b at the current point x carried along: the gradient
    is A^T r, D_f(cand, x) = 1/2 ||A d||^2 with d = cand - x, and accepting
    the candidate updates r to r + A d.  A step costs one pass over A for
    the gradient and one per candidate.  The carried r drifts from A x - b
    only by rounding: over 5,000 steps the objective stays within a few
    1e-15 relative of a fresh evaluation, so it is never recomputed.
    """

    def __init__(self, A: np.ndarray, b: np.ndarray, x0: Vector):
        self.A, self.x, self.r = A, x0, A @ x0 - b

    def grad(self) -> Vector:
        return self.A.T @ self.r

    def distance(self, cand: Vector) -> float:
        self.cand, self.Ad = cand, self.A @ (cand - self.x)
        return float(0.5 * (self.Ad ** 2).sum())

    def accept(self) -> float:
        self.x, self.r = self.cand, self.r + self.Ad
        return float(0.5 * (self.r ** 2).sum())


@dataclass(frozen=True, eq=False)
class NonsmoothTerm:
    """Proper closed convex term; the value oracle may return +inf.

    ``value`` takes a vector, giving a float, or a (rows, n) stack, giving
    one value per row.
    """

    value: Callable[[Vector], float]
    kind: str  # "l1" | "simplex" | "zero"

    def __post_init__(self):
        if self.kind not in NONSMOOTH_VALUES:
            raise ContractViolation(f"unknown nonsmooth kind {self.kind!r}")


@dataclass(frozen=True, eq=False)
class CompositeProblem:
    """Composite objective F = f + g over a feasible domain.

    ``optimum_oracle`` is an optional (x_star, F_star) reference pair, used
    only by certificate checks.
    """

    f: SmoothFunction
    g: NonsmoothTerm
    domain: DomainDescriptor
    optimum_oracle: Optional[Tuple[Vector, float]] = None
    problem_id: str = ""

    def __post_init__(self):
        if self.f.dimension != self.domain.ambient_dimension:
            raise ContractViolation(
                "smooth term dimension does not match the domain"
            )


def zero_function(n: int) -> SmoothFunction:
    return SmoothFunction(
        value=lambda x: per_row(np.zeros(np.shape(x)[:-1])),
        grad=lambda x: np.zeros(n),
        dimension=n,
        lipschitz_grad=0.0,
        distance=lambda x, y: per_row(np.zeros(np.shape(x)[:-1])),
    )


def least_squares(A: np.ndarray, b: np.ndarray,
                  lipschitz: Optional[float] = None) -> LeastSquaresFunction:
    """f(x) = 1/2 ||A x - b||^2 with exact gradient A^T (A x - b) and
    D_f(x, y) = 1/2 ||A (x - y)||^2.

    A stack x is applied as (A x^T)^T, so a vector still computes A x."""
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    if A.ndim != 2 or b.shape != (A.shape[0],):
        raise ContractViolation("A must be 2-D with b matching its row count")
    return LeastSquaresFunction(
        value=lambda x: per_row(0.5 * np.sum(((A @ x.T).T - b) ** 2,
                                             axis=-1)),
        grad=lambda x: A.T @ (A @ x - b),
        dimension=A.shape[1],
        lipschitz_grad=lipschitz,
        distance=lambda x, y: per_row(
            0.5 * np.sum((A @ (x - y).T).T ** 2, axis=-1)),
        A=A,
        b=b,
    )


def shifted_quadratic(b: np.ndarray, gamma: float) -> SmoothFunction:
    """f(x) = 1/(2 gamma) ||x - b||^2; gradient Lipschitz constant is 1/gamma
    and D_f(x, y) = ||x - y||^2 / (2 gamma)."""
    b = np.asarray(b, dtype=float)
    if gamma <= 0:
        raise ContractViolation("gamma must be positive")
    return SmoothFunction(
        value=lambda x: per_row(0.5 / gamma * np.sum((x - b) ** 2, axis=-1)),
        grad=lambda x: (x - b) / gamma,
        dimension=b.size,
        lipschitz_grad=1.0 / gamma,
        distance=lambda x, y: per_row(
            0.5 / gamma * np.sum((x - y) ** 2, axis=-1)),
    )


def l1_norm() -> NonsmoothTerm:
    return NonsmoothTerm(value=NONSMOOTH_VALUES["l1"], kind="l1")


def simplex_indicator(n: int) -> NonsmoothTerm:
    """Indicator of the probability simplex in R^n; +inf at a point of
    another dimension."""
    if n < 1:
        raise ContractViolation("dimension must be positive")

    def value(x):
        x = np.asarray(x, dtype=float)
        return NONSMOOTH_VALUES["simplex"](x) if x.shape[-1:] == (n,) \
            else np.inf

    return NonsmoothTerm(value=value, kind="simplex")


def zero_term() -> NonsmoothTerm:
    return NonsmoothTerm(value=NONSMOOTH_VALUES["zero"], kind="zero")


def evaluate_composite(p: CompositeProblem, x: Vector) -> float:
    """F(x) = f(x) + g(x), +inf where g(x) = +inf, at x or at each row of a
    (rows, n) stack x."""
    x = np.asarray(x, dtype=float)
    if x.ndim not in (1, 2) or x.shape[-1] != p.f.dimension:
        raise ContractViolation(
            f"point has shape {x.shape}, expected ({p.f.dimension},) or "
            f"(rows, {p.f.dimension})"
        )
    return per_row(p.f.value(x) + p.g.value(x))


def check_gradient(f: SmoothFunction, x: Vector, h: float = 1e-6) -> float:
    """Max relative mismatch between the gradient oracle and central differences."""
    if h <= 0:
        raise ContractViolation("finite-difference step must be positive")
    x = np.asarray(x, dtype=float)
    g = np.asarray(f.grad(x), dtype=float)
    if not np.all(np.isfinite(g)):
        raise NumericalFailure("gradient oracle returned non-finite values")
    worst = 0.0
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        fd = (f.value(x + e) - f.value(x - e)) / (2.0 * h)
        if not np.isfinite(fd):
            raise NumericalFailure("finite difference produced non-finite value")
        worst = max(worst, abs(fd - g[i]) / (1.0 + abs(g[i])))
    return worst


def estimate_spectral_norm(A: np.ndarray, iterations: int = 1000,
                           seed: int = 0) -> float:
    """Power-iteration estimate of lambda_max(A^T A).

    Deterministic seeded start vector; stops when successive Rayleigh
    quotients agree to 1e-10 relative, else at the iteration cap.
    """
    A = np.asarray(A, dtype=float)
    if iterations < 1:
        raise ContractViolation("iterations must be >= 1")
    if A.ndim != 2 or not np.any(A):
        raise DegenerateInput("matrix must be nonzero and 2-D")
    rng = np.random.Generator(np.random.Philox(seed))
    v = rng.standard_normal(A.shape[1])
    v /= np.linalg.norm(v)
    rayleigh = 0.0
    for _ in range(iterations):
        w = A.T @ (A @ v)
        norm = np.linalg.norm(w)
        if norm == 0.0:
            # v landed exactly in the null space; restart from fresh noise
            v = rng.standard_normal(A.shape[1])
            v /= np.linalg.norm(v)
            continue
        v = w / norm
        new = float(v @ (A.T @ (A @ v)))
        if abs(new - rayleigh) < 1e-10 * max(1.0, abs(new)):
            return new
        rayleigh = new
    return rayleigh
