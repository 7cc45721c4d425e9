"""Legendre-type generators, the distances they induce, and their identities.

A generator is convex on the closed domain with its gradient defined on the
interior.  The induced distance is

    D_h(x, y) = h(x) - h(y) - <x - y, grad h(y)>,

nonnegative for convex h, zero iff x = y when h is strictly convex.  Each
generator carries that distance in closed form; the definition above is
kept only as the reference the identity checks hold the closed forms to.
The composite generator (1/eta) H - f turns a Bregman proximal gradient
step into a generalized proximal point step; its distance is
D_H / eta - D_f.

Closed forms, oracles and checks take a vector (giving a float) or a
(rows, n) stack (one value per row; a check gives its worst row).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ContractViolation, DomainError, HypothesisViolation
from .functions import (
    DomainDescriptor,
    SmoothFunction,
    Vector,
    check_step,
    euclidean_space,
    on_simplex,
    per_row,
    probability_simplex,
    row_sum,
)


@dataclass(frozen=True, eq=False)
class BregmanGenerator:
    """Convex generator: value on the closed domain, gradient on its interior,
    and the closed form of the distance D_h it induces."""

    value: Callable[[Vector], float]
    grad: Callable[[Vector], Vector]
    distance: Callable[[Vector, Vector], float]
    domain: DomainDescriptor
    kind: str  # "quadratic" | "entropy" | "composite"

    def __post_init__(self):
        if self.kind not in ("quadratic", "entropy", "composite"):
            raise ContractViolation(f"unknown generator kind {self.kind!r}")


def half_squared_distance(x: Vector, y: Vector) -> float:
    """1/2 ||x - y||^2, the distance of the squared Euclidean generator."""
    return per_row(0.5 * row_sum((x - y) ** 2))


def kl_divergence(x: Vector, y: Vector) -> float:
    """sum_i x_i ln(x_i / y_i) - x_i + y_i with 0 ln 0 = 0, the distance of
    negative entropy: the log runs over supp(x) only, so the value is finite
    whenever y > 0 on supp(x), exact zeros of x included.

    A stack is worked on as one flat vector.  One argmin finds that every
    t = x / y - 1 exceeds -0.5 (README, "The extrema rule"), and the near
    ties that take the series are reached through flat indices, so an
    input without them pays for neither.  Support is found by a mask and a
    count: that mask is needed wherever x has zeros."""
    shape = None
    if x.ndim > 1 or y.ndim > 1:
        if x.shape != y.shape:  # a vector against a stack is tiled
            x, y = np.broadcast_arrays(x, y)
        shape, x, y = x.shape, x.reshape(-1), y.reshape(-1)
    s = x > 0.0
    if np.count_nonzero(s) == s.size:
        s, xs, ys = None, x, y
    else:
        # off supp(x) the term is y_i; x = 2, y = 1 stand in there, so
        # nothing divides by 0 and t = 1 takes neither the series nor ln(x/y)
        xs, ys = np.where(s, x, 2.0), np.where(s, y, 1.0)
    d = xs - ys
    t = d / ys
    # ln(x/y) loses the digits of t when x is near y, log1p(t) those of x/y
    # when x << y; either way x ln(x/y) - (x - y) is exact to about
    # eps |x - y|, which near a tie is a relative error of about eps / |t|.
    # Below -0.5 ln(x/y) is taken over the whole vector: under line search,
    # where a vector has such entries a third of the time, flat indices
    # cost more than the logs they save
    if not t.size or t.item(t.argmin()) > -0.5:
        term = np.log1p(t)
    else:
        term = np.where(t > -0.5, np.log1p(np.maximum(t, -0.5)),
                        np.log(xs / ys))
    term *= xs  # in place: xs is never NaN, so the product keeps its bits
    term -= d
    # so where |t| < 1e-3 the term y ((1+t) ln(1+t) - t) comes from its
    # series instead, whose first omitted term is below 1e-16 relative
    i = (np.abs(t) < 1e-3).nonzero()[0]
    if i.size:
        tn = t.take(i)
        term[i] = ys.take(i) * tn * tn * _kl_series(tn)
    if s is not None:
        term = np.where(s, term, y)
    return per_row(row_sum(term if shape is None else term.reshape(shape)))


def _kl_series(t: Vector) -> Vector:
    """((1+t) ln(1+t) - t) / t^2 by its series, for |t| < 1e-3."""
    return 0.5 + t * (-1 / 6 + t * (1 / 12 + t * (-1 / 20 + t / 30)))


# closed-form distance of each non-composite generator kind
DISTANCES = {"quadratic": half_squared_distance, "entropy": kl_divergence}


def squared_euclidean(n: int) -> BregmanGenerator:
    """H(x) = 1/2 ||x||^2; induces D_H(x, y) = 1/2 ||x - y||^2."""
    return BregmanGenerator(
        value=lambda x: per_row(0.5 * row_sum(np.square(x))),
        grad=lambda x: np.asarray(x, dtype=float).copy(),
        distance=half_squared_distance,
        domain=euclidean_space(n),
        kind="quadratic",
    )


def negative_entropy(n: int) -> BregmanGenerator:
    """H(x) = sum x_i ln x_i on the simplex, with 0 ln 0 = 0.

    The value oracle is finite on the whole closed simplex and masks zeros
    only where the whole stack's minimum is not positive (README "The
    extrema rule"); the gradient (1 + ln x_i) exists only where x > 0.
    """
    dom = probability_simplex(n)

    def value(x):
        x = np.asarray(x, dtype=float)
        if x.shape[-1:] != (n,):
            return np.inf
        if x.size and x.item(x.argmin()) > 0.0:
            xlogx = x * np.log(x)
        else:
            s = x > 0.0
            xlogx = np.where(s, x * np.log(np.where(s, x, 1.0)), 0.0)
        return per_row(np.where(on_simplex(x), row_sum(xlogx), np.inf))

    def grad(x):
        x = np.asarray(x, dtype=float)
        if not dom.interior(x):
            raise DomainError("entropy gradient needs strictly positive x")
        return 1.0 + np.log(x)

    return BregmanGenerator(
        value=value,
        grad=grad,
        distance=kl_divergence,
        domain=dom,
        kind="entropy",
    )


def bregman_distance(h: BregmanGenerator, x: Vector, y: Vector) -> float:
    """D_h(x, y) from the generator's closed form, for x in the closed domain
    and y in its interior; a stack is rejected if any row is not."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    _check_arguments(h, x, y)
    return per_row(h.distance(x, y))


def _check_arguments(h: BregmanGenerator, x: Vector, *ys: Vector) -> None:
    """DomainError unless x is in h's closed domain and each y interior."""
    if not h.domain.member(x):
        raise DomainError("first argument lies outside the closed domain")
    if not all(map(h.domain.interior, ys)):
        raise DomainError("second argument must be interior (gradient point)")


def reference_distance(h: BregmanGenerator, x: Vector, y: Vector) -> float:
    """D_h(x, y) = h(x) - h(y) - <x - y, grad h(y)> from the value and
    gradient oracles: the definition the closed forms are checked against."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    return per_row(h.value(x) - h.value(y)
                   - row_sum((x - y) * h.grad(y)))


def step_within_hypothesis(eta: float, L: float) -> bool:
    """eta L <= 1, under which (1/eta) H - f is convex (sigma = 1), to a
    slack of 1e-12 for the rounding of eta = 1/L."""
    return eta * L <= 1.0 + 1e-12


def composite_generator(H: BregmanGenerator, f: SmoothFunction,
                        eta: float) -> BregmanGenerator:
    """Generator h = (1/eta) H - f, with distance D_H / eta - D_f.

    Convexity of the result needs sigma >= eta * L, where sigma is the
    modulus of strong convexity of H in l2 and L the Lipschitz constant of
    grad f; a violated hypothesis raises.  The kind of H fixes sigma:
    1/2 ||x||^2 has sigma = 1, and so has negative entropy on the simplex,
    where every x_i <= 1 and its Hessian diag(1/x_i) dominates the identity
    (Pinsker's modulus 1 in l1 gives the same, since ||v||_1 >= ||v||_2).
    A composite H has none.
    """
    check_step(eta)
    if f.distance is None:
        raise ContractViolation("the smooth term has no closed-form distance")
    if H.kind == "composite":
        raise HypothesisViolation("H must be strongly convex")
    if f.lipschitz_grad is None:
        raise HypothesisViolation(
            "gradient Lipschitz constant of f is required"
        )
    if not step_within_hypothesis(eta, f.lipschitz_grad):
        raise HypothesisViolation(
            f"sigma = 1.0 < eta * L = {eta * f.lipschitz_grad}; "
            "composite generator not convex"
        )
    return BregmanGenerator(
        value=lambda x, H=H, f=f, eta=eta: H.value(x) / eta - f.value(x),
        grad=lambda x, H=H, f=f, eta=eta: np.asarray(H.grad(x)) / eta
        - np.asarray(f.grad(x)),
        distance=lambda x, y, H=H, f=f, eta=eta: H.distance(x, y) / eta
        - f.distance(x, y),
        domain=H.domain,
        kind="composite",
    )


def check_three_point(h: BregmanGenerator, a: Vector, b: Vector,
                      c: Vector) -> float:
    """Residual of D_h(c,a) + D_h(a,b) - D_h(c,b) = <grad h(b) - grad h(a), c - a>,
    c in the closed domain and a, b interior, as bregman_distance tests."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    c = np.asarray(c, dtype=float)
    _check_arguments(h, c, a, b)
    lhs = h.distance(c, a) + h.distance(a, b) - h.distance(c, b)
    rhs = row_sum((np.asarray(h.grad(b)) - np.asarray(h.grad(a))) * (c - a))
    return float(np.max(np.abs(lhs - rhs)))


def check_linearity(h1: BregmanGenerator, h2: BregmanGenerator, a: Vector,
                    b: Vector) -> float:
    """Worst residual of D_{h1}(a,b) +/- D_{h2}(a,b) = D_{h1 +/- h2}(a,b),
    the left side from the closed forms and the right side from the
    definition applied to h1 +/- h2."""
    d1 = bregman_distance(h1, a, b)
    d2 = bregman_distance(h2, a, b)
    r1 = reference_distance(h1, a, b)
    r2 = reference_distance(h2, a, b)
    return float(np.max(np.maximum(np.abs(d1 + d2 - (r1 + r2)),
                                   np.abs(d1 - d2 - (r1 - r2)))))
