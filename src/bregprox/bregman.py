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

import logging
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ContractViolation, DomainError, HypothesisViolation
from .functions import (
    DomainDescriptor,
    SmoothFunction,
    Vector,
    euclidean_space,
    on_simplex,
    per_row,
    probability_simplex,
)

logger = logging.getLogger(__name__)

# generator kinds whose strong-convexity norm caveat has been logged in this
# process: the caveat is a fact about the kind, so it is stated once
_NORM_CAVEAT_LOGGED: set = set()


@dataclass(frozen=True, eq=False)
class BregmanGenerator:
    """Convex generator: value on the closed domain, gradient on its interior,
    and the closed form of the distance D_h it induces.

    ``strong_convexity`` is the modulus sigma (0 means unknown/none) and
    ``strong_convexity_norm`` names the norm it is stated in.  Negative
    entropy is recorded with sigma = 1 in the l1 norm on the simplex
    (Pinsker); on the simplex the same modulus also holds in l2 since the
    Hessian diag(1/x_i) dominates the identity there, but the record keeps
    the l1 caveat explicit.
    """

    value: Callable[[Vector], float]
    grad: Callable[[Vector], Vector]
    distance: Callable[[Vector, Vector], float]
    domain: DomainDescriptor
    strong_convexity: float
    kind: str  # "quadratic" | "entropy" | "composite"
    strong_convexity_norm: str = "l2"

    def __post_init__(self):
        if self.kind not in ("quadratic", "entropy", "composite"):
            raise ContractViolation(f"unknown generator kind {self.kind!r}")
        if self.strong_convexity < 0:
            raise ContractViolation("strong_convexity must be nonnegative")


@dataclass(frozen=True)
class ProximalDistanceAxioms:
    """Outcome of the randomized axiom checks for a candidate distance."""

    nonnegativity_holds: bool
    identity_of_indiscernibles_holds: bool
    convex_in_first_arg_holds: bool
    bounded_level_set_holds: bool

    def all_hold(self) -> bool:
        return (
            self.nonnegativity_holds
            and self.identity_of_indiscernibles_holds
            and self.convex_in_first_arg_holds
            and self.bounded_level_set_holds
        )


def half_squared_distance(x: Vector, y: Vector) -> float:
    """1/2 ||x - y||^2, the distance of the squared Euclidean generator."""
    return per_row(0.5 * np.sum((x - y) ** 2, axis=-1))


def kl_divergence(x: Vector, y: Vector) -> float:
    """sum_i x_i ln(x_i / y_i) - x_i + y_i with 0 ln 0 = 0, the distance of
    negative entropy: the log runs over supp(x) only, so the value is finite
    whenever y > 0 on supp(x), exact zeros of x included."""
    s = x > 0.0
    # off supp(x) the term is y_i; 1 stands in there so nothing divides by 0
    xs, ys = np.where(s, x, 1.0), np.where(s, y, 1.0)
    d = xs - ys
    t = d / ys
    # ln(x/y) loses the digits of t when x is near y, log1p(t) those of x/y
    # when x << y; either way x ln(x/y) - (x - y) is exact to about
    # eps |x - y|, which near a tie is a relative error of about eps / |t|
    log_ratio = np.where(t > -0.5, np.log1p(np.maximum(t, -0.5)),
                         np.log(xs / ys))
    term = xs * log_ratio - d
    # so for |t| < 1e-3 the term y ((1+t) ln(1+t) - t) comes from its series,
    # whose first omitted term is below 1e-16 relative
    near = np.abs(t) < 1e-3
    tn = t[near]
    term[near] = ys[near] * tn * tn * (0.5 + tn * (-1 / 6 + tn * (
        1 / 12 + tn * (-1 / 20 + tn / 30))))
    return per_row(np.where(s, term, y).sum(axis=-1))


# closed-form distance of each non-composite generator kind
DISTANCES = {"quadratic": half_squared_distance, "entropy": kl_divergence}


def squared_euclidean(n: int) -> BregmanGenerator:
    """H(x) = 1/2 ||x||^2; induces D_H(x, y) = 1/2 ||x - y||^2."""
    return BregmanGenerator(
        value=lambda x: per_row(0.5 * np.sum(np.square(x), axis=-1)),
        grad=lambda x: np.asarray(x, dtype=float).copy(),
        distance=half_squared_distance,
        domain=euclidean_space(n),
        strong_convexity=1.0,
        kind="quadratic",
    )


def negative_entropy(n: int) -> BregmanGenerator:
    """H(x) = sum x_i ln x_i on the simplex, with 0 ln 0 = 0.

    The value oracle is finite on the whole closed simplex; the gradient
    (1 + ln x_i) exists only at strictly positive points.
    """
    dom = probability_simplex(n)

    def value(x):
        x = np.asarray(x, dtype=float)
        if x.shape[-1:] != (n,):
            return np.inf
        s = x > 0.0
        xlogx = np.where(s, x * np.log(np.where(s, x, 1.0)), 0.0)
        return per_row(np.where(on_simplex(x), np.sum(xlogx, axis=-1),
                                np.inf))

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
        strong_convexity=1.0,
        kind="entropy",
        strong_convexity_norm="l1",
    )


def bregman_distance(h: BregmanGenerator, x: Vector, y: Vector) -> float:
    """D_h(x, y) from the generator's closed form, for x in the closed domain
    and y in its interior; a stack is rejected if any row is not."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if not h.domain.member(x):
        raise DomainError("first argument lies outside the closed domain")
    if not h.domain.interior(y):
        raise DomainError("second argument must be interior (gradient point)")
    return per_row(h.distance(x, y))


def reference_distance(h: BregmanGenerator, x: Vector, y: Vector) -> float:
    """D_h(x, y) = h(x) - h(y) - <x - y, grad h(y)> from the value and
    gradient oracles: the definition the closed forms are checked against."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    return per_row(h.value(x) - h.value(y)
                   - np.sum((x - y) * h.grad(y), axis=-1))


def composite_generator(H: BregmanGenerator, f: SmoothFunction, eta: float,
                        unchecked: bool = False) -> BregmanGenerator:
    """Generator h = (1/eta) H - f, with distance D_H / eta - D_f.

    Convexity of the result needs sigma >= eta * L where L is the Lipschitz
    constant of grad f; violated hypotheses raise unless ``unchecked`` is
    set (negative testing, line-search probing above 1/L).
    """
    if eta <= 0:
        raise ContractViolation("eta must be positive")
    if f.distance is None:
        raise ContractViolation("the smooth term has no closed-form distance")
    if not unchecked:
        if H.strong_convexity <= 0:
            raise HypothesisViolation("H must be strongly convex")
        if f.lipschitz_grad is None:
            raise HypothesisViolation(
                "gradient Lipschitz constant of f is required"
            )
        if H.strong_convexity < eta * f.lipschitz_grad - 1e-12:
            raise HypothesisViolation(
                f"sigma = {H.strong_convexity} < eta * L = "
                f"{eta * f.lipschitz_grad}; composite generator not convex"
            )
        if H.strong_convexity_norm != "l2" and \
                H.kind not in _NORM_CAVEAT_LOGGED:
            _NORM_CAVEAT_LOGGED.add(H.kind)
            logger.warning(
                "strong convexity of %s generator is recorded in the %s "
                "norm; the convexity hypothesis is checked against it as if "
                "it held in l2",
                H.kind, H.strong_convexity_norm,
            )
    return BregmanGenerator(
        value=lambda x, H=H, f=f, eta=eta: H.value(x) / eta - f.value(x),
        grad=lambda x, H=H, f=f, eta=eta: np.asarray(H.grad(x)) / eta
        - np.asarray(f.grad(x)),
        distance=lambda x, y, H=H, f=f, eta=eta: H.distance(x, y) / eta
        - f.distance(x, y),
        domain=H.domain,
        strong_convexity=0.0,
        kind="composite",
    )


def check_three_point(h: BregmanGenerator, a: Vector, b: Vector,
                      c: Vector) -> float:
    """Residual of D_h(c,a) + D_h(a,b) - D_h(c,b) = <grad h(b) - grad h(a), c - a>."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    c = np.asarray(c, dtype=float)
    lhs = (
        bregman_distance(h, c, a)
        + bregman_distance(h, a, b)
        - bregman_distance(h, c, b)
    )
    rhs = np.sum((np.asarray(h.grad(b)) - np.asarray(h.grad(a))) * (c - a),
                 axis=-1)
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


def _draw(domain: DomainDescriptor, rng, shape: tuple) -> Vector:
    """Interior points of the domain, an array of shape ``shape + (n,)``."""
    n = domain.ambient_dimension
    if domain.kind == "simplex":
        return rng.dirichlet(np.ones(n), size=shape)
    return rng.standard_normal(shape + (n,))


def verify_proximal_distance_axioms(h: BregmanGenerator, samples: int = 1000,
                                    seed: int = 0) -> ProximalDistanceAxioms:
    """Randomized check of the proximal-distance axioms for D_h, each axiom
    in one stacked call over ``samples`` rows.

    Failures are reported in the returned record, never raised: degenerate
    composite generators (flat in some directions) legitimately fail the
    identity-of-indiscernibles and bounded-level-set checks.
    """
    if samples < 100:
        raise ContractViolation("samples must be >= 100")
    rng = np.random.Generator(np.random.Philox(seed))
    n = h.domain.ambient_dimension
    points = _draw(h.domain, rng, (4, samples))
    if h.domain.kind == "simplex" and n > 1:
        # exercise the boundary of the closed simplex: one entry of about a
        # fifth of the first arguments set to zero
        members = points[:2]
        hit = rng.random(members.shape[:2]) < 0.2
        members[hit, rng.integers(n, size=np.count_nonzero(hit))] = 0.0
        members /= np.sum(members, axis=-1, keepdims=True)
    x, x2, y, y2 = points

    d = bregman_distance(h, x, y)
    apart = np.linalg.norm(x - y, axis=-1) >= 1e-4
    nonneg = bool(np.all(d >= -1e-12))
    identity = bool(np.all(d[apart] >= 1e-8)
                    and np.all(bregman_distance(h, y2, y2) <= 1e-12))
    lam = rng.uniform(0.05, 0.95, size=samples)
    mid = lam[:, None] * x + (1.0 - lam[:, None]) * x2
    if h.domain.kind == "simplex":
        mid = mid / np.sum(mid, axis=-1, keepdims=True)
    convex = bool(np.all(bregman_distance(h, mid, y) <= lam * d + (1.0 - lam)
                         * bregman_distance(h, x2, y) + 1e-10))

    bounded = _bounded_level_sets(h, rng)
    return ProximalDistanceAxioms(nonneg, identity, convex, bounded)


def _bounded_level_sets(h: BregmanGenerator, rng) -> bool:
    if h.domain.bounded():
        return True
    n = h.domain.ambient_dimension
    y = _draw(h.domain, rng, ())
    if h.kind == "quadratic":
        # analytic cap: {x : 1/2 ||x - y||^2 <= alpha} has radius sqrt(2 alpha)
        x = y + rng.standard_normal((100, n))
        d = bregman_distance(h, x, y)
        return bool(np.all(np.linalg.norm(x - y, axis=-1)
                           <= np.sqrt(2.0 * d) + 1e-8))
    # composite on an unbounded domain: require growth along random rays
    u = rng.standard_normal((50, n))
    u /= np.linalg.norm(u, axis=-1, keepdims=True)
    return bool(np.all(bregman_distance(h, y + 1e4 * u, y) >= 1.0))
