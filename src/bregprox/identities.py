"""Randomized identity and optimality suites.

These are the executable forms of the algebraic facts the solvers rely on:
three-point and linearity identities of Bregman distances, nonnegativity,
the constant-offset identity tying the proximal gradient objective to the
proximal point objective, and global optimality of the closed-form prox
maps.  The CLI and the test suite both run them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from .bregman import (
    BregmanGenerator,
    bregman_distance,
    check_linearity,
    check_three_point,
    composite_generator,
    negative_entropy,
    reference_distance,
    squared_euclidean,
)
from .errors import ContractViolation
from .functions import (
    CompositeProblem,
    blocks,
    least_squares,
    probability_simplex,
    simplex_indicator,
)
from .prox import make_prox_map, prox_objective, verify_prox_optimality
from .solvers import gppa_objective


@dataclass(frozen=True)
class SuiteResult:
    name: str
    worst: float
    threshold: float
    passed: bool


def _result(name: str, worst: float, threshold: float) -> SuiteResult:
    worst = float(worst)
    return SuiteResult(name, worst, threshold, worst <= threshold)


def three_point_suite(samples: int, seed: int) -> List[SuiteResult]:
    rng = np.random.Generator(np.random.Philox(seed))
    hq = squared_euclidean(3)
    he = negative_entropy(5)
    # np.maximum, unlike max(), keeps a NaN residual
    worst_q = 0.0
    worst_e = 0.0
    for rows in blocks(samples):
        a, b, c = rng.standard_normal((3, rows, 3))
        worst_q = np.maximum(worst_q, check_three_point(hq, a, b, c))
        a, b, c = rng.dirichlet(np.ones(5), size=(3, rows))
        worst_e = np.maximum(worst_e, check_three_point(he, a, b, c))
    return [
        _result("three_point_quadratic", worst_q, 1e-10),
        _result("three_point_entropy", worst_e, 1e-10),
    ]


def linearity_suite(samples: int, seed: int) -> List[SuiteResult]:
    rng = np.random.Generator(np.random.Philox(seed))
    n = 5
    hq = squared_euclidean(n)
    he = negative_entropy(n)
    worst = 0.0
    for rows in blocks(samples):
        a, b = rng.dirichlet(np.ones(n), size=(2, rows))
        worst = np.maximum(worst, check_linearity(hq, he, a, b))
    return [_result("linearity_quadratic_entropy", worst, 1e-10)]


def nonnegativity_suite(samples: int, seed: int,
                        inject_fault: bool = False) -> List[SuiteResult]:
    """Worst of -D_h and of |D_h - definition| over random pairs: each closed
    form must be nonnegative and equal the distance its oracles define."""
    rng = np.random.Generator(np.random.Philox(seed))
    hq = squared_euclidean(4)
    if inject_fault:
        # negative control: a gradient oracle inconsistent with the value
        # oracle makes the definition disagree with the closed form
        hq = BregmanGenerator(
            value=hq.value,
            grad=lambda x: 2.0 * np.asarray(x, dtype=float),
            distance=hq.distance,
            domain=hq.domain,
            strong_convexity=hq.strong_convexity,
            kind="quadratic",
        )
    he = negative_entropy(6)
    worst = -np.inf
    for rows in blocks(samples):
        x, y = rng.standard_normal((2, rows, 4))
        a, b = rng.dirichlet(np.ones(6), size=(2, rows))
        for h, p, q in ((hq, x, y), (he, a, b)):
            d = bregman_distance(h, p, q)
            worst = np.max(np.maximum(-d, np.abs(
                d - reference_distance(h, p, q))), initial=worst)
    return [_result("bregman_nonnegativity", worst, 1e-12)]


def _offset_problem(seed: int) -> CompositeProblem:
    rng = np.random.Generator(np.random.Philox(seed))
    A = rng.standard_normal((8, 6))
    b = rng.standard_normal(8)
    f = least_squares(A, b, lipschitz=float(np.linalg.eigvalsh(A.T @ A)[-1]))
    return CompositeProblem(
        f=f, g=simplex_indicator(6), domain=probability_simplex(6),
        problem_id="offset_check",
    )


def offset_identity_suite(samples: int, seed: int) -> List[SuiteResult]:
    """Spread of [F(x) + D_h(x, x_k)] minus the proximal gradient objective
    over a stack of random x; the difference must be constant in x."""
    rng = np.random.Generator(np.random.Philox(seed + 1))
    p = _offset_problem(seed)
    n = p.f.dimension
    H = squared_euclidean(n)
    eta = 0.5 / p.f.lipschitz_grad
    h = composite_generator(H, p.f, eta, unchecked=True)
    x_k = rng.dirichlet(np.ones(n))
    v = np.asarray(p.f.grad(x_k))
    pm = make_prox_map("simplex", "quadratic")
    x = rng.dirichlet(np.ones(n), size=min(samples, 1000))
    offsets = gppa_objective(p, h, x, x_k) - prox_objective(pm, x, v, x_k, eta)
    spread = float(np.std(offsets))
    return [_result("theorem_offset_spread", spread, 1e-10)]


def prox_optimality_suite(samples: int, seed: int) -> List[SuiteResult]:
    rng = np.random.Generator(np.random.Philox(seed + 2))
    results = []
    for g_kind, H_kind, n in (
        ("l1", "quadratic", 5),
        ("simplex", "quadratic", 10),
        ("simplex", "entropy", 5),
    ):
        pm = make_prox_map(g_kind, H_kind)
        worst = -np.inf
        for trial in range(5):
            v = rng.standard_normal(n)
            y = rng.dirichlet(np.ones(n)) if g_kind == "simplex" \
                else rng.standard_normal(n)
            worst = np.maximum(worst, verify_prox_optimality(
                pm, v, y, eta=rng.uniform(0.1, 2.0),
                trials=max(100, samples // 5), seed=seed + trial))
        results.append(_result(f"prox_optimality_{g_kind}_{H_kind}", worst, 1e-9))
    return results


def run_identity_suites(samples: int = 10_000, seed: int = 0,
                        inject_fault: bool = False) -> List[SuiteResult]:
    if samples < 1:
        raise ContractViolation(f"samples must be positive, got {samples}")
    results: List[SuiteResult] = []
    results += three_point_suite(samples, seed)
    results += linearity_suite(samples, seed)
    results += nonnegativity_suite(samples, seed, inject_fault=inject_fault)
    results += offset_identity_suite(samples, seed)
    results += prox_optimality_suite(samples, seed)
    return results
