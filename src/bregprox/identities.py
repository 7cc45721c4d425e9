"""Randomized identity and optimality suites.

These are the executable forms of the algebraic facts the solvers rely on:
three-point and linearity identities of Bregman distances, nonnegativity,
the constant-offset identity tying the proximal gradient objective to the
proximal point objective, and global optimality of the closed-form prox
maps.  The CLI and the test suite both run them.

The identity suites hold each identity on ``samples`` random points.  The
optimality suite draws five (v, y, eta) inputs per prox map and bounds each
output's suboptimality by an exact first-order gap
(``prox.verify_prox_optimality``), so it takes no sample count.  They are the
only checks that rest on random points, so the one feasible-point sampler,
``sample_feasible``, lives here; the solvers test their hypotheses exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List

import numpy as np

from .bregman import (
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
    Vector,
    estimate_spectral_norm,
    least_squares,
    simplex_indicator,
)
from .prox import make_prox_map, prox_objective, verify_prox_optimality
from .solvers import gppa_objective

# rows per stacked call of the identity suites: the sampled suites make one
# call per block and the offset suite draws one block at most, so memory is
# bounded at any sample count
BLOCK_ROWS = 1_000


def blocks(samples: int):
    """Row counts of the blocks that make up ``samples`` samples; the last
    block is partial."""
    return [min(BLOCK_ROWS, samples - start)
            for start in range(0, samples, BLOCK_ROWS)]


def sample_feasible(kind: str, n: int, rng, shape: tuple = ()) -> Vector:
    """Points of shape ``shape + (n,)``: uniform on the simplex for ``kind``
    "simplex", else N(0, I)."""
    if kind == "simplex":
        return rng.dirichlet(np.ones(n), size=shape)
    return rng.standard_normal(shape + (n,))


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
        a, b, c = sample_feasible(hq.domain.kind, 3, rng, (3, rows))
        worst_q = np.maximum(worst_q, check_three_point(hq, a, b, c))
        a, b, c = sample_feasible(he.domain.kind, 5, rng, (3, rows))
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
        a, b = sample_feasible(he.domain.kind, n, rng, (2, rows))
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
        hq = replace(hq, grad=lambda x: 2.0 * np.asarray(x, dtype=float))
    he = negative_entropy(6)
    worst = -np.inf
    for rows in blocks(samples):
        x, y = sample_feasible(hq.domain.kind, 4, rng, (2, rows))
        a, b = sample_feasible(he.domain.kind, 6, rng, (2, rows))
        for h, p, q in ((hq, x, y), (he, a, b)):
            d = bregman_distance(h, p, q)
            worst = np.max(np.maximum(-d, np.abs(
                d - reference_distance(h, p, q))), initial=worst)
    return [_result("bregman_nonnegativity", worst, 1e-12)]


def _offset_problem(seed: int) -> CompositeProblem:
    rng = np.random.Generator(np.random.Philox(seed))
    A = rng.standard_normal((8, 6))
    b = rng.standard_normal(8)
    f = least_squares(A, b, lipschitz=estimate_spectral_norm(A))
    return CompositeProblem(f=f, g=simplex_indicator(6))


def offset_identity_suite(samples: int, seed: int) -> List[SuiteResult]:
    """Spread of [F(x) + D_h(x, x_k)] minus the proximal gradient objective
    over a stack of random x; the difference must be constant in x."""
    rng = np.random.Generator(np.random.Philox(seed + 1))
    p = _offset_problem(seed)
    n = p.f.dimension
    H = squared_euclidean(n)
    eta = 0.5 / p.f.lipschitz_grad
    h = composite_generator(H, p.f, eta)
    x_k = sample_feasible(p.g.kind, n, rng)
    v = np.asarray(p.f.grad(x_k))
    pm = make_prox_map("simplex", "quadratic")
    x = sample_feasible(p.g.kind, n, rng, (min(samples, BLOCK_ROWS),))
    offsets = gppa_objective(p, h, x, x_k) - prox_objective(pm, x, v, x_k, eta)
    spread = float(np.std(offsets))
    return [_result("theorem_offset_spread", spread, 1e-10)]


def prox_optimality_suite(seed: int) -> List[SuiteResult]:
    """The largest optimality gap of each prox map over five random inputs."""
    rng = np.random.Generator(np.random.Philox(seed + 2))
    results = []
    for g_kind, H_kind, n in (
        ("l1", "quadratic", 5),
        ("simplex", "quadratic", 10),
        ("simplex", "entropy", 5),
    ):
        pm = make_prox_map(g_kind, H_kind)
        # v, y and eta of each input, drawn in that order
        worst = np.max([verify_prox_optimality(
            pm, rng.standard_normal(n), sample_feasible(g_kind, n, rng),
            rng.uniform(0.1, 2.0)) for _ in range(5)])
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
    results += prox_optimality_suite(seed)
    return results
