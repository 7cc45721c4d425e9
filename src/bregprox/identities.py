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
from functools import partial
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
from .experiments import ExperimentSpec, build_simplex_ls
from .functions import Vector
from .prox import make_prox_map, prox_objective, verify_prox_optimality
from .solvers import gppa_objective

# rows per stacked call of the identity suites: the sampled suites walk their
# samples one block at a time and the offset suite draws one block at most,
# so memory is bounded at any sample count
BLOCK_ROWS = 1_000


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


def _worst_residuals(samples: int, seed: int, checks) -> List[float]:
    """The worst residual of each (h, k, residual) of ``checks`` over
    ``samples`` draws: block by block, each check in turn draws k stacks on
    h's domain from one Philox(seed) stream and takes residual(h, *stacks)."""
    rng = np.random.Generator(np.random.Philox(seed))
    worst = [-np.inf] * len(checks)
    for start in range(0, samples, BLOCK_ROWS):
        rows = min(BLOCK_ROWS, samples - start)
        for i, (h, k, residual) in enumerate(checks):
            stacks = sample_feasible(h.domain.kind, h.domain.ambient_dimension,
                                     rng, (k, rows))
            # np.max, unlike max(), keeps a NaN residual
            worst[i] = np.max(residual(h, *stacks), initial=worst[i])
    return worst


def three_point_suite(samples: int, seed: int) -> List[SuiteResult]:
    worst_q, worst_e = _worst_residuals(samples, seed, (
        (squared_euclidean(3), 3, check_three_point),
        (negative_entropy(5), 3, check_three_point)))
    return [
        _result("three_point_quadratic", worst_q, 1e-10),
        _result("three_point_entropy", worst_e, 1e-10),
    ]


def linearity_suite(samples: int, seed: int) -> List[SuiteResult]:
    residual = partial(check_linearity, squared_euclidean(5))
    (worst,) = _worst_residuals(samples, seed,
                                ((negative_entropy(5), 2, residual),))
    return [_result("linearity_quadratic_entropy", worst, 1e-10)]


def _nonnegativity_residual(h, x: Vector, y: Vector) -> Vector:
    """max(-D_h, |D_h - definition|) of each pair (x, y)."""
    d = bregman_distance(h, x, y)
    return np.maximum(-d, np.abs(d - reference_distance(h, x, y)))


def nonnegativity_suite(samples: int, seed: int,
                        inject_fault: bool = False) -> List[SuiteResult]:
    """Worst of -D_h and of |D_h - definition| over random pairs: each closed
    form must be nonnegative and equal the distance its oracles define."""
    hq = squared_euclidean(4)
    if inject_fault:
        # negative control: a gradient oracle inconsistent with the value
        # oracle makes the definition disagree with the closed form
        hq = replace(hq, grad=lambda x: 2.0 * np.asarray(x, dtype=float))
    worst = _worst_residuals(samples, seed, (
        (hq, 2, _nonnegativity_residual),
        (negative_entropy(6), 2, _nonnegativity_residual)))
    return [_result("bregman_nonnegativity", np.max(worst), 1e-12)]


def offset_identity_suite(samples: int, seed: int) -> List[SuiteResult]:
    """Spread of [F(x) + D_h(x, x_k)] minus the proximal gradient objective
    over a stack of random x; the difference must be constant in x.  The
    problem is run-simplex's least squares over the simplex at 8x6."""
    rng = np.random.Generator(np.random.Philox(seed + 1))
    p = build_simplex_ls(ExperimentSpec("offset", 8, 6, seed))
    n = p.f.dimension
    H = squared_euclidean(n)
    eta = 0.5 / p.f.lipschitz_grad
    h = composite_generator(H, p.f, eta)
    x_k = sample_feasible(p.g.kind, n, rng)
    v = np.asarray(p.f.grad(x_k))
    x = sample_feasible(p.g.kind, n, rng, (min(samples, BLOCK_ROWS),))
    offsets = (gppa_objective(p, h, x, x_k)
               - prox_objective(p.g, H, x, v, x_k, eta))
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
