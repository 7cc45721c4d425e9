"""Per-iteration convergence-rate certificates.

Every bound implemented here has the shape constant / k:

  * generalized proximal point: D_h(x*, x0) / sum of weights,
  * Bregman proximal gradient:  D_{(1/eta) H - f}(x*, x0) / k,
  * classical proximal gradient: ||x* - x0||^2 / (2 eta k),
  * line search: D_H(x*, x0) / (eta_min (m+1)) with
    eta_min = min(eta0, alpha / L); when eta0 >= 1/L this is the
    backtracking constant alpha * gamma.

Certificates are checked post hoc against measured optimality gaps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from .bregman import BregmanGenerator, bregman_distance, composite_generator
from .errors import ConfigurationError, ContractViolation
from .functions import SmoothFunction, Vector
from .solvers import IterationTrace


@dataclass(frozen=True, eq=False)
class RateCertificate:
    """Bound of the form bound_at(k) = constant / k against a reference optimum."""

    kind: str  # "gppa" | "bpga" | "gppa_pga" | "line_search"
    constant: float
    reference_optimum: Tuple[Vector, float]

    def bound_at(self, k: int) -> float:
        if k < 1:
            raise ContractViolation("bounds are defined for k >= 1")
        return self.constant / k


def gppa_bound(h: BregmanGenerator, x_star: Vector, x0: Vector,
               lambda_schedule: List[float], m: int) -> float:
    """D_h(x*, x0) / sigma_m with sigma_m the sum of the first m weights."""
    if m < 1 or m > len(lambda_schedule):
        raise ContractViolation("m must index into the weight schedule")
    return bregman_distance(h, x_star, x0) / float(np.sum(lambda_schedule[:m]))


def bpga_bound(H: BregmanGenerator, f: SmoothFunction, eta: float,
               x_star: Vector, x0: Vector, k: int) -> float:
    """D_{(1/eta) H - f}(x*, x0) / k."""
    if k < 1:
        raise ContractViolation("k must be >= 1")
    h = composite_generator(H, f, eta)
    return bregman_distance(h, x_star, x0) / k


def classical_pga_bound(eta: float, x_star: Vector, x0: Vector,
                        k: int) -> float:
    """||x* - x0||^2 / (2 eta k)."""
    if eta <= 0:
        raise ContractViolation("eta must be positive")
    if k < 1:
        raise ContractViolation("k must be >= 1")
    diff = np.asarray(x_star, dtype=float) - np.asarray(x0, dtype=float)
    return float(np.dot(diff, diff)) / (2.0 * eta * k)


def line_search_bound(H: BregmanGenerator, alpha: float, gamma: float,
                      eta0: float, x_star: Vector, x0: Vector,
                      m: int) -> float:
    """D_H(x*, x0) / (eta_min (m+1)).

    eta_min = min(eta0, alpha * gamma): backtracking keeps the step above
    alpha * gamma only when it starts at or above gamma; starting lower,
    the step never changes and stays at eta0.
    """
    if not 0.0 < alpha < 1.0:
        raise ContractViolation("alpha must lie in (0, 1)")
    if gamma <= 0:
        raise ContractViolation("gamma must be positive")
    if m < 0:
        raise ContractViolation("m must be nonnegative")
    eta_min = min(eta0, alpha * gamma)
    return bregman_distance(H, x_star, x0) / (eta_min * (m + 1))


def constant_step_certificate(H: BregmanGenerator, f: SmoothFunction,
                              eta: float, x_star: Vector, x0: Vector,
                              f_star: float) -> RateCertificate:
    """Certificate for a constant-step run; quadratic H gives the tighter
    proximal-gradient-as-proximal-point bound."""
    h = composite_generator(H, f, eta)
    d0 = bregman_distance(h, x_star, x0)
    kind = "gppa_pga" if H.kind == "quadratic" else "bpga"
    return RateCertificate(kind, d0, (np.asarray(x_star, dtype=float), f_star))


def line_search_certificate(H: BregmanGenerator, alpha: float, gamma: float,
                            eta0: float, x_star: Vector, x0: Vector,
                            f_star: float) -> RateCertificate:
    c = line_search_bound(H, alpha, gamma, eta0, x_star, x0, 0)
    return RateCertificate("line_search", c,
                           (np.asarray(x_star, dtype=float), f_star))


def certify_trace(trace: IterationTrace, cert: RateCertificate) -> float:
    """Worst margin bound_at(k) - (F(x_k) - F*) over the trace; nonnegative
    (up to rounding) means the bound held at every iteration."""
    if cert.reference_optimum is None:
        raise ConfigurationError("certificate needs a reference optimum")
    f_star = cert.reference_optimum[1]
    margin = np.inf
    for rec in trace.records:
        if rec.k < 1:
            continue
        margin = min(margin, cert.bound_at(rec.k) - (rec.objective - f_star))
    return margin
