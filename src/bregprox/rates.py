"""Per-iteration convergence-rate certificates.

One certificate covers every variant: the generalized proximal point bound
D_h(x*, x0) / S_k with the step sizes as weights.  If every accepted
step of a run has D_{h_i}(x_i, x_{i-1}) >= 0 for h_i = (1/eta_i) H - f, then

    F(x_k) - F* <= c / S_k,   c = D_H(x*, x0) / eta_1 - D_f(x*, x0),
                              S_k = sum_{i <= k} eta_i / eta_1,

for constant steps and backtracking line search alike.  The three-point
property of the prox step, D_{h_i} >= 0 and f's linearization give

    eta_i (F(x_i) - F(x)) <= D_H(x, x_{i-1}) - D_H(x, x_i)
                             - eta_i D_f(x, x_{i-1});

x = x_{i-1} shows that F decreases along the run, and summing over i at
x = x* while keeping only the first D_f term gives the bound.  The steps
need not be monotone.  Under a constant step S_k = k, and c is the distance
of the composite generator (1/eta) H - f.  Dropping the D_f term as well
gives each variant's classical bound c_cl / S_k with c_cl = D_H(x*, x0) /
eta_1 (the Bregman proximal gradient bound of Bauschke, Bolte and Teboulle
2017; under the quadratic H and a constant step, ||x* - x0||^2 / (2 eta k)).
Since D_f >= 0, c <= c_cl: the certificate is never looser.

Certificates are checked post hoc against measured optimality gaps.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bregman import BregmanGenerator, accepts, bregman_distance
from .errors import ConfigurationError, ContractViolation
from .functions import CompositeProblem
from .solvers import IterationTrace


@dataclass(frozen=True, eq=False)
class RateCertificate:
    """bound_at(k) = constant / weight_sums[k - 1] at each accepted step k of
    one trace, with the worst margin bound - (F(x_k) - F*) over the trace;
    classical / weight_sums[k - 1] is the classical bound at k."""

    constant: float
    classical: float  # D_H(x*, x0) / eta_1, the constant without -D_f
    weight_sums: np.ndarray  # S_k for k = 1, 2, ...
    margin: float  # inf for a trace with no accepted step

    def bound_at(self, k: int) -> float:
        if k < 1:
            raise ContractViolation("bounds are defined for k >= 1")
        return self.constant / self.weight_sums[k - 1]


def certify_trace(p: CompositeProblem, H: BregmanGenerator,
                  trace: IterationTrace) -> RateCertificate:
    """The step-weighted certificate of a run of ``run_solver`` on ``p`` with
    generator ``H``, checked against the problem's reference optimum."""
    if p.optimum_oracle is None:
        raise ConfigurationError("certificate needs a reference optimum")
    x_star, f_star = p.optimum_oracle
    x0, eta = trace.x0, trace.eta[1:]
    # no accepted step bounds nothing; eta0, in row 0, stands in for eta_1
    eta_1 = eta[0] if eta.size else trace.eta[0]
    d_H = bregman_distance(H, x_star, x0) / eta_1
    d_f = p.f.distance(x_star, x0)
    constant = d_H - d_f
    if constant < 0.0 and accepts(d_H, d_f):
        # c = D_{h_1}(x*, x0) >= 0 under the hypothesis: a negative c that
        # passes its test is cancellation, as of D_H / eta_1 = D_f exactly
        constant = 0.0
    # under a constant step every weight is exactly 1.0, so S_k is exactly k
    weight_sums = np.cumsum(eta / eta_1)
    gaps = trace.objective[1:] - f_star
    return RateCertificate(
        constant=constant,
        classical=d_H,
        weight_sums=weight_sums,
        margin=float(np.min(constant / weight_sums - gaps, initial=np.inf)),
    )


# Nothing in the package calls these two: perfbench's tracer looks them up
# by name, and ROADMAP item 2 retires them.
def constant_step_certificate(*args, **kwargs) -> RateCertificate:
    return certify_trace(*args, **kwargs)


def line_search_certificate(*args, **kwargs) -> RateCertificate:
    return certify_trace(*args, **kwargs)
