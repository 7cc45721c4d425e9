"""Exception hierarchy shared across the package."""


class BregProxError(Exception):
    """Base class for all package errors."""


class ContractViolation(BregProxError):
    """An argument violated a documented precondition (bad shape, bad range)."""


class DomainError(BregProxError):
    """A point lies outside the domain where the requested oracle is defined."""


class NumericalFailure(BregProxError):
    """A computation produced non-finite values where finite ones are required."""


class HypothesisViolation(BregProxError):
    """A theorem hypothesis (e.g. strong convexity vs. step size) does not hold."""


class DegenerateInput(BregProxError):
    """Structurally degenerate input, such as an all-zero matrix."""


class ConfigurationError(BregProxError):
    """A required piece of configuration (e.g. a reference optimum) is missing."""


class SolverFailure(BregProxError):
    """Solver could not complete; carries the partial trace accumulated so far."""

    def __init__(self, message, partial_trace):
        super().__init__(message)
        self.partial_trace = partial_trace
