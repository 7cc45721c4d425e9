"""Convex function oracles, composite problems, and linear-algebra helpers.

Smooth terms are plain (value, gradient) oracle pairs with an optional
Lipschitz constant of the gradient.  Nonsmooth terms may return ``+inf``,
which is an in-band value (indicator functions), never an error.

Values and distances take a vector (giving a float) or a (rows, n) stack
(one value per row); gradients take a vector.
"""

from __future__ import annotations

import ctypes
import functools
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional, Tuple

import numpy as np

from .errors import ContractViolation, DegenerateInput

Vector = np.ndarray

SIMPLEX_SUM_TOL = 1e-9
SIMPLEX_MEMBER_MIN = -1e-12

EPS = np.finfo(float).eps
# the smallest normal float: mirror iterates hold no entry below it but 0,
# so a point of the simplex is interior where every entry reaches it, and a
# line search tries no step below it, which would move x by nothing or by
# rounding noise and overflow the certificate's D_H(x*, x0) / eta_1
SMALLEST_NORMAL = np.finfo(float).tiny

# What nothing in an iteration reads at once is completed in blocks of
# steps, one stacked call per block, which gives the bits of one call per
# step: f and D_f (the steppers' flush), and g(x_k) and the constant-step
# d_hk (run_solver's hook).  A block holds at most FLUSH_ENTRIES entries
# (64 kB) of any one stack, so its memory does not grow with the size of
# the problem: 81 iterate rows at n = 100, 8 at n = 1000.
FLUSH_ENTRIES = 8192

# Least squares runs A d over A's row blocks of at most PASS_ENTRIES entries,
# the last block first, where A's size is in PLAN_ENTRIES: in BENCH_25.json's
# sweep at one BLAS thread, 250x600 and 300x600, which fit a core's 2 MB L2,
# and 1000x1500, 1000x2000 and 2000x1000 read no faster in blocks, while
# 333x777 read 12% faster and 1200x1000 9%.
PASS_ENTRIES = 1 << 17
PLAN_ENTRIES = range(200_000, 1_250_000)
# OpenBLAS runs a gemv of this many entries or more on every thread it has
# (BENCH_27.json's sweep at 2 threads: 479x962 = 460,798 entries ran as at
# one thread, 480x960 = 460,800 three times as fast), so there the one
# call's threads beat the blocks; below it, and at one thread, the blocks
# run on one thread as the one call does
GEMV_THREADED_ENTRIES = 460_800


# numpy sums a row shorter than its 8-wide pairwise block one entry at a
# time from 0.0, but it runs its inner loop once per row: the minimum of a
# (1000, 6) stack takes 77 us that way, 16 us column by column (x86_64)
SHORT_ROW = 8


def _short_rows(x) -> bool:
    return isinstance(x, np.ndarray) and x.ndim == 2 \
        and 0 < x.shape[1] < SHORT_ROW and x.dtype == np.float64


def row_sum(x):
    """np.add.reduce(x, axis=-1) with its bits: a 2-D float stack of short
    rows as 0.0 + x[:, 0] + x[:, 1] + ... in order, anything else by the
    ufunc.  Every value, distance and domain check sums its rows here."""
    if not _short_rows(x):
        return np.add.reduce(x, axis=-1)
    s = 0.0 + x[:, 0]  # 0.0 + -0.0 is 0.0, as numpy gives a lone -0.0
    for j in range(1, x.shape[1]):
        s = s + x[:, j]  # s += passes on another NaN of two
    return s


def row_min(x):
    """np.minimum.reduce(x, axis=-1) with its bits: a 2-D float stack of
    short rows by a chain of np.minimum, anything else by the ufunc."""
    if _short_rows(x):
        m = x[:, 0].copy()
        for j in range(1, x.shape[1]):
            np.minimum(m, x[:, j], out=m)
        # numpy's row loop passes on another NaN than the chain; minimum
        # keeps any NaN, so the minimum of m finds such a stack (by argmin,
        # README "The extrema rule")
        if not m.size or not math.isnan(m.item(m.argmin())):
            return m
    return np.minimum.reduce(x, axis=-1)


def on_simplex(x: Vector, floor: float = SIMPLEX_MEMBER_MIN):
    """Per row of x (the last axis is the vector): every entry >= floor and
    the sum within SIMPLEX_SUM_TOL of 1; each row's minimum is taken only
    where the whole stack's misses the floor (README "The extrema rule")."""
    x = np.asarray(x)
    sums = abs(row_sum(x) - 1.0) <= SIMPLEX_SUM_TOL
    if x.size and x.item(x.argmin()) >= floor:
        return sums
    return (row_min(x) >= floor) & sums


def check_step(eta: float, name: str = "eta") -> None:
    """The one test of a step size: positive and finite (a NaN fails)."""
    if not 0.0 < eta < np.inf:
        raise ContractViolation(f"{name} must be positive and finite")


def per_row(r):
    """A result with one entry per row: a Python float for a single vector,
    the array for a stack."""
    return r if isinstance(r, np.ndarray) and r.ndim else float(r)


# the value of each nonsmooth kind at x, or at each row of a stack: the one
# coding that NonsmoothTerm values and prox objectives share
NONSMOOTH_VALUES = {
    "l1": lambda x: per_row(row_sum(np.abs(x))),
    "simplex": lambda x: per_row(np.where(on_simplex(x), 0.0, np.inf)),
    "zero": lambda x, y=None: per_row(np.zeros(np.shape(x)[:-1])),
}


def first_order_gap(kind: str, s: Vector, x: Vector,
                    eta: Optional[float] = None) -> float:
    """An upper bound on P(x) - min P, for P = g + q with g of the nonsmooth
    ``kind`` and q convex and smooth with gradient s at x.

    - "simplex": the Frank-Wolfe gap <s, x> - min_i s_i, +inf off the
      simplex.  q(z) >= q(x) + <s, z - x>, whose minimum over the simplex
      lies at a vertex (Jaggi 2013, "Revisiting Frank-Wolfe").
    - "l1" and "zero", where q is (1/eta)-strongly convex: eta/2 rho^2,
      rho the distance of 0 to s + dg(x).  For any u in that set,
      P(z) >= P(x) + <u, z - x> + ||z - x||^2 / (2 eta), whose minimum over
      z is P(x) - eta/2 ||u||^2.  Per entry of the l1 norm's subgradient,
      the distance is |s_i + sign x_i| where x_i != 0 and
      max(|s_i| - 1, 0) where x_i = 0.
    """
    if kind == "simplex":
        return float(s @ x - s.min()) if on_simplex(x) else np.inf
    if kind == "l1":
        s = np.where(x != 0.0, s + np.sign(x),
                     np.maximum(np.abs(s) - 1.0, 0.0))
    return 0.5 * eta * float(s @ s)


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
        return self._contains(x, SMALLEST_NORMAL)

    def _contains(self, x: Vector, floor: float) -> bool:
        """x, or every row of a (rows, n) stack, lies inside."""
        x = np.asarray(x, dtype=float)
        if x.ndim not in (1, 2) or x.shape[-1] != self.ambient_dimension:
            return False
        return self.kind == "rn" or bool(on_simplex(x, floor).all())


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
    """f along an iteration, through its oracles.

    ``grad()`` is the gradient at the current point x.  ``propose(cand)``
    takes the next candidate, ``distance()`` is D_f(cand, x) at once, and
    ``accept()`` moves x to the candidate; the attribute ``x`` may be
    rebound to an equal array held elsewhere.  ``stop_test(f_star, tol)``
    gives, once per run, the predicate ``may_stop()``: False only where f
    at x, with the bits of the trace, fails f - f_star <= tol; here it
    tests that f.  The steps accepted since the last flush, at most
    ``rows`` of them, make a block whose iterates are the rows of xs after
    its first, the point before them: ``distances(xs)`` gives their
    D_f(x_k, x_{k-1}), and ``flush(xs)`` their f and starts the next block;
    here from one stacked distance and one stacked value call, which equal
    the calls on each row bit for bit.
    """

    def __init__(self, f: SmoothFunction, x0: Vector):
        self.f, self.x = f, x0
        self.rows = max(1, FLUSH_ENTRIES // x0.size)

    def grad(self) -> Vector:
        return np.asarray(self.f.grad(self.x), dtype=float)

    def propose(self, cand: Vector) -> None:
        self.cand = cand

    def distance(self) -> float:
        return self.f.distance(self.cand, self.x)

    def accept(self) -> None:
        self.x = self.cand

    def stop_test(self, f_star: float, tol: float) -> Callable[[], bool]:
        return lambda: self.f.value(self.x) - f_star <= tol

    def distances(self, xs: np.ndarray) -> np.ndarray:
        return _per_step("distance", self.f.distance(xs[1:], xs[:-1]), xs)

    def flush(self, xs: np.ndarray) -> np.ndarray:
        return _per_step("value", self.f.value(xs[1:]), xs)


def _per_step(name: str, column, xs: np.ndarray) -> np.ndarray:
    """A stacked oracle's column for the steps of xs, checked to hold one
    entry per step."""
    if np.shape(column) != (len(xs) - 1,):
        raise ContractViolation(
            f"the smooth term's {name} oracle gave shape "
            f"{np.shape(column)} for {len(xs) - 1} stacked rows")
    return column


@dataclass(frozen=True, eq=False)
class LeastSquaresFunction(SmoothFunction):
    """f(x) = 1/2 ||A x - b||^2 with A, b kept explicit so that the exact
    gradient-Lipschitz constant lambda_max(A^T A) is computable."""

    A: np.ndarray = None
    b: np.ndarray = None

    def stepper(self, x0: Vector) -> "ResidualStepper":
        return ResidualStepper(self.A, self.b, x0)


@functools.lru_cache(maxsize=None)
def blas_threads() -> Optional[int]:
    """The thread count of numpy's bundled OpenBLAS, read once from its
    ``scipy_openblas_get_num_threads64_``; None where numpy bundles no such
    library or it exports no such symbol."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("libscipy_openblas64_*")):
        try:
            get = ctypes.CDLL(str(path)).scipy_openblas_get_num_threads64_
        except (OSError, AttributeError):
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        return get()
    return None


def pass_plan(A: np.ndarray):
    """A's row blocks, the last first, each with the rows of A d it gives;
    None, for one call, where A is not C-contiguous, has one column or one
    block, has a size outside PLAN_ENTRIES, reaches GEMV_THREADED_ENTRIES
    with a BLAS thread count other than 1 (or unknown), or misses the
    call's bits in blocks on a probe with distinct entries.  A block holds
    a multiple of 8 rows, so the m mod 8 tail rows stay last, as gemv
    groups them."""
    m, n = A.shape
    rows = max(8, PASS_ENTRIES // n // 8 * 8)
    if not (A.flags.c_contiguous and A.size in PLAN_ENTRIES and 1 < n
            and rows < m and (A.size < GEMV_THREADED_ENTRIES
                              or blas_threads() == 1)):
        return None
    plan = [(A[i:i + rows], slice(i, i + rows)) for i in range(0, m, rows)]
    probe, (one, blocked) = 1.0 / np.arange(1.0, n + 1.0), np.empty((2, m))
    A.dot(probe, out=one)
    for block, out in plan:
        block.dot(probe, out=blocked[out])
    return plan[::-1] if one.tobytes() == blocked.tobytes() else None


class ResidualStepper:
    """``OracleStepper``'s operations for least squares, with the residual
    r = A x - b at the current point x carried along: the gradient is
    A^T r, D_f(cand, x) = 1/2 ||A d||^2 with d = cand - x, and accepting
    the candidate updates r to r + A d.  A step costs one pass over A for
    the gradient and one per candidate, which ``plan`` starts on the rows
    that the gradient's pass has just left in cache, where that keeps the
    bits of one call.  The carried r drifts from A x - b only by rounding:
    over 5,000 steps the objective stays within a few 1e-15 relative of a
    fresh evaluation, so it is never recomputed.

    The residual rows and each accepted A d go into a block of ``rows``
    steps; ``distances`` reduces D_f = 1/2 ||A d||^2 of the block and
    ``flush`` f = 1/2 ||r||^2, one stacked reduction each, which gives the
    bits of one reduction per row; xs is not read.  The block holds at most
    FLUSH_ENTRIES entries of A d and of the iterates, so a step past the
    ``rows``-th must wait for a flush.  ``stop_test`` folds f*, tol and the
    rounding of r . r into one bound per run, so that ``may_stop()`` costs
    a step one ddot and one comparison.
    """

    def __init__(self, A: np.ndarray, b: np.ndarray, x0: Vector):
        m = A.shape[0]
        self.rows = rows = max(1, FLUSH_ENTRIES // max(A.shape))
        self.A, self.At, self.x, self.j = A, A.T, x0, 0
        # rs[0] is the residual at the last flush, rs[j] the one at x;
        # ads[j - 1] took rs[j - 1] to rs[j].  r and ad are the rows rs[j]
        # and ads[j], moved on once a step, not indexed out at every call;
        # ads[rows], never written, is where ad waits for a full block's
        # flush
        self.rs, self.ads = np.empty((2, rows + 1, m))
        self.rs[0] = A.dot(x0) - b
        self.r, self.ad = self.rs[0], self.ads[0]
        self.plan = pass_plan(A)

    # ndarray.dot reaches the BLAS gemv and ddot that np.matmul and np.dot
    # reach, with the same bits on a C or F matrix, and saves 0.5-1.3 us of
    # their 1.5-3 us a call at 50x100
    def grad(self) -> Vector:
        return self.At.dot(self.r)

    def propose(self, cand: Vector) -> None:
        self.cand, d = cand, cand - self.x
        if self.plan is None:
            self.A.dot(d, out=self.ad)
        else:
            for block, rows in self.plan:
                block.dot(d, out=self.ad[rows])

    def distance(self) -> float:
        return float(0.5 * np.add.reduce(np.square(self.ad)))

    def accept(self) -> None:
        j = self.j + 1
        r = self.rs[j]
        np.add(self.r, self.ad, out=r)
        self.x, self.j, self.r, self.ad = self.cand, j, r, self.ads[j]

    def stop_test(self, f_star: float, tol: float) -> Callable[[], bool]:
        m = len(self.r)
        if not f_star >= 0.0:
            return lambda: True
        # may_stop() is False only where r . r proves the test fails.  Both
        # r . r and the trace's sum of squares are within gamma_m =
        # m u / (1 - m u), u = eps / 2, of the exact ||r||^2 (m nonnegative
        # terms in any order, with or without FMA).  So where the trace's f
        # passes fl(f - f_star) <= tol with f_star >= 0, r . r / 2 is at most
        # (f_star + tol)(1 + 2 m u + u) to first order, and the bound as
        # computed is at least (f_star + tol)(1 + 8 m u - 3 u): 4 m eps =
        # 8 m u covers both for every m >= 1.  m tiny covers squares that
        # underflow, each off by at most half the subnormal spacing.
        bound = (f_star + tol) * (1.0 + 4 * m * EPS) + m * SMALLEST_NORMAL

        def may_stop() -> bool:
            r = self.r
            return not 0.5 * r.dot(r) > bound
        return may_stop

    def distances(self, xs: np.ndarray) -> np.ndarray:
        return 0.5 * row_sum(np.square(self.ads[:self.j]))

    def flush(self, xs: np.ndarray) -> np.ndarray:
        j = self.j
        f = 0.5 * row_sum(np.square(self.rs[1:j + 1]))
        self.rs[0] = self.r
        self.j, self.r, self.ad = 0, self.rs[0], self.ads[0]
        return f


@dataclass(frozen=True, eq=False)
class NonsmoothTerm:
    """Proper closed convex term: its kind selects its value (may be +inf)
    and its prox map.  ``value`` takes a vector, giving a float, or a
    (rows, n) stack, giving one value per row; +inf off ``dimension``."""

    kind: str  # "l1" | "simplex" | "zero"
    dimension: Optional[int] = None

    def __post_init__(self):
        if self.kind not in NONSMOOTH_VALUES:
            raise ContractViolation(f"unknown nonsmooth kind {self.kind!r}")
        if self.dimension is not None and self.dimension < 1:
            raise ContractViolation("dimension must be positive")

    def value(self, x: Vector) -> float:
        x = np.asarray(x, dtype=float)
        if self.dimension is not None and x.shape[-1:] != (self.dimension,):
            return np.inf
        return NONSMOOTH_VALUES[self.kind](x)


@dataclass(frozen=True, eq=False)
class CompositeProblem:
    """Composite objective F = f + g; g states the feasible set.

    ``optimum_oracle`` is an optional (x_star, F_star) reference pair, read
    by the certificates and the early stop; it is keyword-only.
    """

    f: SmoothFunction
    g: NonsmoothTerm
    optimum_oracle: Optional[Tuple[Vector, float]] = field(
        default=None, kw_only=True)


def zero_function(n: int) -> SmoothFunction:
    zero = NONSMOOTH_VALUES["zero"]  # takes (x) and (x, y) alike
    return SmoothFunction(
        value=zero,
        grad=lambda x: np.zeros(n),
        dimension=n,
        lipschitz_grad=0.0,
        distance=zero,
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
        value=lambda x: per_row(0.5 * row_sum(((A @ x.T).T - b) ** 2)),
        grad=lambda x: A.T @ (A @ x - b),
        dimension=A.shape[1],
        lipschitz_grad=lipschitz,
        distance=lambda x, y: per_row(0.5 * row_sum((A @ (x - y).T).T ** 2)),
        A=A,
        b=b,
    )


def shifted_quadratic(b: np.ndarray, gamma: float) -> SmoothFunction:
    """f(x) = 1/(2 gamma) ||x - b||^2; gradient Lipschitz constant is 1/gamma
    and D_f(x, y) = ||x - y||^2 / (2 gamma)."""
    b = np.asarray(b, dtype=float)
    check_step(gamma, "gamma")
    if not np.isfinite(1.0 / gamma):  # gamma below about 5.6e-309
        raise ContractViolation(
            f"gamma = {gamma!r} is too small: 1 / gamma overflows")
    return SmoothFunction(
        value=lambda x: per_row(0.5 / gamma * row_sum((x - b) ** 2)),
        grad=lambda x: (x - b) / gamma,
        dimension=b.size,
        lipschitz_grad=1.0 / gamma,
        distance=lambda x, y: per_row(0.5 / gamma * row_sum((x - y) ** 2)),
    )


def l1_norm() -> NonsmoothTerm:
    return NonsmoothTerm("l1")


def simplex_indicator(n: int) -> NonsmoothTerm:
    """Indicator of the probability simplex in R^n."""
    return NonsmoothTerm("simplex", n)


def zero_term() -> NonsmoothTerm:
    return NonsmoothTerm("zero")


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


def estimate_spectral_norm(A: np.ndarray) -> float:
    """lambda_max(A^T A), the gradient-Lipschitz constant of
    1/2 ||A x - b||^2, from a dense eigensolve of the smaller Gram matrix:
    A A^T when A has fewer rows than columns, else A^T A (the two share
    their nonzero eigenvalues).
    """
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or not np.any(A):
        raise DegenerateInput("matrix must be nonzero and 2-D")
    # The symmetric eigensolver is backward stable, so the result is exact
    # to rounding and is not rounded up: at 500x1000 the two Gram orders
    # agree to 5.6e-15 relative or better (seeds 0-9 and 42), far inside
    # the 1e-12 slack of bregman.step_within_hypothesis on eta L <= 1.
    # The Gram matrix has min(m, n)^2 <= m n entries, never more than A.
    G = A @ A.T if A.shape[0] < A.shape[1] else A.T @ A
    return float(np.linalg.eigvalsh(G)[-1])
