import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bregprox import (
    CompositeProblem,
    ContractViolation,
    DegenerateInput,
    DomainError,
    SmoothFunction,
    SolverConfig,
    bregman_distance,
    estimate_spectral_norm,
    euclidean_space,
    evaluate_composite,
    l1_norm,
    least_squares,
    make_prox_map,
    negative_entropy,
    probability_simplex,
    run_solver,
    shifted_quadratic,
    simplex_indicator,
    squared_euclidean,
    zero_function,
)
from bregprox.functions import (NONSMOOTH_VALUES, SIMPLEX_MEMBER_MIN,
                                SIMPLEX_SUM_TOL, SMALLEST_NORMAL,
                                NonsmoothTerm, first_order_gap)
from bregprox.prox import entropic_update, simplex_projection, soft_threshold


def rng(seed=0):
    return np.random.Generator(np.random.Philox(seed))


def per_row_on_simplex(x, floor):
    """The simplex test of each row from numpy's reductions of that row,
    with no whole-stack minimum."""
    return (np.minimum.reduce(x, axis=-1) >= floor) & \
        (abs(np.add.reduce(x, axis=-1) - 1.0) <= SIMPLEX_SUM_TOL)


def half_sq_norm(n):
    return SmoothFunction(
        value=lambda x: 0.5 * float(np.dot(x, x)),
        grad=lambda x: np.asarray(x, dtype=float),
        dimension=n,
        lipschitz_grad=1.0,
    )


class TestEvaluateComposite:
    def test_both_terms_vanish_at_origin(self):
        p = CompositeProblem(half_sq_norm(2), l1_norm())
        assert evaluate_composite(p, np.zeros(2)) == 0.0

    def test_smooth_term_zero_at_b(self):
        p = CompositeProblem(
            shifted_quadratic(np.array([1.0, 0.0]), 1.0), l1_norm())
        assert evaluate_composite(p, np.array([1.0, 0.0])) == pytest.approx(1.0)

    def test_indicator_outside_simplex_is_inf(self):
        p = CompositeProblem(half_sq_norm(3), simplex_indicator(3))
        assert evaluate_composite(p, np.array([1.0, 1.0, 1.0])) == np.inf

    def test_matches_naive_reconstruction(self):
        # independent oracle: rebuild the quadratic term by term
        r = rng(3)
        M = r.standard_normal((5, 5))
        Q = M.T @ M
        f = SmoothFunction(
            value=lambda x: 0.5 * float(x @ Q @ x),
            grad=lambda x: Q @ x,
            dimension=5,
        )
        p = CompositeProblem(f, simplex_indicator(5))
        x = r.dirichlet(np.ones(5))
        naive = 0.5 * sum(Q[i, j] * x[i] * x[j]
                          for i in range(5) for j in range(5))
        assert evaluate_composite(p, x) == pytest.approx(naive, rel=1e-12)

    def test_positional_oracle_rejected(self):
        # the oracle is keyword-only: a third positional argument, as the
        # removed domain once was, must not become the reference optimum
        with pytest.raises(TypeError):
            CompositeProblem(half_sq_norm(2), l1_norm(), euclidean_space(2))

    def test_dimension_mismatch(self):
        p = CompositeProblem(half_sq_norm(2), l1_norm())
        with pytest.raises(ContractViolation):
            evaluate_composite(p, np.zeros(3))
        with pytest.raises(ContractViolation):
            evaluate_composite(p, np.zeros((4, 3)))
        with pytest.raises(ContractViolation):
            evaluate_composite(p, np.zeros((2, 2, 2)))


class TestDomainMembership:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), rows=st.integers(0, 40),
           n=st.integers(1, 8), faults=st.sets(st.sampled_from(
               ["boundary", "negative", "off_sum", "nan", "tiny"])))
    def test_whole_stack_min_gives_the_row_verdict(self, seed, rows, n,
                                                   faults):
        # the stack is inside when every row is: on_simplex's min over the
        # whole stack must decide as the per-row reductions do, NaN rows
        # included
        r = rng(seed)
        x = r.dirichlet(np.ones(n), size=rows)
        picks = [r.integers(rows, size=r.integers(1, 3)) if rows else []
                 for _ in faults]
        for fault, at in zip(sorted(faults), picks):
            j = r.integers(n)
            if fault == "boundary":
                x[at, j] = 0.0
            elif fault == "negative":
                x[at, j] = -10.0 ** r.uniform(-14, -1)
            elif fault == "off_sum":
                x[at, j] += 10.0 ** r.uniform(-10, -1)
            elif fault == "nan":
                x[at, j] = np.nan
            else:
                x[at, j] = 1e-310
        domain = probability_simplex(n)
        assert domain.member(x) == bool(
            per_row_on_simplex(x, SIMPLEX_MEMBER_MIN).all())
        assert domain.interior(x) == bool(
            per_row_on_simplex(x, SMALLEST_NORMAL).all())
        for row in x:
            assert domain.member(row) == bool(
                per_row_on_simplex(row, SIMPLEX_MEMBER_MIN))
            assert domain.interior(row) == bool(
                per_row_on_simplex(row, SMALLEST_NORMAL))


class TestInteriorFloor:
    """The simplex's interior is where every entry reaches the smallest
    normal float, the floor below which the mirror step flushes an entry to
    0: a point that step keeps with no zero entry is interior."""

    n = 5

    def point(self, entry):
        x = np.full(self.n, (1.0 - entry) / (self.n - 1))
        x[0] = entry
        return x

    def solve(self, x0):
        r = rng(3)
        A = r.standard_normal((4, self.n))
        p = CompositeProblem(
            f=least_squares(A, r.standard_normal(4),
                            lipschitz=estimate_spectral_norm(A)),
            g=simplex_indicator(self.n))
        return run_solver(p, negative_entropy(self.n),
                          make_prox_map("simplex", "entropy"), x0,
                          SolverConfig(eta0=1.0 / p.f.lipschitz_grad,
                                       max_iters=3))

    def test_a_tiny_normal_entry_is_interior(self):
        x = self.point(1e-305)
        assert x[0] == 1e-305 and SMALLEST_NORMAL < 1e-305
        # the mirror step keeps the entry
        np.testing.assert_array_equal(
            entropic_update(np.zeros(self.n), x, 1.0), x)
        H = negative_entropy(self.n)
        np.testing.assert_array_equal(H.grad(x), 1.0 + np.log(x))
        d = bregman_distance(H, np.full(self.n, 1.0 / self.n), x)
        assert 0.0 < d < np.inf
        trace = self.solve(x)
        np.testing.assert_array_equal(trace.x0, x)
        assert np.all(np.isfinite(trace.objective))

    def test_a_subnormal_entry_is_not(self):
        x = self.point(1e-310)
        assert 0.0 < x[0] < SMALLEST_NORMAL
        assert probability_simplex(self.n).member(x)
        H = negative_entropy(self.n)
        with pytest.raises(DomainError, match="strictly positive"):
            H.grad(x)
        with pytest.raises(DomainError, match="second argument"):
            bregman_distance(H, np.full(self.n, 1.0 / self.n), x)
        with pytest.raises(ContractViolation, match="x0 must be interior"):
            self.solve(x)


class TestSimplexIndicator:
    def test_one_value_per_row(self):
        got = simplex_indicator(2).value([[0.5, 0.5], [0.9, 0.3]])
        assert got.tolist() == [0.0, np.inf]

    def test_other_dimension_is_off_the_simplex(self):
        assert simplex_indicator(3).value(np.array([0.5, 0.5])) == np.inf

    def test_nonpositive_dimension_rejected(self):
        with pytest.raises(ContractViolation):
            simplex_indicator(0)


class TestNonsmoothTerm:
    def test_kind_selects_the_value(self):
        # a term used to carry a value beside its kind: an l1 value on a
        # simplex kind was accepted, projected onto the simplex and
        # reported f + ||x||_1
        with pytest.raises(TypeError):
            NonsmoothTerm(value=NONSMOOTH_VALUES["l1"], kind="simplex")
        x = rng(3).dirichlet(np.ones(4), size=5)
        x[0] *= 2.0
        for kind, value in NONSMOOTH_VALUES.items():
            assert np.array_equal(NonsmoothTerm(kind).value(x), value(x))
            assert NonsmoothTerm(kind, 3).value(x) == np.inf


class TestFirstOrderGap:
    def test_values(self):
        s = np.array([1.0, 2.0, 3.0])
        assert first_order_gap("simplex", s, np.array([0.0, 0.0, 1.0])) == 2.0
        # |s_i + sign x_i| off 0, max(|s_i| - 1, 0) at 0: rho^2 = 4.25
        assert first_order_gap("l1", np.array([0.5, -1.0, 1.5, -3.0]),
                               np.array([0.0, 2.0, -1.0, 0.0]), 2.0) == 4.25
        assert first_order_gap("zero", np.array([3.0, 4.0]),
                               np.zeros(2), 0.5) == 6.25

    @pytest.mark.parametrize("x", [[0.5, 0.6], [1.5, -0.5], [1.0, np.nan]])
    def test_off_the_simplex_is_infinite(self, x):
        assert first_order_gap("simplex", np.zeros(2), np.array(x)) == np.inf

    @pytest.mark.parametrize("kind", ["simplex", "l1", "zero"])
    def test_bounds_the_excess_over_the_minimum(self, kind):
        # P(z) = g(z) + ||z - w||^2 / (2 eta), whose minimizer is a prox
        r = rng(3)
        for _ in range(200):
            n, eta = r.integers(1, 8), r.uniform(0.1, 2.0)
            w = 3.0 * r.standard_normal(n)
            g = NONSMOOTH_VALUES[kind]
            x = {"simplex": r.dirichlet(np.ones(n)),
                 "l1": np.where(r.random(n) < 0.4, 0.0,
                                r.standard_normal(n)),
                 "zero": r.standard_normal(n)}[kind]
            x_star = {"simplex": simplex_projection(w),
                      "l1": soft_threshold(np.zeros(n), w, eta),
                      "zero": w}[kind]

            def P(z):
                return g(z) + float((z - w) @ (z - w)) / (2 * eta)

            gap = first_order_gap(kind, (x - w) / eta, x, eta)
            assert P(x) - P(x_star) <= gap * (1 + 1e-12) + 1e-12


class TestShiftedQuadratic:
    @pytest.mark.parametrize("gamma", [1e-320, 5e-309])
    def test_gamma_whose_inverse_overflows_is_rejected(self, gamma):
        # these built f with lipschitz_grad = inf and no error
        with pytest.raises(ContractViolation, match="gamma"):
            shifted_quadratic(np.ones(3), gamma)

    def test_smallest_gamma_with_a_finite_inverse_builds(self):
        f = shifted_quadratic(np.ones(3), 6e-309)
        assert f.lipschitz_grad == 1.0 / 6e-309 < np.inf


def definition_residual(f, x, y) -> float:
    """|f(x) - f(y) - <x - y, grad f(y)> - D_f(x, y)| relative to the sum of
    the magnitudes of the four terms (0 where all four are 0)."""
    fx, fy = f.value(x), f.value(y)
    inner = float(np.dot(x - y, f.grad(y)))
    d = f.distance(x, y)
    scale = abs(fx) + abs(fy) + abs(inner) + abs(d)
    err = abs(fx - fy - inner - d)
    return err / scale if scale else err


SMOOTH_TERMS = {
    "least_squares": lambda r: least_squares(r.standard_normal((8, 6)),
                                             r.standard_normal(8)),
    # fewer rows than columns: A^T A is singular, so D_f vanishes on a
    # 2-dimensional subspace and the definition must hold there too
    "wide_least_squares": lambda r: least_squares(r.standard_normal((4, 6)),
                                                  r.standard_normal(4)),
    "shifted_quadratic": lambda r: shifted_quadratic(r.standard_normal(6),
                                                     0.7),
    "zero_function": lambda r: zero_function(6),
    "squared_euclidean": lambda r: squared_euclidean(6),
}


class TestOracleDefinition:
    """Each smooth term's value, gradient and closed-form distance satisfy
    the definition D_f(x, y) = f(x) - f(y) - <x - y, grad f(y)> exactly, up
    to rounding, at points over six decades of scale."""

    @pytest.mark.parametrize("name", SMOOTH_TERMS)
    def test_distance_is_the_definition(self, name):
        r = rng(11)
        f = SMOOTH_TERMS[name](r)
        for _ in range(200):
            x, y = 10.0 ** r.uniform(-3, 3, (2, 1)) * r.standard_normal((2, 6))
            assert definition_residual(f, x, y) <= 1e-12

    @pytest.mark.parametrize("name", ["least_squares", "wide_least_squares",
                                      "shifted_quadratic",
                                      "squared_euclidean"])
    def test_a_gradient_off_by_two_fails(self, name):
        r = rng(12)
        f = SMOOTH_TERMS[name](r)
        wrong = dataclasses.replace(f, grad=lambda x: 2.0 * f.grad(x))
        x, y = r.standard_normal((2, 6))
        assert definition_residual(wrong, x, y) > 1e-3


class TestConvexity:
    @pytest.mark.parametrize("builder", [
        lambda r: half_sq_norm(5),
        lambda r: least_squares(r.standard_normal((7, 5)),
                                r.standard_normal(7)),
        lambda r: shifted_quadratic(r.standard_normal(5), 2.0),
    ])
    def test_convexity_inequality(self, builder):
        r = rng(7)
        f = builder(r)
        for _ in range(100):
            x, y = r.standard_normal((2, 5))
            lam = r.uniform()
            mid = f.value(lam * x + (1 - lam) * y)
            assert mid <= lam * f.value(x) + (1 - lam) * f.value(y) + 1e-10

    def test_lipschitz_gradient_bound(self):
        r = rng(8)
        A = r.standard_normal((6, 10))
        L = float(np.linalg.eigvalsh(A.T @ A)[-1])
        f = least_squares(A, r.standard_normal(6), lipschitz=L)
        for _ in range(100):
            x, y = r.standard_normal((2, 10))
            lhs = np.linalg.norm(f.grad(x) - f.grad(y))
            assert lhs <= f.lipschitz_grad * np.linalg.norm(x - y) + 1e-10


class TestSpectralNorm:
    def test_identity(self):
        assert estimate_spectral_norm(np.eye(3)) == pytest.approx(1.0)

    def test_diagonal(self):
        assert estimate_spectral_norm(np.diag([3.0, 1.0])) == pytest.approx(
            9.0, rel=1e-8)

    @pytest.mark.parametrize("shape", [(20, 40), (50, 100), (30, 7)])
    def test_against_dense_eigensolver(self, shape):
        A = rng(shape[0]).standard_normal(shape)
        oracle = float(np.linalg.eigvalsh(A.T @ A)[-1])
        assert estimate_spectral_norm(A) == pytest.approx(oracle, rel=1e-12)

    def test_zero_matrix_rejected(self):
        with pytest.raises(DegenerateInput):
            estimate_spectral_norm(np.zeros((3, 3)))
        with pytest.raises(DegenerateInput):
            estimate_spectral_norm(np.ones(3))
