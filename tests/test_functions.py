import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bregprox import (
    CompositeProblem,
    ContractViolation,
    DegenerateInput,
    SmoothFunction,
    check_gradient,
    estimate_spectral_norm,
    euclidean_space,
    evaluate_composite,
    l1_norm,
    least_squares,
    probability_simplex,
    shifted_quadratic,
    simplex_indicator,
    zero_function,
)
from bregprox.functions import (NONSMOOTH_VALUES, SIMPLEX_INTERIOR_MIN,
                                SIMPLEX_MEMBER_MIN, NonsmoothTerm,
                                first_order_gap, on_simplex)
from bregprox.prox import simplex_projection, soft_threshold


def rng(seed=0):
    return np.random.Generator(np.random.Philox(seed))


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
        # the stack is inside when every row is: one min over the whole
        # stack must decide as the per-row test does, NaN rows included
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
            on_simplex(x, SIMPLEX_MEMBER_MIN).all())
        assert domain.interior(x) == bool(
            on_simplex(x, SIMPLEX_INTERIOR_MIN).all())
        for row in x:
            assert domain.member(row) == bool(on_simplex(row))


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


class TestCheckGradient:
    def test_exact_quadratic(self):
        f = half_sq_norm(4)
        assert check_gradient(f, rng().standard_normal(4)) <= 1e-5

    def test_random_least_squares(self):
        r = rng(1)
        f = least_squares(r.standard_normal((10, 20)), r.standard_normal(10))
        assert check_gradient(f, r.standard_normal(20)) <= 1e-5

    def test_detects_wrong_gradient(self):
        f = SmoothFunction(
            value=lambda x: 0.5 * float(np.dot(x, x)),
            grad=lambda x: 2.0 * np.asarray(x),  # off by a factor of 2
            dimension=3,
        )
        assert check_gradient(f, np.array([3.0, 2.0, -1.0])) >= 0.4

    @pytest.mark.parametrize("seed", range(4))
    def test_registered_functions_at_random_points(self, seed):
        r = rng(seed + 10)
        fns = [
            half_sq_norm(6),
            least_squares(r.standard_normal((8, 6)), r.standard_normal(8)),
            shifted_quadratic(r.standard_normal(6), 0.7),
            zero_function(6),
        ]
        for f in fns:
            for _ in range(20):
                assert check_gradient(f, r.standard_normal(6)) <= 1e-5


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
