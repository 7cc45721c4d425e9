import numpy as np
import pytest

from bregprox import (
    CompositeProblem,
    ConfigurationError,
    ContractViolation,
    ExperimentSpec,
    IterationTrace,
    SolverConfig,
    bregman_distance,
    build_lasso_onestep,
    build_simplex_ls,
    certify_trace,
    composite_generator,
    least_squares,
    make_prox_map,
    negative_entropy,
    reference_simplex_ls,
    run_solver,
    squared_euclidean,
    zero_function,
    zero_term,
)
from bregprox.rates import RateCertificate


def rng(seed=0):
    return np.random.Generator(np.random.Philox(seed))


def constant_step_run(f, eta, x_star, x0, k):
    """Certificate of k constant steps of size eta on f over R^n (quadratic
    generator, no nonsmooth term), measured against x_star."""
    n = x0.size
    p = CompositeProblem(f, zero_term(),
                         optimum_oracle=(x_star, float(f.value(x_star))))
    H = squared_euclidean(n)
    trace = run_solver(p, H, make_prox_map("zero", "quadratic"), x0,
                       SolverConfig(eta0=eta, max_iters=k))
    return certify_trace(p, H, trace)


@pytest.fixture(scope="module")
def simplex_instance():
    """20x40 simplex least squares with its certified reference optimum."""
    p = build_simplex_ls(ExperimentSpec(name="rates", m=20, n=40, seed=42))
    gamma = 1.0 / p.f.lipschitz_grad
    x_star, f_star = reference_simplex_ls(p.f.A, p.f.b)
    p = CompositeProblem(p.f, p.g, optimum_oracle=(x_star, f_star))
    return p, gamma


def line_search_run(simplex_instance, H, eta0, alpha=0.5, x0=None,
                    max_iters=300):
    p, _ = simplex_instance
    n = p.f.dimension
    x0 = np.full(n, 1.0 / n) if x0 is None else x0
    cfg = SolverConfig(eta0=eta0, alpha=alpha, max_iters=max_iters,
                       line_search_enabled=True)
    trace = run_solver(p, H, make_prox_map("simplex", H.kind), x0, cfg)
    return trace, certify_trace(p, H, trace)


class TestGppaBound:
    """The step-weighted bound c / S_k, S_k = sum_{i <= k} eta_i / eta_1."""

    def test_unit_weights_give_d_over_m(self):
        # with f = 0 a constant step is the proximal point method, and the
        # bound is D_H(x*, x0) / (eta m)
        x_star, x0 = np.array([1.0, 0.0]), np.zeros(2)
        cert = constant_step_run(zero_function(2), 2.0, x_star, x0, 10)
        np.testing.assert_array_equal(cert.weight_sums, np.arange(1, 11))
        assert cert.bound_at(5) == pytest.approx(0.5 / (2.0 * 5))

    @pytest.mark.parametrize("k", [0, -1])
    def test_bound_before_the_first_step_rejected(self, k):
        cert = constant_step_run(zero_function(2), 2.0, np.ones(2),
                                 np.zeros(2), 3)
        with pytest.raises(ContractViolation,
                           match="^bounds are defined for k >= 1$"):
            cert.bound_at(k)

    def test_zero_at_optimal_start(self):
        x = np.ones(3)
        cert = constant_step_run(zero_function(3), 1.0, x, x, 10)
        for m in (1, 5, 10):
            assert cert.bound_at(m) == 0.0

    def test_general_weights(self, simplex_instance):
        # the mirror line search here halves its step at iteration 15; each
        # step weighs eta_i / eta_1 in the sum
        p, _ = simplex_instance
        H = negative_entropy(40)
        trace, cert = line_search_run(simplex_instance, H, 100.0)
        etas = trace.eta[1:]
        assert len(np.unique(etas)) > 1
        x_star, _ = p.optimum_oracle
        x0 = trace.x0
        c = (bregman_distance(H, x_star, x0) / etas[0]
             - p.f.distance(x_star, x0))
        for k in (1, 2, 10, len(etas)):
            assert cert.bound_at(k) == pytest.approx(
                c * etas[0] / np.sum(etas[:k]), rel=1e-12)


class TestBpgaBound:
    """The bound of a constant-step (Bregman proximal gradient) run."""

    def test_zero_smooth_term_matches_gppa(self):
        r = rng(1)
        x_star, x0 = r.standard_normal((2, 4))
        H = squared_euclidean(4)
        for eta in (0.5, 1.0, 2.0):
            cert = constant_step_run(zero_function(4), eta, x_star, x0, 7)
            for k in (1, 3, 7):
                assert cert.bound_at(k) == pytest.approx(
                    bregman_distance(H, x_star, x0) / (eta * k), abs=1e-15)

    def test_one_step_lasso_bound_is_zero(self):
        p = build_lasso_onestep(0.6, np.array([3.0, -0.5, 1.0]))
        x0 = np.array([5.0, 5.0, 5.0])
        H = squared_euclidean(3)
        trace = run_solver(p, H, make_prox_map("l1", "quadratic"), x0,
                           SolverConfig(eta0=0.6, max_iters=1))
        assert abs(certify_trace(p, H, trace).bound_at(1)) <= 1e-12

    @pytest.mark.parametrize("gamma, ratio, sign", [
        (1e-3, 1.0, 0.0), (10.0, 1.0, 0.0), (1.0, 2.0, -1.0)])
    def test_cancelled_constant_is_zero(self, gamma, ratio, sign):
        # run-lasso's instance: at eta = gamma, c = D_H / eta - D_f is 0 in
        # exact arithmetic and came out as -7.3e-12 (gamma 1e-3) and
        # -4.4e-16 (gamma 10); a step of 2 gamma keeps its negative c
        r = rng(7)
        p = build_lasso_onestep(gamma, r.standard_normal(50))
        x0 = r.standard_normal(50)
        H = squared_euclidean(50)
        trace = run_solver(p, H, make_prox_map("l1", "quadratic"), x0,
                           SolverConfig(eta0=gamma * ratio, max_iters=1))
        cert = certify_trace(p, H, trace)
        assert np.sign(cert.constant) == sign
        assert trace.hypothesis_held == (ratio == 1.0)

    def test_matches_hand_expanded_quadratics(self):
        r = rng(2)
        A = r.standard_normal((12, 10))
        L = float(np.linalg.eigvalsh(A.T @ A)[-1])
        b = r.standard_normal(12)
        f = least_squares(A, b, lipschitz=L)
        eta = 0.5 / L
        x_star, x0 = r.standard_normal((2, 10))
        d_f = f.value(x_star) - f.value(x0) - float(
            np.dot(x_star - x0, f.grad(x0)))
        want = (0.5 / eta * float(np.sum((x_star - x0) ** 2)) - d_f) / 10
        cert = constant_step_run(f, eta, x_star, x0, 10)
        assert cert.bound_at(10) == pytest.approx(want, abs=1e-12)

    @pytest.mark.parametrize("kind", ["quadratic", "entropy"])
    def test_bound_is_composite_distance_over_k(self, simplex_instance,
                                                kind):
        # bit for bit the bound of the composite generator (1/eta) H - f
        p, gamma = simplex_instance
        H = squared_euclidean(40) if kind == "quadratic" \
            else negative_entropy(40)
        x0 = np.full(40, 1.0 / 40)
        trace = run_solver(p, H, make_prox_map("simplex", kind), x0,
                           SolverConfig(eta0=gamma, max_iters=300))
        cert = certify_trace(p, H, trace)
        d0 = bregman_distance(composite_generator(H, p.f, gamma),
                              p.optimum_oracle[0], x0)
        for k in range(1, 301):
            assert cert.bound_at(k) == d0 / k
        assert trace.hypothesis_held
        assert cert.margin >= 0.0


class TestClassicalBound:
    """The classical bound c_cl / S_k, c_cl = D_H(x*, x0) / eta_1, read off
    the certificate."""

    def test_zero_at_optimum(self):
        x = np.ones(4)
        assert constant_step_run(zero_function(4), 1.0, x, x,
                                 3).classical == 0.0

    def test_direct_formula(self):
        cert = constant_step_run(zero_function(2), 2.0, np.array([1.0, 0.0]),
                                 np.zeros(2), 1)
        assert cert.classical == 0.25

    def test_constant_quadratic_step_is_the_pga_bound(self):
        # ||x* - x0||^2 / (2 eta k) to 2 ulp: the closed form and the dot
        # product round differently
        r = rng(5)
        A = r.standard_normal((8, 7))
        L = float(np.linalg.eigvalsh(A.T @ A)[-1])
        f = least_squares(A, r.standard_normal(8), lipschitz=L)
        eta = 0.3 / L
        x_star, x0 = r.standard_normal((2, 7))
        cert = constant_step_run(f, eta, x_star, x0, 299)
        k = np.arange(1, 300)
        assert cert.weight_sums.tobytes() == k.astype(float).tobytes()
        diff = x_star - x0
        want = float(np.dot(diff, diff)) / (2.0 * eta * k)
        got = cert.classical / cert.weight_sums
        assert np.all(np.abs(got - want) <= 2 * np.spacing(want))

    def test_strictly_looser_on_lasso(self):
        p = build_lasso_onestep(1.0, np.array([3.0, -2.0]))
        x0 = np.zeros(2)
        H = squared_euclidean(2)
        trace = run_solver(p, H, make_prox_map("l1", "quadratic"), x0,
                           SolverConfig(eta0=1.0, max_iters=5))
        cert = certify_trace(p, H, trace)
        for k in (1, 2, 5):
            assert cert.bound_at(k) < cert.classical / cert.weight_sums[k - 1]

    def test_tightness_ordering_random(self):
        # c = c_cl - D_f(x*, x0) with D_f >= 0, so no slack is needed
        r = rng(3)
        for _ in range(50):
            A = r.standard_normal((8, 6))
            L = float(np.linalg.eigvalsh(A.T @ A)[-1])
            f = least_squares(A, r.standard_normal(8), lipschitz=L)
            eta = r.uniform(0.1, 1.0) / L
            x_star, x0 = r.standard_normal((2, 6))
            cert = constant_step_run(f, eta, x_star, x0, 50)
            for k in (1, 10, 50):
                assert cert.bound_at(k) <= cert.classical / k

    @pytest.mark.parametrize("kind", ["quadratic", "entropy"])
    def test_classical_is_distance_over_first_step(self, simplex_instance,
                                                   kind):
        # each generator's own D_H(x*, x0) / eta_1, under line search too
        p, _ = simplex_instance
        H = squared_euclidean(40) if kind == "quadratic" \
            else negative_entropy(40)
        trace, cert = line_search_run(simplex_instance, H, eta0=100.0)
        assert cert.classical == bregman_distance(
            H, p.optimum_oracle[0], trace.x0) / trace.eta[1]
        assert cert.constant <= cert.classical


def eta_min_bound(H, alpha, gamma, eta0, x_star, x0, k):
    """The line-search bound this certificate replaced,
    D_H(x*, x0) / (min(eta0, alpha gamma) k): the step never falls below
    alpha gamma once it starts at or above gamma, and never moves when it
    starts lower."""
    return bregman_distance(H, x_star, x0) / (min(eta0, alpha * gamma) * k)


class TestLineSearchBound:
    """The bound of a backtracking line-search run."""

    def test_zero_at_optimum(self, simplex_instance):
        p, _ = simplex_instance
        x_star = p.optimum_oracle[0]
        # the start must be interior for the entropy; x* is not, so the
        # quadratic generator starts there
        _, cert = line_search_run(simplex_instance, squared_euclidean(40),
                                  100.0, x0=x_star, max_iters=3)
        for k in (1, 2, 3):
            assert cert.bound_at(k) == 0.0

    def test_quadratic_example(self, simplex_instance):
        self._no_looser_than_eta_min(simplex_instance, squared_euclidean(40))

    def test_entropy_example(self, simplex_instance):
        self._no_looser_than_eta_min(simplex_instance, negative_entropy(40))

    @staticmethod
    def _no_looser_than_eta_min(simplex_instance, H):
        p, gamma = simplex_instance
        x_star = p.optimum_oracle[0]
        for alpha, eta0 in ((0.5, 100.0), (0.3, 100.0), (0.5, 0.5 * gamma)):
            trace, cert = line_search_run(simplex_instance, H, eta0, alpha)
            x0 = trace.x0
            for k in range(1, len(trace.objective)):
                assert cert.bound_at(k) <= eta_min_bound(
                    H, alpha, gamma, eta0, x_star, x0, k)
            assert trace.hypothesis_held
            assert cert.margin >= 0.0

    def test_small_eta0_never_backtracks(self, simplex_instance):
        # starting below gamma the step never changes: the weights are all
        # 1 and the constant is D_H / eta0 - D_f, not one of alpha gamma
        p, gamma = simplex_instance
        H = squared_euclidean(40)
        trace, cert = line_search_run(simplex_instance, H, 0.5 * gamma,
                                      max_iters=50)
        assert all(trace.backtracks == 0)
        np.testing.assert_array_equal(cert.weight_sums, np.arange(1, 51))
        x_star, x0 = p.optimum_oracle[0], trace.x0
        assert cert.constant == (bregman_distance(H, x_star, x0)
                                 / (0.5 * gamma) - p.f.distance(x_star, x0))


class TestCertifyTrace:
    def test_one_step_lasso_certificate(self):
        r = rng(4)
        p = build_lasso_onestep(0.8, r.standard_normal(6))
        pm = make_prox_map("l1", "quadratic")
        x0 = r.standard_normal(6)
        cfg = SolverConfig(eta0=0.8, max_iters=5)
        H = squared_euclidean(6)
        trace = run_solver(p, H, pm, x0, cfg)
        f_star = p.optimum_oracle[1]
        assert certify_trace(p, H, trace).margin >= -1e-9
        assert trace.objective[1] - f_star <= 1e-10

    def test_bound_shape_is_constant_over_k(self):
        ks = np.arange(1, 200)
        cert = RateCertificate(3.7, 3.7, ks.astype(float), np.inf)
        vals = np.array([cert.bound_at(k) * k for k in ks])
        np.testing.assert_allclose(vals, 3.7, rtol=1e-14)
        bounds = np.array([cert.bound_at(k) for k in ks])
        assert np.all(np.diff(bounds) <= 0)

    def test_missing_reference_raises(self):
        r = rng(5)
        p = build_lasso_onestep(1.0, r.standard_normal(3))
        H = squared_euclidean(3)
        trace = run_solver(p, H, make_prox_map("l1", "quadratic"),
                           r.standard_normal(3),
                           SolverConfig(eta0=1.0, max_iters=2))
        unreferenced = CompositeProblem(p.f, p.g)
        with pytest.raises(ConfigurationError):
            certify_trace(unreferenced, H, trace)

    def test_violated_hypothesis_may_fail_and_is_reported(self):
        # eta = 10 gamma constant step: D_{h_k} < 0 is recorded, and the
        # trace reports its hypothesis as false; the margin is
        # evaluated, not asserted, since a negative one is legitimate here
        r = rng(6)
        p = build_lasso_onestep(1.0, r.standard_normal(4))
        pm = make_prox_map("l1", "quadratic")
        x0 = r.standard_normal(4) * 5
        H = squared_euclidean(4)
        trace = run_solver(p, H, pm, x0, SolverConfig(eta0=10.0, max_iters=20))
        assert min(trace.d_hk[1:]) < 0.0
        cert = certify_trace(p, H, trace)
        assert not trace.hypothesis_held
        assert np.isfinite(cert.margin)  # reported, whatever its sign

    def test_constant_step_at_gamma_keeps_its_hypothesis(self):
        # the run-lasso --gamma 1e-3 instance: at eta = gamma the flat
        # composite's D_H / eta - D_f is 0 in exact arithmetic but came out
        # -7.3e-12, and the exact test d_hk >= 0 reported the hypothesis as
        # failing; it is now held to the line search's relative slack
        r = rng(7)
        b, x0 = r.standard_normal(50), r.standard_normal(50)
        p = build_lasso_onestep(1e-3, b)
        H = squared_euclidean(50)
        trace = run_solver(p, H, make_prox_map("l1", "quadratic"), x0,
                           SolverConfig(eta0=1e-3, max_iters=1))
        assert trace.d_hk[1] < 0.0
        assert trace.hypothesis_held

    @pytest.mark.parametrize("seed", range(20))
    def test_constant_step_verdict_is_the_line_search_test(self, seed):
        # eta = gamma holds at every scale of the data; eta a relative 1e-9
        # above gamma (a d_hk of about -1e-9 (D_H / eta + D_f) / 2) fails
        r = rng(seed)
        n = int(r.integers(1, 60))
        gamma = 10.0 ** r.uniform(-30, 30)
        b, x0 = (r.standard_normal(n) * 10.0 ** r.uniform(-30, 30)
                 for _ in range(2))
        p = build_lasso_onestep(gamma, b)
        H = squared_euclidean(n)
        pm = make_prox_map("l1", "quadratic")
        for eta, held in ((gamma, True), (gamma * (1 + 1e-9), False)):
            trace = run_solver(p, H, pm, x0,
                               SolverConfig(eta0=eta, max_iters=3))
            assert trace.hypothesis_held is held

    def test_trace_without_accepted_step_has_infinite_margin(
            self, simplex_instance):
        p, gamma = simplex_instance
        H = negative_entropy(40)
        trace = run_solver(p, H, make_prox_map("simplex", "entropy"),
                           np.full(40, 1.0 / 40),
                           SolverConfig(eta0=gamma, max_iters=1))
        partial = IterationTrace(
            trace.x0, trace.x0,
            *(c[:1] for c in (trace.objective, trace.eta, trace.backtracks,
                              trace.d_hk, trace.elapsed_ms)),
            trace.hypothesis_held, "backtracking budget exhausted at "
                                   "iteration 1")
        cert = certify_trace(p, H, partial)
        assert cert.margin == np.inf
        assert cert.weight_sums.size == 0
        # eta0, in row 0, stands in for eta_1
        assert cert.constant == certify_trace(p, H, trace).constant
