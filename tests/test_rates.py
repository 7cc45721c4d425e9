import numpy as np
import pytest

from bregprox import (
    ConfigurationError,
    SolverConfig,
    bpga_bound,
    build_lasso_onestep,
    certify_trace,
    classical_pga_bound,
    composite_generator,
    gppa_bound,
    least_squares,
    line_search_bound,
    make_prox_map,
    negative_entropy,
    run_solver,
    squared_euclidean,
    zero_function,
)
from bregprox.rates import RateCertificate, constant_step_certificate


def rng(seed=0):
    return np.random.Generator(np.random.Philox(seed))


class TestGppaBound:
    def test_unit_weights_give_d_over_m(self):
        h = squared_euclidean(2)
        x_star, x0 = np.array([1.0, 0.0]), np.zeros(2)
        got = gppa_bound(h, x_star, x0, [1.0] * 10, 5)
        assert got == pytest.approx(0.1)

    def test_zero_at_optimal_start(self):
        h = squared_euclidean(3)
        x = np.ones(3)
        for m in (1, 5, 10):
            assert gppa_bound(h, x, x, [1.0] * 10, m) == 0.0

    def test_general_weights(self):
        h = squared_euclidean(2)
        x_star, x0 = np.array([2.0, 0.0]), np.zeros(2)
        got = gppa_bound(h, x_star, x0, [0.5, 1.5, 2.0], 3)
        assert got == pytest.approx(2.0 / 4.0)


class TestBpgaBound:
    def test_zero_smooth_term_matches_gppa(self):
        r = rng(1)
        H = squared_euclidean(4)
        f = zero_function(4)
        x_star, x0 = r.standard_normal((2, 4))
        for eta in (0.5, 1.0, 2.0):
            h = composite_generator(H, f, eta)
            for k in (1, 3, 7):
                assert bpga_bound(H, f, eta, x_star, x0, k) == pytest.approx(
                    gppa_bound(h, x_star, x0, [1.0] * k, k), abs=1e-15)

    def test_one_step_lasso_bound_is_zero(self):
        p = build_lasso_onestep(0.6, np.array([3.0, -0.5, 1.0]))
        x_star = p.optimum_oracle[0]
        x0 = np.array([5.0, 5.0, 5.0])
        H = squared_euclidean(3)
        assert abs(bpga_bound(H, p.f, 0.6, x_star, x0, 1)) <= 1e-12

    def test_matches_hand_expanded_quadratics(self):
        r = rng(2)
        A = r.standard_normal((12, 10))
        L = float(np.linalg.eigvalsh(A.T @ A)[-1])
        b = r.standard_normal(12)
        f = least_squares(A, b, lipschitz=L)
        eta = 0.5 / L
        x_star, x0 = r.standard_normal((2, 10))
        H = squared_euclidean(10)
        d_f = f.value(x_star) - f.value(x0) - float(
            np.dot(x_star - x0, f.grad(x0)))
        want = (0.5 / eta * float(np.sum((x_star - x0) ** 2)) - d_f) / 10
        assert bpga_bound(H, f, eta, x_star, x0, 10) == pytest.approx(
            want, abs=1e-12)


class TestClassicalBound:
    def test_zero_at_optimum(self):
        x = np.ones(4)
        assert classical_pga_bound(1.0, x, x, 1) == 0.0

    def test_direct_formula(self):
        assert classical_pga_bound(1.0, np.array([1.0, 0.0]), np.zeros(2),
                                   1) == pytest.approx(0.5)

    def test_strictly_looser_on_lasso(self):
        p = build_lasso_onestep(1.0, np.array([3.0, -2.0]))
        x_star = p.optimum_oracle[0]
        x0 = np.zeros(2)
        H = squared_euclidean(2)
        for k in (1, 2, 5):
            tight = bpga_bound(H, p.f, 1.0, x_star, x0, k)
            loose = classical_pga_bound(1.0, x_star, x0, k)
            assert tight < loose

    def test_tightness_ordering_random(self):
        r = rng(3)
        for _ in range(50):
            A = r.standard_normal((8, 6))
            L = float(np.linalg.eigvalsh(A.T @ A)[-1])
            f = least_squares(A, r.standard_normal(8), lipschitz=L)
            eta = r.uniform(0.1, 1.0) / L
            x_star, x0 = r.standard_normal((2, 6))
            H = squared_euclidean(6)
            for k in (1, 10, 50):
                assert (bpga_bound(H, f, eta, x_star, x0, k)
                        <= classical_pga_bound(eta, x_star, x0, k) + 1e-12)


class TestLineSearchBound:
    def test_zero_at_optimum(self):
        H = squared_euclidean(2)
        x = np.ones(2)
        assert line_search_bound(H, 0.5, 1.0, 100.0, x, x, 3) == 0.0

    def test_quadratic_example(self):
        H = squared_euclidean(2)
        got = line_search_bound(H, 0.5, 1.0, 100.0, np.array([1.0, 0.0]),
                                np.zeros(2), 0)
        assert got == pytest.approx(1.0)

    def test_entropy_example(self):
        H = negative_entropy(2)
        x_star = np.array([0.5, 0.5])
        x0 = np.array([0.25, 0.75])
        kl = float(np.sum(x_star * np.log(x_star / x0)))
        got = line_search_bound(H, 0.5, 2.0, 100.0, x_star, x0, 9)
        assert got == pytest.approx(kl / 10.0)

    def test_small_eta0_never_backtracks(self):
        # starting below alpha * gamma, the step never changes: the sound
        # constant is eta0, not alpha * gamma
        H = squared_euclidean(2)
        x_star, x0 = np.array([1.0, 0.0]), np.zeros(2)
        got = line_search_bound(H, 0.5, 1.0, 0.1, x_star, x0, 0)
        assert got == pytest.approx(0.5 / 0.1)


class TestCertifyTrace:
    def test_one_step_lasso_certificate(self):
        r = rng(4)
        p = build_lasso_onestep(0.8, r.standard_normal(6))
        pm = make_prox_map("l1", "quadratic")
        x0 = r.standard_normal(6)
        cfg = SolverConfig(eta0=0.8, max_iters=5)
        H = squared_euclidean(6)
        trace = run_solver(p, H, pm, x0, cfg)
        x_star, f_star = p.optimum_oracle
        cert = constant_step_certificate(H, p.f, 0.8, x_star, x0, f_star)
        assert certify_trace(trace, cert) >= -1e-9
        assert trace.records[1].objective - f_star <= 1e-10

    def test_bound_shape_is_constant_over_k(self):
        cert = RateCertificate("gppa", 3.7, (np.zeros(2), 0.0))
        ks = np.arange(1, 200)
        vals = np.array([cert.bound_at(k) * k for k in ks])
        np.testing.assert_allclose(vals, 3.7, rtol=1e-14)
        bounds = np.array([cert.bound_at(k) for k in ks])
        assert np.all(np.diff(bounds) <= 0)

    def test_missing_reference_raises(self):
        cert = RateCertificate("gppa", 1.0, None)
        r = rng(5)
        p = build_lasso_onestep(1.0, r.standard_normal(3))
        pm = make_prox_map("l1", "quadratic")
        trace = run_solver(p, squared_euclidean(3), pm, r.standard_normal(3),
                           SolverConfig(eta0=1.0, max_iters=2))
        with pytest.raises(ConfigurationError):
            certify_trace(trace, cert)

    def test_violated_hypothesis_may_fail_and_is_reported(self):
        # eta = 10 gamma constant step: the certificate is evaluated, not
        # asserted; a negative margin is a legitimate outcome here
        r = rng(6)
        p = build_lasso_onestep(1.0, r.standard_normal(4))
        pm = make_prox_map("l1", "quadratic")
        x0 = r.standard_normal(4) * 5
        cfg = SolverConfig(eta0=10.0, max_iters=20)
        H = squared_euclidean(4)
        trace = run_solver(p, H, pm, x0, cfg)
        x_star, f_star = p.optimum_oracle
        h = composite_generator(H, p.f, 10.0, unchecked=True)
        from bregprox import bregman_distance
        d0 = bregman_distance(h, x_star, x0)
        cert = RateCertificate("bpga", d0, (x_star, f_star))
        margin = certify_trace(trace, cert)
        assert np.isfinite(margin)  # reported, whatever its sign
