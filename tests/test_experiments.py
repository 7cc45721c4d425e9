import logging

import numpy as np
import pytest

from bregprox import experiments
from bregprox import (
    ContractViolation,
    ExperimentSpec,
    build_lasso_onestep,
    build_simplex_ls,
    estimate_spectral_norm,
    evaluate_composite,
    reference_simplex_ls,
    run_experiment,
    simplex_projection,
)


def desk_spec(**overrides):
    base = dict(name="desk", m=20, n=40, seed=42, eta0=100.0, alpha=0.5,
                max_iters=2000, ref_iters=30_000)
    base.update(overrides)
    return ExperimentSpec(**base)


class TestBuildSimplexLs:
    def test_paper_scale_shape(self):
        spec = ExperimentSpec(name="paper", m=500, n=1000, seed=0)
        p = build_simplex_ls(spec)
        assert p.f.A.shape == (500, 1000)
        assert p.f.b.shape == (500,)
        np.testing.assert_allclose(np.linalg.norm(p.f.A, axis=0), 1.0)
        assert np.linalg.norm(p.f.b) == pytest.approx(1.0)

    def test_one_by_one_instance(self):
        spec = ExperimentSpec(name="tiny", m=1, n=1, seed=3)
        p = build_simplex_ls(spec)
        a = p.f.A[0, 0]
        assert abs(a) == pytest.approx(1.0)
        # the simplex in one dimension is the single point {1}
        assert evaluate_composite(p, np.array([1.0])) == pytest.approx(
            0.5 * (a - p.f.b[0]) ** 2)

    def test_lipschitz_matches_dense_eigensolver(self):
        spec = desk_spec(m=10, n=20)
        p = build_simplex_ls(spec)
        oracle = float(np.linalg.eigvalsh(p.f.A.T @ p.f.A)[-1])
        assert p.f.lipschitz_grad == pytest.approx(oracle, rel=1e-8)

    def test_zero_size_rejected(self):
        with pytest.raises(ContractViolation):
            ExperimentSpec(name="bad", m=0, n=5, seed=0)


class TestBuildLassoOnestep:
    def test_closed_form_optimum(self):
        p = build_lasso_onestep(1.0, np.array([3.0, -0.5]))
        np.testing.assert_allclose(p.optimum_oracle[0], [2.0, 0.0])

    def test_zero_data(self):
        p = build_lasso_onestep(1.0, np.zeros(4))
        x_star, f_star = p.optimum_oracle
        np.testing.assert_array_equal(x_star, np.zeros(4))
        assert f_star == 0.0

    def test_shrink_to_zero(self):
        p = build_lasso_onestep(0.1, np.array([0.05]))
        np.testing.assert_array_equal(p.optimum_oracle[0], np.zeros(1))

    def test_oracle_beats_perturbations(self):
        rng = np.random.Generator(np.random.Philox(5))
        b = rng.standard_normal(8)
        p = build_lasso_onestep(0.7, b)
        x_star, f_star = p.optimum_oracle
        for _ in range(200):
            z = x_star + 0.1 * rng.standard_normal(8)
            assert evaluate_composite(p, z) >= f_star - 1e-12


def blind_reference(A, b, eta, iters=100_000):
    """Fixed-budget projected gradient from the barycentre, with no stopping
    test: an independent estimate of F* to check the certified one by."""
    G, c = A.T @ A, A.T @ b
    x = np.full(A.shape[1], 1.0 / A.shape[1])
    for _ in range(iters):
        x = simplex_projection(x - eta * (G @ x - c))
    return x, 0.5 * float(np.sum((A @ x - b) ** 2))


def fw_gap(A, b, x):
    g = A.T @ (A @ x - b)
    return float(g @ x - np.min(g))


class TestReferenceRun:
    @pytest.mark.parametrize("seed", [0, 3])
    def test_certified_reference_matches_long_run(self, seed):
        res = run_experiment(desk_spec(seed=seed, variants=("pga-constant",),
                                       max_iters=10, ref_iters=100_000))
        x_ref, f_ref = res.reference_optimum
        scale = 1.0 + abs(f_ref)
        assert 0.0 <= res.reference_gap <= 1e-13 * scale
        assert abs(np.sum(x_ref) - 1.0) <= 1e-9
        assert np.min(x_ref) >= 0.0
        f = res.problem.f
        _, f_long = blind_reference(f.A, f.b, res.gamma)
        # both values bound F* from above, so the gap bounds how far the
        # certified one can lie above the long run's; either side allows
        # the rounding of evaluating F (seed 3 sits one ulp below)
        rounding = 1e-15 * scale
        assert -rounding <= f_ref - f_long <= res.reference_gap + rounding

    def test_cap_returns_uncertified_point_and_warns_once(self, caplog):
        p = build_simplex_ls(desk_spec())
        A, b = p.f.A, p.f.b
        gamma = 1.0 / p.f.lipschitz_grad
        with caplog.at_level(logging.WARNING, logger="bregprox.experiments"):
            x, f_x = reference_simplex_ls(A, b, gamma, iters=1)
        x0 = np.full(A.shape[1], 1.0 / A.shape[1])
        np.testing.assert_allclose(
            x, simplex_projection(x0 - gamma * p.f.grad(x0)), atol=1e-15)
        assert f_x == pytest.approx(p.f.value(x), rel=1e-15)
        gap = fw_gap(A, b, x)
        assert gap > 1e-13 * (1.0 + abs(f_x))
        assert len(caplog.records) == 1
        assert "uncertified" in caplog.messages[0]
        assert f"{gap:.3e}" in caplog.messages[0]

    def test_negative_cap_rejected(self):
        p = build_simplex_ls(desk_spec())
        with pytest.raises(ContractViolation):
            reference_simplex_ls(p.f.A, p.f.b, 1.0 / p.f.lipschitz_grad,
                                 iters=-1)

    def test_certified_start_returns_at_once(self, monkeypatch):
        p = build_simplex_ls(desk_spec())
        A, b = p.f.A, p.f.b
        gamma = 1.0 / p.f.lipschitz_grad
        x_ref, f_ref = reference_simplex_ls(A, b, gamma)

        def no_step(v):
            raise AssertionError("stepped from a certified start")

        monkeypatch.setattr(experiments, "simplex_projection", no_step)
        x, f_x = reference_simplex_ls(A, b, gamma, x0=x_ref)
        np.testing.assert_array_equal(x, x_ref)
        assert f_x == f_ref


@pytest.fixture(scope="module")
def result():
    return run_experiment(desk_spec())


class TestRunExperiment:
    def test_four_traces(self, result):
        assert set(result.traces) == {
            "pga-constant", "pga-linesearch",
            "mirror-constant", "mirror-linesearch",
        }
        assert not result.failures

    def test_line_search_not_slower(self, result):
        def key(v):
            k = result.iters_to_tol[v]
            return np.inf if k is None else k
        assert key("pga-linesearch") <= key("pga-constant")
        assert key("mirror-linesearch") <= key("mirror-constant")

    def test_constant_step_certificates_hold(self, result):
        for v in ("pga-constant", "mirror-constant"):
            assert result.certificates[v].margin >= -1e-9

    def test_mirror_iterates_stay_interior(self, result):
        for v in ("mirror-constant", "mirror-linesearch"):
            for rec in result.traces[v].records:
                assert np.min(rec.x) > 0.0
                assert abs(np.sum(rec.x) - 1.0) <= 1e-9

    def test_single_variant_spec(self):
        res = run_experiment(desk_spec(variants=("pga-constant",),
                                       max_iters=50, ref_iters=5000))
        assert list(res.traces) == ["pga-constant"]
        assert len(res.certificates) == 1

    def test_determinism(self):
        spec = desk_spec(max_iters=100, ref_iters=5000)
        a = run_experiment(spec)
        b = run_experiment(spec)
        for v in spec.variants:
            np.testing.assert_array_equal(a.traces[v].objectives(),
                                          b.traces[v].objectives())
            ra = np.array([r.eta_used for r in a.traces[v].records])
            rb = np.array([r.eta_used for r in b.traces[v].records])
            np.testing.assert_array_equal(ra, rb)
        assert a.reference_optimum[1] == b.reference_optimum[1]

    def test_one_step_lasso_from_random_starts(self):
        rng = np.random.Generator(np.random.Philox(6))
        from bregprox import (SolverConfig, make_prox_map, run_solver,
                              squared_euclidean, bpga_bound)
        gamma = 0.8
        p = build_lasso_onestep(gamma, rng.standard_normal(10))
        pm = make_prox_map("l1", "quadratic")
        H = squared_euclidean(10)
        x_star, f_star = p.optimum_oracle
        for _ in range(10):
            x0 = rng.standard_normal(10) * 3
            trace = run_solver(p, H, pm, x0,
                               SolverConfig(eta0=gamma, max_iters=1))
            assert trace.records[1].objective - f_star <= 1e-10
            assert abs(bpga_bound(H, p.f, gamma, x_star, x0, 1)) <= 1e-12
