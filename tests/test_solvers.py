import dataclasses
import logging

import numpy as np
import pytest

from bregprox import (
    CompositeProblem,
    ContractViolation,
    ExperimentSpec,
    SolverConfig,
    SolverFailure,
    build_lasso_onestep,
    composite_generator,
    euclidean_space,
    evaluate_composite,
    gppa_objective,
    l1_norm,
    least_squares,
    make_prox_map,
    negative_entropy,
    probability_simplex,
    run_solver,
    shifted_quadratic,
    simplex_indicator,
    squared_euclidean,
    verify_theorem2_equivalence,
    zero_function,
)
from bregprox import solvers
from bregprox.experiments import build_simplex_ls
from bregprox.prox import prox_objective


def rng(seed=0):
    return np.random.Generator(np.random.Philox(seed))


def simplex_ls_problem(m, n, seed):
    r = rng(seed)
    A = r.standard_normal((m, n))
    A /= np.linalg.norm(A, axis=0)
    b = r.standard_normal(m)
    b /= np.linalg.norm(b)
    L = float(np.linalg.eigvalsh(A.T @ A)[-1])
    return CompositeProblem(
        f=least_squares(A, b, lipschitz=L),
        g=simplex_indicator(n),
        domain=probability_simplex(n),
        problem_id=f"test_{m}x{n}",
    )


def one_step(p, H, pm, x, eta):
    """x_1 of a one-iteration constant-step run from x."""
    trace = run_solver(p, H, pm, x, SolverConfig(eta0=eta, max_iters=1))
    return trace.final().x


class TestSteps:
    def test_ppa_reduces_to_soft_threshold(self):
        # f = 0 turns the proximal gradient step into a pure proximal step
        p = CompositeProblem(zero_function(2), l1_norm(), euclidean_space(2))
        pm = make_prox_map("l1", "quadratic")
        got = one_step(p, squared_euclidean(2), pm,
                       np.array([3.0, -0.5]), 1.0)
        np.testing.assert_allclose(got, [2.0, 0.0])

    def test_one_step_regime_is_anchor_independent(self):
        p = build_lasso_onestep(0.7, np.array([2.0, -3.0, 0.3]))
        pm = make_prox_map("l1", "quadratic")
        r = rng(1)
        outs = [one_step(p, squared_euclidean(3), pm,
                         r.standard_normal(3), 0.7) for _ in range(5)]
        for o in outs[1:]:
            np.testing.assert_allclose(o, outs[0], atol=1e-12)
        np.testing.assert_allclose(outs[0], p.optimum_oracle[0], atol=1e-12)

    def test_fixed_point(self):
        p = CompositeProblem(zero_function(2), l1_norm(), euclidean_space(2))
        pm = make_prox_map("l1", "quadratic")
        np.testing.assert_allclose(
            one_step(p, squared_euclidean(2), pm, np.zeros(2), 1.0),
            np.zeros(2))

    def test_pga_matches_direct_projection(self):
        p = simplex_ls_problem(4, 6, seed=4)
        pm = make_prox_map("simplex", "quadratic")
        from bregprox import project_simplex
        x = np.full(6, 1 / 6)
        eta = 0.3
        np.testing.assert_allclose(
            one_step(p, squared_euclidean(6), pm, x, eta),
            project_simplex(p.f.grad(x), x, eta))

    def test_mismatched_prox_map_rejected(self):
        p = CompositeProblem(zero_function(2), l1_norm(), euclidean_space(2))
        with pytest.raises(ContractViolation):
            one_step(p, squared_euclidean(2),
                     make_prox_map("zero", "quadratic"), np.zeros(2), 1.0)

    def test_step_above_gamma_still_computes(self, caplog):
        p = simplex_ls_problem(4, 6, seed=5)
        pm = make_prox_map("simplex", "quadratic")
        gamma = 1.0 / p.f.lipschitz_grad
        cfg = SolverConfig(eta0=10 * gamma, max_iters=3)
        with caplog.at_level(logging.WARNING, logger="bregprox.solvers"):
            trace = run_solver(p, squared_euclidean(6), pm,
                               np.full(6, 1 / 6), cfg)
        assert len(trace.records) == 4
        assert any("exceeds gamma" in m for m in caplog.messages)


class TestGppaObjective:
    def test_anchor_value_is_objective(self):
        p = simplex_ls_problem(5, 8, seed=6)
        H = squared_euclidean(8)
        eta = 0.5 / p.f.lipschitz_grad
        h = composite_generator(H, p.f, eta)
        x_k = np.full(8, 1 / 8)
        assert gppa_objective(p, h, x_k, x_k) == pytest.approx(
            evaluate_composite(p, x_k))

    def test_constant_offset_identity(self):
        p = simplex_ls_problem(5, 8, seed=7)
        H = squared_euclidean(8)
        eta = 0.5 / p.f.lipschitz_grad
        h = composite_generator(H, p.f, eta)
        pm = make_prox_map("simplex", "quadratic")
        r = rng(8)
        x_k = r.dirichlet(np.ones(8))
        v = p.f.grad(x_k)
        diffs = [
            gppa_objective(p, h, x, x_k) - prox_objective(pm, x, v, x_k, eta)
            for x in (r.dirichlet(np.ones(8)) for _ in range(100))
        ]
        assert np.std(diffs) <= 1e-10
        want = p.f.value(x_k) - float(np.dot(x_k, v))
        assert np.mean(diffs) == pytest.approx(want, abs=1e-10)

    def test_zero_smooth_term_degenerates(self):
        p = CompositeProblem(zero_function(3), l1_norm(), euclidean_space(3))
        H = squared_euclidean(3)
        h = composite_generator(H, p.f, 2.0)
        r = rng(9)
        for _ in range(20):
            x, x_k = r.standard_normal((2, 3))
            want = (np.sum(np.abs(x))
                    + 0.5 * np.sum((x - x_k) ** 2) / 2.0)
            assert gppa_objective(p, h, x, x_k) == pytest.approx(want)


class TestRunSolver:
    def test_lasso_one_step_convergence(self):
        r = rng(10)
        p = build_lasso_onestep(0.9, r.standard_normal(10))
        pm = make_prox_map("l1", "quadratic")
        cfg = SolverConfig(eta0=0.9, max_iters=3)
        trace = run_solver(p, squared_euclidean(10), pm,
                           r.standard_normal(10), cfg)
        f_star = p.optimum_oracle[1]
        assert trace.records[1].objective - f_star <= 1e-10

    def test_ppa_on_l1_contracts_to_origin(self):
        p = CompositeProblem(zero_function(3), l1_norm(), euclidean_space(3))
        pm = make_prox_map("l1", "quadratic")
        cfg = SolverConfig(eta0=0.5, max_iters=30)
        trace = run_solver(p, squared_euclidean(3), pm,
                           np.array([5.0, -3.0, 1.0]), cfg)
        np.testing.assert_allclose(trace.final().x, np.zeros(3), atol=1e-12)
        objs = trace.objectives()
        assert np.all(np.diff(objs) <= 1e-12)

    @pytest.mark.parametrize("H_kind", ["quadratic", "entropy"])
    def test_line_search_acceptance_and_descent(self, H_kind):
        p = simplex_ls_problem(20, 40, seed=11)
        n = 40
        H = squared_euclidean(n) if H_kind == "quadratic" \
            else negative_entropy(n)
        pm = make_prox_map("simplex", H_kind)
        cfg = SolverConfig(eta0=100.0, alpha=0.5, max_iters=50,
                           line_search_enabled=True)
        trace = run_solver(p, H, pm, np.full(n, 1 / n), cfg)
        gamma = 1.0 / p.f.lipschitz_grad
        for rec in trace.records[1:]:
            assert rec.d_hk_value >= -1e-12
            assert rec.eta_used >= 0.5 * gamma - 1e-12
        objs = trace.objectives()
        assert np.all(np.diff(objs) < 0)
        etas = [rec.eta_used for rec in trace.records[1:]]
        assert np.all(np.diff(etas) <= 0)

    def test_constant_step_satisfies_criterion_post_hoc(self):
        # with eta <= gamma the acceptance quantity is nonnegative anyway
        p = simplex_ls_problem(10, 20, seed=12)
        gamma = 1.0 / p.f.lipschitz_grad
        pm = make_prox_map("simplex", "quadratic")
        cfg = SolverConfig(eta0=gamma, max_iters=50)
        trace = run_solver(p, squared_euclidean(20), pm,
                           np.full(20, 1 / 20), cfg)
        for rec in trace.records[1:]:
            assert rec.d_hk_value >= -1e-12

    def test_backtrack_budget_exhaustion_carries_partial_trace(self):
        p = simplex_ls_problem(6, 10, seed=13)
        # nonconvex acceptance is impossible to fail for eta <= gamma, so
        # force failure with a tiny backtrack budget and huge eta0
        pm = make_prox_map("simplex", "entropy")
        cfg = SolverConfig(eta0=1e6, alpha=0.99, max_iters=10,
                           max_backtracks_per_iter=1,
                           line_search_enabled=True)
        with pytest.raises(SolverFailure) as exc_info:
            run_solver(p, negative_entropy(10), pm, np.full(10, 0.1), cfg)
        assert exc_info.value.partial_trace is not None

    def test_early_stop_on_gap(self):
        r = rng(14)
        p = build_lasso_onestep(1.0, r.standard_normal(5))
        pm = make_prox_map("l1", "quadratic")
        cfg = SolverConfig(eta0=1.0, max_iters=100, tolerance=1e-8)
        trace = run_solver(p, squared_euclidean(5), pm,
                           r.standard_normal(5), cfg)
        assert trace.final().k == 1  # one-step regime stops immediately

    @pytest.mark.parametrize("H_kind", ["quadratic", "entropy"])
    def test_line_search_is_invariant_to_data_units(self, H_kind):
        # A, b scaled by s and eta0 by 1/s^2 is the same problem in new
        # units: the line search must take the same decisions
        base = build_simplex_ls(ExperimentSpec(name="desk", m=50, n=100,
                                               seed=42))
        H = squared_euclidean(100) if H_kind == "quadratic" \
            else negative_entropy(100)
        pm = make_prox_map("simplex", H_kind)
        runs = []
        for s in (1.0, 1e2, 1e3, 1e4):
            f = least_squares(base.f.A * s, base.f.b * s,
                              lipschitz=base.f.lipschitz_grad * s * s)
            p = CompositeProblem(f, base.g, base.domain)
            cfg = SolverConfig(eta0=100.0 / s**2, max_iters=200,
                               line_search_enabled=True)
            trace = run_solver(p, H, pm, np.full(100, 0.01), cfg)
            runs.append(([r.backtracks for r in trace.records],
                         np.array([r.eta_used for r in trace.records]) * s**2))
        for backtracks, eta_s2 in runs[1:]:
            assert backtracks == runs[0][0]
            np.testing.assert_allclose(eta_s2, runs[0][1], rtol=1e-12)

    def test_long_mirror_line_search_keeps_its_step(self):
        # at tolerance 0 the iterates reach exact zeros and the rounding
        # floor; the step must stay above the alpha * gamma the line-search
        # certificate assumes
        p = build_simplex_ls(ExperimentSpec(name="desk", m=50, n=100,
                                            seed=42))
        cfg = SolverConfig(eta0=100.0, alpha=0.5, max_iters=1000,
                           line_search_enabled=True)
        trace = run_solver(p, negative_entropy(100),
                           make_prox_map("simplex", "entropy"),
                           np.full(100, 0.01), cfg)
        assert trace.final().k == 1000
        assert np.min(trace.final().x) == 0.0
        # entries below the smallest normal float are flushed to zero, so
        # no iterate carries a subnormal operand into the next matvec
        xs = np.array([r.x for r in trace.records])
        assert not np.any((xs > 0.0) & (xs < np.finfo(float).tiny))
        gamma = 1.0 / p.f.lipschitz_grad
        assert min(r.eta_used for r in trace.records) >= 0.5 * gamma

    @pytest.mark.parametrize("H_kind", ["quadratic", "entropy"])
    def test_one_gradient_and_value_per_accepted_iterate(self, H_kind):
        # a smooth term without a stepper of its own goes through its
        # oracles: one gradient and one value per accepted iterate, one
        # distance per candidate
        base = shifted_quadratic(rng(11).standard_normal(40), 0.01)
        calls = {"grad": 0, "value": 0, "distance": 0}

        def counted(name, oracle):
            def wrapper(*args):
                calls[name] += 1
                return oracle(*args)
            return wrapper

        f = dataclasses.replace(
            base, grad=counted("grad", base.grad),
            value=counted("value", base.value),
            distance=counted("distance", base.distance))
        p = CompositeProblem(f, simplex_indicator(40), probability_simplex(40))
        H = squared_euclidean(40) if H_kind == "quadratic" \
            else negative_entropy(40)
        cfg = SolverConfig(eta0=1e6, alpha=0.5, max_iters=30,
                           line_search_enabled=True)
        trace = run_solver(p, H, make_prox_map("simplex", H_kind),
                           np.full(40, 1 / 40), cfg)
        backtracks = sum(r.backtracks for r in trace.records)
        assert backtracks >= 10
        assert calls == {"grad": 30, "value": 31,
                         "distance": 30 + backtracks}

    @pytest.mark.parametrize("H_kind", ["quadratic", "entropy"])
    def test_least_squares_step_makes_two_passes_over_A(self, H_kind):
        # F(x0) and the starting residual take one pass each; then a step
        # costs A^T r and one A d per candidate, the residual moving by A d
        base = simplex_ls_problem(20, 40, seed=11)
        passes = []

        class CountedMatrix(np.ndarray):
            def __matmul__(self, other):
                passes.append(1)
                return np.asarray(self) @ other

        def counted(oracle, cost):
            def wrapper(*args):
                passes.extend([1] * cost)
                return oracle(*args)
            return wrapper

        # the oracles count what they cost (a gradient is two passes), the
        # matrix every pass made with it directly
        f = dataclasses.replace(
            base.f, A=base.f.A.view(CountedMatrix),
            grad=counted(base.f.grad, 2), value=counted(base.f.value, 1),
            distance=counted(base.f.distance, 1))
        p = CompositeProblem(f, base.g, base.domain)
        H = squared_euclidean(40) if H_kind == "quadratic" \
            else negative_entropy(40)
        cfg = SolverConfig(eta0=1e6, alpha=0.5, max_iters=30,
                           line_search_enabled=True)
        trace = run_solver(p, H, make_prox_map("simplex", H_kind),
                           np.full(40, 1 / 40), cfg)
        backtracks = sum(r.backtracks for r in trace.records)
        assert backtracks >= 10
        assert len(passes) == 2 + 2 * 30 + backtracks

    @pytest.mark.parametrize("seed", [42, 3])
    def test_carried_objective_stays_exact(self, seed):
        # the least-squares residual is updated, never recomputed; over
        # 5,000 steps its objective stays at a fresh evaluation's
        p = build_simplex_ls(ExperimentSpec(name="desk", m=50, n=100,
                                            seed=seed))
        gamma = 1.0 / p.f.lipschitz_grad
        for H in (squared_euclidean(100), negative_entropy(100)):
            pm = make_prox_map("simplex", H.kind)
            for cfg in (SolverConfig(eta0=gamma, max_iters=5000),
                        SolverConfig(eta0=100.0, max_iters=5000,
                                     line_search_enabled=True)):
                trace = run_solver(p, H, pm, np.full(100, 0.01), cfg)
                fresh = evaluate_composite(
                    p, np.array([r.x for r in trace.records]))
                np.testing.assert_allclose(trace.objectives(), fresh,
                                           rtol=1e-13, atol=0)

    @pytest.mark.parametrize("H_kind", ["quadratic", "entropy"])
    def test_constant_step_d_hk_comes_in_blocks(self, H_kind):
        # constant-step d_hk are computed after the steps, with one stacked
        # D_H call per block; each must keep the bits of its own step's
        # distances
        p = build_simplex_ls(ExperimentSpec(name="desk", m=50, n=100,
                                            seed=42))
        base = squared_euclidean(100) if H_kind == "quadratic" \
            else negative_entropy(100)
        calls = []

        def counting(x, y):
            calls.append(len(np.atleast_2d(x)))
            return base.distance(x, y)

        H = dataclasses.replace(base, distance=counting)
        eta = 1.0 / p.f.lipschitz_grad
        rows = solvers.FLUSH_ENTRIES // 100
        trace = run_solver(p, H, make_prox_map("simplex", H_kind),
                           np.full(100, 0.01),
                           SolverConfig(eta0=eta, max_iters=3 * rows + 7))
        assert calls == [rows, rows, rows, 7]
        for prev, rec in zip(trace.records, trace.records[1:]):
            assert rec.d_hk_value == (base.distance(rec.x, prev.x) / eta
                                      - p.f.distance(rec.x, prev.x))

    @pytest.mark.parametrize("H_kind", ["quadratic", "entropy"])
    def test_exhausted_line_search_keeps_every_accepted_record(self, H_kind):
        # D_f is reported huge from the 101st candidate on, so iteration
        # 101 backtracks to the end of its budget; the partial trace must
        # still hold the 100 accepted steps, more than one block of them
        n = 100
        base = shifted_quadratic(rng(18).standard_normal(n), 0.01)
        candidates = []

        def failing(x, y):
            candidates.append(1)
            return base.distance(x, y) if len(candidates) <= 100 else 1e300

        H = squared_euclidean(n) if H_kind == "quadratic" \
            else negative_entropy(n)
        pm = make_prox_map("simplex", H_kind)
        runs = []
        for f in (base, dataclasses.replace(base, distance=failing)):
            p = CompositeProblem(f, simplex_indicator(n),
                                 probability_simplex(n))
            cfg = SolverConfig(eta0=0.005, max_iters=200,
                               max_backtracks_per_iter=3,
                               line_search_enabled=True)
            try:
                runs.append(run_solver(p, H, pm, np.full(n, 1 / n), cfg))
            except SolverFailure as exc:
                assert "exhausted at iteration 101" in str(exc)
                runs.append(exc.partial_trace)
        full, partial = runs
        assert 100 > solvers.FLUSH_ENTRIES // n
        assert [r.k for r in partial.records] == list(range(101))
        for got, want in zip(partial.records, full.records):
            assert (got.objective, got.eta_used, got.backtracks,
                    got.d_hk_value) == (want.objective, want.eta_used,
                                        want.backtracks, want.d_hk_value)
            np.testing.assert_array_equal(got.x, want.x)

    @pytest.mark.parametrize("eta0", [np.nan, np.inf, -np.inf, 0.0])
    def test_non_finite_or_nonpositive_step_rejected(self, eta0):
        with pytest.raises(ContractViolation):
            SolverConfig(eta0=eta0)

    def test_infeasible_start_rejected(self):
        p = simplex_ls_problem(4, 6, seed=15)
        pm = make_prox_map("simplex", "quadratic")
        cfg = SolverConfig(eta0=0.1, max_iters=5)
        with pytest.raises(ContractViolation):
            run_solver(p, squared_euclidean(6), pm, np.ones(6), cfg)


class TestTheorem2Equivalence:
    def test_quadratic_generator_lasso(self):
        r = rng(16)
        A = r.standard_normal((10, 20))
        L = float(np.linalg.eigvalsh(A.T @ A)[-1])
        p = CompositeProblem(
            f=least_squares(A, r.standard_normal(10), lipschitz=L),
            g=l1_norm(), domain=euclidean_space(20),
        )
        pm = make_prox_map("l1", "quadratic")
        worst = verify_theorem2_equivalence(
            p, squared_euclidean(20), pm, r.standard_normal(20),
            eta=1.0 / L, iters=10, samples=300, seed=0)
        assert worst <= 1e-9

    def test_entropy_generator_simplex_ls(self):
        p = simplex_ls_problem(8, 10, seed=17)
        pm = make_prox_map("simplex", "entropy")
        worst = verify_theorem2_equivalence(
            p, negative_entropy(10), pm, np.full(10, 0.1),
            eta=1.0 / p.f.lipschitz_grad, iters=10, samples=300, seed=1)
        assert worst <= 1e-9

    def test_zero_smooth_term(self):
        p = CompositeProblem(zero_function(4), l1_norm(), euclidean_space(4))
        pm = make_prox_map("l1", "quadratic")
        worst = verify_theorem2_equivalence(
            p, squared_euclidean(4), pm, np.array([2.0, -1.0, 0.5, 0.0]),
            eta=1.0, iters=5, samples=300, seed=2)
        assert worst <= 1e-9

    def test_evaluates_bounded_stacks(self, monkeypatch):
        seen = []

        def recorded(p, h, x, x_k):
            seen.append(len(np.atleast_2d(x)))
            return gppa_objective(p, h, x, x_k)

        monkeypatch.setattr(solvers, "gppa_objective", recorded)
        p = simplex_ls_problem(8, 10, seed=17)
        worst = verify_theorem2_equivalence(
            p, negative_entropy(10), make_prox_map("simplex", "entropy"),
            np.full(10, 0.1), eta=1.0 / p.f.lipschitz_grad, iters=3,
            samples=2_500, seed=1)
        assert worst <= 1e-9
        assert max(seen) <= 1_000
        assert sum(seen) == 3 * (2_500 + 1)
