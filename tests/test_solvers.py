import ast
import dataclasses
import logging
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from bregprox import (
    CompositeProblem,
    ConfigurationError,
    ContractViolation,
    DomainError,
    ExperimentSpec,
    SmoothFunction,
    SolverConfig,
    SolverFailure,
    build_lasso_onestep,
    certify_trace,
    composite_generator,
    evaluate_composite,
    gppa_objective,
    l1_norm,
    least_squares,
    make_prox_map,
    negative_entropy,
    project_simplex,
    run_experiment,
    run_solver,
    shifted_quadratic,
    simplex_indicator,
    squared_euclidean,
    verify_theorem2_equivalence,
    zero_function,
)
from bregprox import functions, solvers
from bregprox.experiments import (build_simplex_ls, reference_simplex_ls,
                                  variant_configs)
from bregprox.functions import (FLUSH_ENTRIES, NONSMOOTH_VALUES,
                                ResidualStepper, pass_plan)
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
    return CompositeProblem(f=least_squares(A, b, lipschitz=L),
                            g=simplex_indicator(n))


def at_blas_threads(code, threads=1):
    """The Python value that ``code`` prints, run in a new interpreter whose
    BLAS runs on ``threads`` threads, with src and this directory on its
    path."""
    here = Path(__file__).resolve().parent
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(here.parent / "src"), str(here)])}
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                 "MKL_NUM_THREADS"):
        env[name] = str(threads)
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env)
    assert done.returncode == 0, done.stderr
    return ast.literal_eval(done.stdout)


def rows_read(m, n, H_kind):
    """The rows of A that a 30-step line-search run reads on an m x n
    simplex least-squares problem, the rows it should read, its backtracks
    and the blocks of its stepper's pass plan (0 for one call).

    F(x0) and the starting residual take one pass each, and a plan's probe
    two; then a step costs A^T r and one A d per candidate, the residual
    moving by A d.  Each pass reads m rows, in one call or in blocks.
    """
    base = simplex_ls_problem(m, n, seed=11)
    rows = []

    class CountedMatrix(np.ndarray):
        def __matmul__(self, other):
            rows.append(self.size // n)
            return np.asarray(self) @ other

        # the residual stepper's passes: A.dot(d, out=...), or each block's
        # part of it, and A.T.dot(r)
        def dot(self, other, out=None):
            rows.append(self.size // n)
            return np.asarray(self).dot(other, out=out)

        # np.matmul(A, d) would reach the matrix as a ufunc, not through
        # __matmul__; any other ufunc on A fails the test
        def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
            assert ufunc is np.matmul and method == "__call__"
            rows.append(self.size // n)
            return ufunc(*(np.asarray(a) for a in inputs), **kwargs)

    def counted(oracle, cost):
        def wrapper(*args):
            rows.append(cost * m)
            return oracle(*args)
        return wrapper

    # the oracles count the rows of what they cost (a gradient is two
    # passes), the matrix those of every pass made with it directly
    f = dataclasses.replace(
        base.f, A=base.f.A.view(CountedMatrix),
        grad=counted(base.f.grad, 2), value=counted(base.f.value, 1),
        distance=counted(base.f.distance, 1))
    p = CompositeProblem(f, base.g)
    H = squared_euclidean(n) if H_kind == "quadratic" \
        else negative_entropy(n)
    cfg = SolverConfig(eta0=1e6, alpha=0.5, max_iters=30,
                       line_search_enabled=True)
    trace = run_solver(p, H, make_prox_map("simplex", H_kind),
                       np.full(n, 1 / n), cfg)
    backtracks = int(sum(trace.backtracks))
    blocks = len(pass_plan(base.f.A) or ())
    passes = 2 + 2 * bool(blocks) + 2 * 30 + backtracks
    return sum(rows), m * passes, backtracks, blocks


def planned_proposals(m, n):
    """The blocks of an m x n least-squares stepper's pass plan (0 for one
    call), and whether each A d that its ``propose`` wrote over 3 steps of
    3 candidates each, as a line search tries them, has the bits of
    ``A.dot(d)`` and of ``np.matmul(A, d)``."""
    r = rng(m * n)
    A, b = r.standard_normal((m, n)), r.standard_normal(m)
    stepper = ResidualStepper(A, b, np.full(n, 1 / n))
    same = True
    for _ in range(3):
        for _ in range(3):
            cand = r.dirichlet(np.ones(n))
            stepper.propose(cand)
            d = cand - stepper.x
            same &= stepper.ad.tobytes() == A.dot(d).tobytes() \
                == np.matmul(A, d).tobytes()
        stepper.accept()
    return len(stepper.plan or ()), same


def counted_oracles(f):
    """f with its grad, value and distance oracles logging each call, as
    the number of dimensions of its first argument (2 for a stack)."""
    calls = {"grad": [], "value": [], "distance": []}

    def counted(name):
        oracle = getattr(f, name)

        def wrapper(*args):
            calls[name].append(np.ndim(args[0]))
            return oracle(*args)
        return wrapper

    wrapped = dataclasses.replace(f, **{name: counted(name) for name in calls})
    return wrapped, calls


def assert_row_updates(p, H, trace, steps):
    """The trace's f, g and d_hk of a least-squares run have the bits of
    the row-by-row residual update r + A d and its reductions."""
    A, b, xs = p.f.A, p.f.b, trace.xs
    assert len(xs) == steps + 1
    r = A @ xs[0] - b
    for k in range(1, steps + 1):
        Ad = A @ (xs[k] - xs[k - 1])
        d_f = float(0.5 * np.add.reduce(np.square(Ad)))
        r = r + Ad
        f = float(0.5 * np.add.reduce(np.square(r)))
        assert trace.objective[k] == f + p.g.value(xs[k])
        assert trace.d_hk[k] == H.distance(xs[k], xs[k - 1]) \
            / trace.eta[k] - d_f


def one_step(p, H, pm, x, eta):
    """x_1 of a one-iteration constant-step run from x."""
    trace = run_solver(p, H, pm, x, SolverConfig(eta0=eta, max_iters=1,
                                                 keep_iterates=True))
    return trace.xs[-1]


class TestSteps:
    def test_ppa_reduces_to_soft_threshold(self):
        # f = 0 turns the proximal gradient step into a pure proximal step
        p = CompositeProblem(zero_function(2), l1_norm())
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
        p = CompositeProblem(zero_function(2), l1_norm())
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
        p = CompositeProblem(zero_function(2), l1_norm())
        with pytest.raises(ContractViolation):
            one_step(p, squared_euclidean(2),
                     make_prox_map("zero", "quadratic"), np.zeros(2), 1.0)

    @pytest.mark.parametrize("H_kind, held", [("quadratic", False),
                                              ("entropy", True)])
    def test_step_above_gamma_still_computes(self, caplog, H_kind, held):
        # eta L <= 1 is one sufficient condition for D_{h_k} >= 0, and for
        # entropy not the right one: mirror descent at eta = 1/max_i ||a_i||^2
        # (eta L = 6.0 here) keeps D_{h_k} >= 0 at each of its 500 steps,
        # where PGA at 10/L does not.  The run reads the exact test on each
        # step into its trace and logs nothing
        base = build_simplex_ls(ExperimentSpec(name="desk", m=50, n=100,
                                               seed=42))
        A = base.f.A
        p = dataclasses.replace(
            base, optimum_oracle=reference_simplex_ls(A, base.f.b))
        if H_kind == "quadratic":
            H, eta = squared_euclidean(100), 10.0 / base.f.lipschitz_grad
        else:
            H = negative_entropy(100)
            eta = 1.0 / np.max(np.einsum("ij,ij->j", A, A))
        cfg = SolverConfig(eta0=eta, max_iters=500, keep_iterates=False)
        with caplog.at_level(logging.DEBUG, logger="bregprox"):
            trace = run_solver(p, H, make_prox_map(p.g.kind, H.kind),
                               np.full(100, 0.01), cfg)
        assert not [name for name, _, _ in caplog.record_tuples
                    if name.partition(".")[0] == "bregprox"]
        assert len(trace.objective) == 501
        assert eta * base.f.lipschitz_grad > 5.0
        assert trace.hypothesis_held is held
        cert = certify_trace(p, H, trace)
        assert cert.hypothesis_satisfied is held
        if held:
            assert cert.margin > 0.0


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
        r = rng(8)
        x_k = r.dirichlet(np.ones(8))
        v = p.f.grad(x_k)
        diffs = [
            gppa_objective(p, h, x, x_k) - prox_objective(p.g, H, x, v, x_k,
                                                          eta)
            for x in (r.dirichlet(np.ones(8)) for _ in range(100))
        ]
        assert np.std(diffs) <= 1e-10
        want = p.f.value(x_k) - float(np.dot(x_k, v))
        assert np.mean(diffs) == pytest.approx(want, abs=1e-10)

    def test_zero_smooth_term_degenerates(self):
        p = CompositeProblem(zero_function(3), l1_norm())
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
        assert trace.objective[1] - f_star <= 1e-10

    def test_ppa_on_l1_contracts_to_origin(self):
        p = CompositeProblem(zero_function(3), l1_norm())
        pm = make_prox_map("l1", "quadratic")
        cfg = SolverConfig(eta0=0.5, max_iters=30, keep_iterates=True)
        trace = run_solver(p, squared_euclidean(3), pm,
                           np.array([5.0, -3.0, 1.0]), cfg)
        np.testing.assert_allclose(trace.xs[-1], np.zeros(3), atol=1e-12)
        objs = trace.objective
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
        assert np.all(trace.d_hk[1:] >= -1e-12)
        assert np.all(trace.eta[1:] >= 0.5 * gamma - 1e-12)
        objs = trace.objective
        assert np.all(np.diff(objs) < 0)
        etas = trace.eta[1:]
        assert np.all(np.diff(etas) <= 0)

    def test_constant_step_satisfies_criterion_post_hoc(self):
        # with eta <= gamma the acceptance quantity is nonnegative anyway
        p = simplex_ls_problem(10, 20, seed=12)
        gamma = 1.0 / p.f.lipschitz_grad
        pm = make_prox_map("simplex", "quadratic")
        cfg = SolverConfig(eta0=gamma, max_iters=50)
        trace = run_solver(p, squared_euclidean(20), pm,
                           np.full(20, 1 / 20), cfg)
        assert np.all(trace.d_hk[1:] >= -1e-12)

    def test_backtrack_budget_exhaustion_carries_partial_trace(self):
        p = simplex_ls_problem(6, 10, seed=13)
        # nonconvex acceptance is impossible to fail for eta <= gamma, so
        # force failure with a huge eta0 that alpha = 0.99 shrinks only to
        # about 5e5 in MAX_BACKTRACKS steps
        pm = make_prox_map("simplex", "entropy")
        cfg = SolverConfig(eta0=1e6, alpha=0.99, max_iters=10,
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
        assert len(trace.objective) == 2  # one-step regime stops at once

    @pytest.mark.parametrize("H_kind", ["quadratic", "entropy"])
    @settings(max_examples=10, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), m=st.integers(5, 60),
           n=st.integers(5, 120))
    @example(seed=42, m=50, n=100)
    def test_line_search_is_invariant_to_data_units(self, H_kind, seed, m,
                                                    n):
        # A, b scaled by s and eta0 by 1/s^2 is the same problem in new
        # units: none of the 200 steps may fail, and the line search must
        # take the same decisions until a run reaches the rounding floor,
        # a step that moves no entry by more than a few ulps; a candidate
        # there is rounding noise, which differs between units
        base = build_simplex_ls(ExperimentSpec(name="desk", m=m, n=n,
                                               seed=seed))
        H = squared_euclidean(n) if H_kind == "quadratic" \
            else negative_entropy(n)
        pm = make_prox_map("simplex", H_kind)
        runs, floor = [], 201
        for s in (1.0, 1e2, 1e4):
            f = least_squares(base.f.A * s, base.f.b * s,
                              lipschitz=base.f.lipschitz_grad * s * s)
            p = CompositeProblem(f, base.g)
            cfg = SolverConfig(eta0=100.0 / s**2, max_iters=200,
                               line_search_enabled=True, keep_iterates=True)
            trace = run_solver(p, H, pm, np.full(n, 1.0 / n), cfg)
            assert len(trace.objective) - 1 == 200
            moves = np.max(np.abs(np.diff(trace.xs, axis=0)), axis=1)
            floor = min([floor] + [
                k + 1 for k in np.flatnonzero(
                    moves <= 4 * np.finfo(float).eps).tolist()])
            runs.append((trace.backtracks.tolist(), trace.eta * s**2))
        for backtracks, eta_s2 in runs[1:]:
            assert backtracks[:floor] == runs[0][0][:floor]
            np.testing.assert_allclose(eta_s2[:floor], runs[0][1][:floor],
                                       rtol=1e-12)

    def test_long_mirror_line_search_keeps_its_step(self):
        # at tolerance 0 the iterates reach exact zeros and the rounding
        # floor; the step must stay above the alpha * gamma the line-search
        # certificate assumes
        p = build_simplex_ls(ExperimentSpec(name="desk", m=50, n=100,
                                            seed=42))
        cfg = SolverConfig(eta0=100.0, alpha=0.5, max_iters=1000,
                           line_search_enabled=True, keep_iterates=True)
        trace = run_solver(p, negative_entropy(100),
                           make_prox_map("simplex", "entropy"),
                           np.full(100, 0.01), cfg)
        assert len(trace.objective) - 1 == 1000
        assert np.min(trace.xs[-1]) == 0.0
        # entries below the smallest normal float are flushed to zero, so
        # no iterate carries a subnormal operand into the next matvec
        xs = trace.xs
        assert not np.any((xs > 0.0) & (xs < np.finfo(float).tiny))
        gamma = 1.0 / p.f.lipschitz_grad
        assert min(trace.eta) >= 0.5 * gamma

    @pytest.mark.parametrize("H_kind", ["quadratic", "entropy"])
    def test_one_gradient_and_value_per_accepted_iterate(self, H_kind):
        # a smooth term without a stepper of its own goes through its
        # oracles: one gradient per step and one distance per candidate,
        # then f of the accepted steps in one stacked call (30 rows make one
        # block) and no stacked D_f, which nothing reads under line search;
        # the first value is F(x0)
        base = shifted_quadratic(rng(11).standard_normal(40), 0.01)
        f, calls = counted_oracles(base)
        p = CompositeProblem(f, simplex_indicator(40))
        H = squared_euclidean(40) if H_kind == "quadratic" \
            else negative_entropy(40)
        cfg = SolverConfig(eta0=1e6, alpha=0.5, max_iters=30,
                           line_search_enabled=True)
        trace = run_solver(p, H, make_prox_map("simplex", H_kind),
                           np.full(40, 1 / 40), cfg)
        backtracks = sum(trace.backtracks)
        assert backtracks >= 10
        assert calls == {"grad": [1] * 30, "value": [1, 2],
                         "distance": [1] * (30 + backtracks)}

    @pytest.mark.parametrize("H_kind", ["quadratic", "entropy"])
    def test_constant_step_reads_no_value_or_distance(self, H_kind):
        # a constant step with no early stop used to make one value and one
        # distance call per step; now each block of FLUSH_ENTRIES entries
        # (204 rows of 40) takes one stacked call of each, with the bits of
        # the calls on each row
        base = shifted_quadratic(rng(12).standard_normal(40), 0.01)
        f, calls = counted_oracles(base)
        p = CompositeProblem(f, simplex_indicator(40))
        H = squared_euclidean(40) if H_kind == "quadratic" \
            else negative_entropy(40)
        trace = run_solver(p, H, make_prox_map("simplex", H_kind),
                           np.full(40, 1 / 40),
                           SolverConfig(eta0=0.01, max_iters=500,
                                        keep_iterates=True))
        assert FLUSH_ENTRIES // 40 == 204  # 500 steps make 3 blocks
        assert calls == {"grad": [1] * 500, "value": [1, 2, 2, 2],
                         "distance": [2, 2, 2]}
        pairs = list(zip(trace.xs[1:], trace.xs))
        assert trace.objective[1:].tobytes() == np.array(
            [base.value(x) for x, _ in pairs]).tobytes()
        assert trace.d_hk[1:].tobytes() == np.array(
            [H.distance(x, y) / 0.01 - base.distance(x, y)
             for x, y in pairs]).tobytes()

    @pytest.mark.parametrize("H_kind", ["quadratic", "entropy"])
    def test_least_squares_step_makes_two_passes_over_A(self, H_kind):
        read, expected, backtracks, blocks = rows_read(20, 40, H_kind)
        assert blocks == 0 and backtracks >= 10
        assert read == expected

    def test_a_planned_pass_reads_each_row_once(self):
        # A d in blocks still reads m rows a candidate, at one BLAS thread,
        # where the 333x777 pass plan holds 2 blocks
        runs = at_blas_threads(
            "from test_solvers import rows_read\n"
            "print([rows_read(333, 777, H) for H in ('quadratic', "
            "'entropy')])")
        for read, expected, backtracks, blocks in runs:
            assert blocks >= 2 and backtracks >= 10
            assert read == expected

    @pytest.mark.parametrize("seed", [42, 3])
    def test_carried_objective_stays_exact(self, seed):
        # the least-squares residual is updated, never recomputed; over
        # 5,000 steps its objective stays at a fresh evaluation's
        p = build_simplex_ls(ExperimentSpec(name="desk", m=50, n=100,
                                            seed=seed))
        gamma = 1.0 / p.f.lipschitz_grad
        for H in (squared_euclidean(100), negative_entropy(100)):
            pm = make_prox_map("simplex", H.kind)
            for cfg in (SolverConfig(eta0=gamma, max_iters=5000,
                                     keep_iterates=True),
                        SolverConfig(eta0=100.0, max_iters=5000,
                                     line_search_enabled=True,
                                     keep_iterates=True)):
                trace = run_solver(p, H, pm, np.full(100, 0.01), cfg)
                fresh = evaluate_composite(p, trace.xs)
                np.testing.assert_allclose(trace.objective, fresh,
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
        rows = FLUSH_ENTRIES // 100
        trace = run_solver(p, H, make_prox_map("simplex", H_kind),
                           np.full(100, 0.01),
                           SolverConfig(eta0=eta, max_iters=3 * rows + 7,
                                        keep_iterates=True))
        assert calls == [rows, rows, rows, 7]
        for prev, x, d_hk in zip(trace.xs, trace.xs[1:], trace.d_hk[1:]):
            assert d_hk == (base.distance(x, prev) / eta
                            - p.f.distance(x, prev))

    @pytest.mark.parametrize("line_search", [False, True])
    @pytest.mark.parametrize("H_kind", ["quadratic", "entropy"])
    def test_blocked_f_and_d_f_keep_the_bits_of_row_calls(self, H_kind,
                                                          line_search):
        # least squares reduces f and D_f once per block of steps; each must
        # keep the bits of the row-by-row residual update it replaced
        p = build_simplex_ls(ExperimentSpec(name="desk", m=50, n=100,
                                            seed=42))
        H = squared_euclidean(100) if H_kind == "quadratic" \
            else negative_entropy(100)
        eta = 100.0 if line_search else 1.0 / p.f.lipschitz_grad
        steps = 2 * (FLUSH_ENTRIES // 50) + 11
        trace = run_solver(p, H, make_prox_map("simplex", H_kind),
                           np.full(100, 0.01),
                           SolverConfig(eta0=eta, max_iters=steps,
                                        line_search_enabled=line_search,
                                        keep_iterates=True))
        assert_row_updates(p, H, trace, steps)

    @pytest.mark.parametrize("worst_dot", [False, True])
    @pytest.mark.parametrize("m", [1, 2, 7, 50, 500])
    def test_early_stop_bound_skips_no_step_that_stops(self, m, worst_dot,
                                                      monkeypatch):
        # the stepper rules a stop out where r . r / 2 exceeds
        # (F* + tol)(1 + 4 m eps) + m tiny; with f a few ulps on either side
        # of F* + tol, it must never do so where fl(f - F*) <= tol holds.
        # worst_dot stands in for r . r the largest value that its rounding
        # allows, as another summation order or FMA could give: within
        # gamma_m of ||r||^2, each square off by up to one subnormal spacing
        if worst_dot:
            u = np.finfo(float).eps / 2
            gamma = m * u / (1 - m * u)

            def dot(a, b):
                two_f = float(np.add.reduce(np.square(a)))
                return (two_f + m * 2.0 ** -1074) * (1 + gamma) \
                    / (1 - gamma) + m * 2.0 ** -1074

            monkeypatch.setattr(np, "dot", dot)
        r = rng(m)
        for trial in range(300):
            # a third of the residuals have squares that underflow
            exponent = r.uniform(-162, -154) if trial % 3 == 0 \
                else r.uniform(-150, 150)
            res = r.standard_normal(m) * 10.0 ** exponent
            f = float(0.5 * np.add.reduce(np.square(res)))
            f_star = f * r.choice([0.0, r.uniform(0.0, 1.0), 1.0])
            base = f - f_star
            for ulps in range(-4, 5):
                tol = base + ulps * np.spacing(base)
                if tol < 0.0:
                    continue
                # A = 0, x0 = 0 and b = -res carry the residual res exactly
                stepper = ResidualStepper(np.zeros((m, 1)), -res,
                                          np.zeros(1))
                assert stepper.stop_test(f_star, tol)() \
                    or not f - f_star <= tol

    @pytest.mark.parametrize("H_kind", ["quadratic", "entropy"])
    def test_early_stop_is_the_exact_test_on_the_trace(self, H_kind):
        # a tolerance that the trace's f meets at step k with no slack at
        # all must stop the run at step k, neither earlier nor later
        base = build_simplex_ls(ExperimentSpec(name="desk", m=50, n=100,
                                               seed=3))
        H = squared_euclidean(100) if H_kind == "quadratic" \
            else negative_entropy(100)
        pm = make_prox_map("simplex", H_kind)
        cfg = SolverConfig(eta0=1.0 / base.f.lipschitz_grad, max_iters=400)
        full = run_solver(base, H, pm, np.full(100, 0.01), cfg)
        f_star = float(np.min(full.objective)) * (1.0 - 1e-9)
        p = dataclasses.replace(base, optimum_oracle=(None, f_star))
        for k in (7, 150, 399):
            tol = full.objective[k] - f_star
            first = int(np.argmax(full.objective - f_star <= tol))
            stopped = run_solver(p, H, pm, np.full(100, 0.01),
                                 dataclasses.replace(cfg, tolerance=tol))
            assert len(stopped.objective) - 1 == first <= k
            assert stopped.objective.tobytes() == \
                full.objective[:first + 1].tobytes()

    def test_backtrack_budget_is_max_backtracks(self):
        # a line search that can never accept tries the first candidate and
        # MAX_BACKTRACKS smaller steps, then fails at iteration 1
        base = shifted_quadratic(np.zeros(3), 1.0)
        f = dataclasses.replace(base, distance=lambda x, y: 1e300)
        pm = make_prox_map("l1", "quadratic")
        solves = []

        def counted(*args):
            solves.append(1)
            return pm.solve(*args)

        cfg = SolverConfig(eta0=1.0, max_iters=5, line_search_enabled=True)
        with pytest.raises(SolverFailure,
                           match="^backtracking budget exhausted at "
                                 "iteration 1$") as exc_info:
            run_solver(CompositeProblem(f, l1_norm()), squared_euclidean(3),
                       dataclasses.replace(pm, solve=counted),
                       np.ones(3), cfg)
        assert len(solves) == solvers.MAX_BACKTRACKS + 1 == 61
        assert len(exc_info.value.partial_trace.objective) == 1

    @pytest.mark.parametrize("H_kind", ["quadratic", "entropy"])
    def test_exhausted_line_search_keeps_every_accepted_record(self, H_kind):
        # D_f is reported huge from the 101st candidate on, so iteration
        # 101 backtracks to the end of its budget; the partial trace must
        # still hold the 100 accepted steps, more than one block of them.
        # A candidate is one vector; the stacked calls that complete a
        # block are not candidates, and get one entry per row
        n = 100
        base = shifted_quadratic(rng(18).standard_normal(n), 0.01)
        candidates = []

        def failing(x, y):
            candidates.append(np.ndim(x) == 1)
            d = base.distance(x, y)
            return d if sum(candidates) <= 100 else np.full_like(d, 1e300)

        H = squared_euclidean(n) if H_kind == "quadratic" \
            else negative_entropy(n)
        pm = make_prox_map("simplex", H_kind)
        runs = []
        for f in (base, dataclasses.replace(base, distance=failing)):
            p = CompositeProblem(f, simplex_indicator(n))
            cfg = SolverConfig(eta0=0.005, max_iters=200,
                               line_search_enabled=True, keep_iterates=True)
            try:
                runs.append(run_solver(p, H, pm, np.full(n, 1 / n), cfg))
            except SolverFailure as exc:
                assert "exhausted at iteration 101" in str(exc)
                runs.append(exc.partial_trace)
        full, partial = runs
        assert 100 > FLUSH_ENTRIES // n
        assert len(partial.objective) == 101
        for column in ("objective", "eta", "backtracks", "d_hk"):
            assert getattr(partial, column).tolist() \
                == getattr(full, column)[:101].tolist()
        np.testing.assert_array_equal(partial.xs, full.xs[:101])

    @pytest.mark.parametrize("line_search", [False, True])
    def test_blocks_complete_during_the_run(self, line_search):
        # a smooth term without a stepper of its own gets its first stacked
        # value and distance calls right after step rows, before the next
        # step's gradient, not after the loop; a constant step reads D_f of
        # the block before the flush, the line search no stacked D_f
        n = 100
        base = shifted_quadratic(rng(19).standard_normal(n), 0.01)
        log = []

        def logged(name):
            oracle = getattr(base, name)

            def wrapper(*args):
                log.append((name, np.ndim(args[0])))
                return oracle(*args)
            return wrapper

        f = dataclasses.replace(base, **{name: logged(name) for name in
                                         ("grad", "value", "distance")})
        cfg = SolverConfig(eta0=0.01, max_iters=200,
                           line_search_enabled=line_search)
        run_solver(CompositeProblem(f, simplex_indicator(n)),
                   squared_euclidean(n), make_prox_map("simplex", "quadratic"),
                   np.full(n, 1 / n), cfg)
        rows = FLUSH_ENTRIES // n
        stacked = [("value", 2)] if line_search \
            else [("distance", 2), ("value", 2)]
        first = log.index(stacked[0])
        assert log[:first].count(("grad", 1)) == rows == 81
        assert log[first:first + len(stacked) + 1] == stacked + [("grad", 1)]
        # 200 steps make blocks of 81, 81 and 38 rows
        assert log.count(("value", 2)) == 3
        assert log.count(("distance", 2)) == (0 if line_search else 3)

    @pytest.mark.parametrize("line_search", [False, True])
    @pytest.mark.parametrize("m, n", [(20, 300), (150, 150), (400, 30)])
    def test_least_squares_block_holds_flush_entries(self, m, n,
                                                     line_search):
        # a block of least-squares steps holds at most FLUSH_ENTRIES entries
        # of A d and of the iterates, and its f and D_f keep the bits of the
        # row-by-row residual update
        p = simplex_ls_problem(m, n, seed=m + n)
        x0 = np.full(n, 1 / n)
        rows = p.f.stepper(x0).rows
        assert rows == max(1, FLUSH_ENTRIES // max(m, n))
        steps = 2 * rows + 5
        H = squared_euclidean(n)
        eta = 100.0 if line_search else 1.0 / p.f.lipschitz_grad
        trace = run_solver(p, H, make_prox_map("simplex", "quadratic"), x0,
                           SolverConfig(eta0=eta, max_iters=steps,
                                        line_search_enabled=line_search,
                                        keep_iterates=True))
        assert_row_updates(p, H, trace, steps)

    @pytest.mark.parametrize("oracle", ["value", "distance"])
    def test_stacked_oracle_gives_one_entry_per_row(self, oracle):
        # a term that sums a stack into one float used to fill its whole
        # block's column with that float
        base = shifted_quadratic(rng(20).standard_normal(5), 1.0)
        lumped = getattr(base, oracle)
        f = dataclasses.replace(
            base, **{oracle: lambda *args: float(np.sum(lumped(*args)))})
        with pytest.raises(ContractViolation,
                           match=f"^the smooth term's {oracle} oracle gave "
                                 r"shape \(\) for 3 stacked rows$"):
            run_solver(CompositeProblem(f, l1_norm()), squared_euclidean(5),
                       make_prox_map("l1", "quadratic"), np.ones(5),
                       SolverConfig(eta0=0.5, max_iters=3))

    def test_overflowed_d_f_fails_the_acceptance_test(self):
        # -inf >= -inf held, so a D_f that overflowed to inf passed the line
        # search's test and the constant-step verdict
        assert not solvers.accepts(1.0, np.inf)
        assert not solvers.accepts(np.inf, np.inf)
        assert solvers.accepts(np.inf, 1.0)
        assert solvers.accepts(1.0, 1.0)
        with np.errstate(invalid="ignore"):
            assert solvers.accepts(np.array([2.0, 1e308, 1.0]),
                                   np.array([1.0, np.inf, np.nan])).tolist() \
                == [True, False, False]
        # on finite pairs the verdict is the comparison it replaces, at near
        # ties of the slack as well
        s = rng(21)
        d_H = np.abs(s.standard_normal(10_000)) \
            * 10.0 ** s.integers(-300, 300, 10_000)
        d_f = d_H * (1.0 + s.integers(-3000, 3000, 10_000) * 1e-16)
        assert np.array_equal(solvers.accepts(d_H, d_f), d_H - d_f
                              >= -solvers.ACCEPT_TOL * (d_H + d_f))
        # run-lasso --gamma 1e-306 --eta-ratio 2: D_f(x_1, x_0) overflows
        r = np.random.Generator(np.random.Philox(7))
        b, x0 = r.standard_normal(50), r.standard_normal(50)
        p = build_lasso_onestep(1e-306, b)
        with np.errstate(over="ignore", invalid="ignore"):
            trace = run_solver(p, squared_euclidean(50),
                               make_prox_map("l1", "quadratic"), x0,
                               SolverConfig(eta0=2e-306, max_iters=1))
        assert trace.d_hk[1] == -np.inf
        assert not trace.hypothesis_held

    def test_overflowing_mirror_shift_is_rejected_unformed(self):
        # at eta = 0.95 no eta |v_i| overflows (|v_i| = 9.6e307), but the
        # mirror step's shift spans eta max v - eta min v = 1.83e308: the
        # map printed "overflow encountered in subtract" on that candidate.
        # Steps from eta = 1/2 down cannot overflow the span, so the first
        # candidate formed is eta = 0.475's
        a = 7.4e153
        p = CompositeProblem(least_squares(np.array([[a, -a]]),
                                           np.array([1.3e154])),
                             simplex_indicator(2))
        H = negative_entropy(2)
        pm = make_prox_map(p.g.kind, H.kind)
        etas = []

        def solve(v, y, eta, out=None):
            etas.append(eta)
            return pm.solve(v, y, eta, out)

        with pytest.raises(SolverFailure, match="budget exhausted"):
            run_solver(p, H, dataclasses.replace(pm, solve=solve),
                       np.full(2, 0.5), SolverConfig(
                           eta0=0.95, line_search_enabled=True, max_iters=1))
        assert etas[0] == 0.475 and max(etas) == 0.475

    @pytest.mark.parametrize("v", [
        [0.0, -0.0, 1.0], [-0.0, 0.0], [-0.0, 1.7e308], [1e308, -1e308],
        [np.inf, 1.0], [-np.inf, 1.0], [np.inf, -np.inf], [np.nan, 1.0],
        [1.0, np.nan, -np.nan]], ids=[
            "zero-tie-beside-one", "zero-tie", "huge", "huge-span", "inf",
            "minus-inf", "both-infs", "nan", "nans"])
    @pytest.mark.parametrize("H_kind, eta0", [
        ("quadratic", 3.0), ("quadratic", 1e300), ("entropy", 0.75),
        ("entropy", 3.0), ("entropy", 1e300)])
    def test_overflow_gate_forms_what_the_reductions_allow(self, v, H_kind,
                                                           eta0):
        # the gate reads max v and min v (mirror) or max |v_i| by argmax and
        # argmin, once per step; over a line search whose every candidate
        # is rejected (D_f is inf), the map is called at just the steps the
        # ufunc reductions' gate lets through.  Every eta0 starts above its
        # map's bound, so no non-finite v reaches a map
        v = np.array(v)
        n = v.size
        f = SmoothFunction(value=NONSMOOTH_VALUES["zero"], grad=lambda x: v,
                           dimension=n, lipschitz_grad=None,
                           distance=lambda x, y: np.inf)
        p = CompositeProblem(f, simplex_indicator(n))
        H = negative_entropy(n) if H_kind == "entropy" \
            else squared_euclidean(n)
        pm = make_prox_map(p.g.kind, H.kind)
        formed = []

        def solve(v, y, eta, out=None):
            formed.append(eta)
            return pm.solve(v, y, eta, out)

        with pytest.raises(SolverFailure, match="budget exhausted"):
            run_solver(p, H, dataclasses.replace(pm, solve=solve),
                       np.full(n, 1.0 / n), SolverConfig(
                           eta0=eta0, alpha=0.5, line_search_enabled=True,
                           max_iters=1))
        if H_kind == "entropy":
            up = float(np.maximum.reduce(v))
            down = -float(np.minimum.reduce(v))
        else:
            up, down = float(np.maximum.reduce(np.abs(v))), 0.0
        steps = eta0 * 0.5 ** np.arange(solvers.MAX_BACKTRACKS + 1)
        want = [eta for eta in steps.tolist()
                if eta * up + eta * down < np.inf]
        assert np.array(formed).tobytes() == np.array(want).tobytes()

    def test_overflowing_start_is_refused_without_a_warning(self):
        # f(x0) = (1.8e154)^2 / 2 overflows: the value oracle printed
        # "overflow encountered in square" before this refusal (an error
        # here, where warnings are errors); a caller's over="raise" holds
        p = CompositeProblem(least_squares(np.array([[6e153, -6e153]]),
                                           np.array([1.8e154])),
                             simplex_indicator(2))
        H = negative_entropy(2)
        args = (p, H, make_prox_map(p.g.kind, H.kind), np.full(2, 0.5),
                SolverConfig(eta0=0.5, max_iters=1))
        with pytest.raises(ContractViolation,
                           match="^x0 must have finite objective$"):
            run_solver(*args)
        with np.errstate(over="raise"), pytest.raises(FloatingPointError):
            run_solver(*args)

    def test_overflowing_candidate_distance_warns_of_nothing(self):
        # D_f = (1.8e154)^2 / 2 of the first candidate overflows: the line
        # search printed "overflow encountered in square" before rejecting
        # it (accepts fails an inf D_f), and where warnings are errors the
        # run raised that warning instead of its SolverFailure
        a = 1.8e154
        p = CompositeProblem(least_squares(np.array([[a, -a]]), np.zeros(1)),
                             simplex_indicator(2))
        H = negative_entropy(2)
        args = (p, H, make_prox_map(p.g.kind, H.kind), np.array([0.75, 0.25]),
                SolverConfig(eta0=0.75, line_search_enabled=True,
                             max_iters=1))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SolverFailure, match="^backtracking budget "
                               "exhausted at iteration 1$") as exc_info:
                run_solver(*args)
        partial = exc_info.value.partial_trace
        assert partial.objective.tolist() == [0.5 * (a / 2) ** 2]
        assert partial.stop_reason == str(exc_info.value)
        # a caller's own setting holds inside the loop: over="raise" (as
        # run-lasso sets it) raises, and over="call" calls its handler
        with np.errstate(over="raise"), pytest.raises(FloatingPointError,
                                                      match="square"):
            run_solver(*args)
        calls = []
        with np.errstate(over="call", call=lambda *e: calls.append(e)), \
                pytest.raises(SolverFailure):
            run_solver(*args)
        assert calls
        # run-lasso --gamma 1e-306 --eta-ratio 2 under run-lasso's setting:
        # the constant step's D_f overflows inside the run
        r = np.random.Generator(np.random.Philox(7))
        b, x0 = r.standard_normal(50), r.standard_normal(50)
        lasso = build_lasso_onestep(1e-306, b)
        with np.errstate(over="raise", invalid="raise"), \
                pytest.raises(FloatingPointError):
            run_solver(lasso, squared_euclidean(50),
                       make_prox_map("l1", "quadratic"), x0,
                       SolverConfig(eta0=2e-306, max_iters=1))

    def test_tolerance_needs_an_optimum_oracle(self):
        # with no optimum to stop on, the tolerance was ignored without a
        # word and all 50 steps ran
        p = CompositeProblem(shifted_quadratic(np.zeros(3), 1.0), l1_norm())
        with pytest.raises(ConfigurationError, match="optimum oracle"):
            run_solver(p, squared_euclidean(3),
                       make_prox_map("l1", "quadratic"), np.ones(3),
                       SolverConfig(eta0=0.5, max_iters=50, tolerance=1e-3))

    @pytest.mark.parametrize("eta0", [np.nan, np.inf, -np.inf, 0.0])
    def test_non_finite_or_nonpositive_step_rejected(self, eta0):
        with pytest.raises(ContractViolation):
            SolverConfig(eta0=eta0)

    @pytest.mark.parametrize("setting", [
        {"alpha": 0.0}, {"alpha": 1.0}, {"alpha": -0.5}, {"alpha": np.nan},
        {"max_iters": 0}, {"max_iters": -3}, {"tolerance": -1e-12},
    ])
    def test_out_of_range_setting_rejected(self, setting):
        with pytest.raises(ContractViolation):
            SolverConfig(eta0=1.0, **setting)

    def test_smooth_term_without_distance_rejected(self):
        p = simplex_ls_problem(4, 6, seed=15)
        p = dataclasses.replace(p, f=dataclasses.replace(p.f, distance=None))
        with pytest.raises(ContractViolation,
                           match="no closed-form distance"):
            run_solver(p, squared_euclidean(6),
                       make_prox_map("simplex", "quadratic"),
                       np.full(6, 1 / 6), SolverConfig(eta0=0.1, max_iters=5))

    def test_infeasible_start_rejected(self):
        p = simplex_ls_problem(4, 6, seed=15)
        pm = make_prox_map("simplex", "quadratic")
        cfg = SolverConfig(eta0=0.1, max_iters=5)
        with pytest.raises(ContractViolation):
            run_solver(p, squared_euclidean(6), pm, np.ones(6), cfg)


class TestPassPlan:
    """Least squares runs each candidate's A d over A's row blocks, the last
    first, where that keeps the bits of one call (``functions.pass_plan``).
    """

    def test_planned_passes_keep_the_bits_at_one_blas_thread(self):
        # the default thread count threads the one call at 500x1000 with
        # other bits, so the plan is off there; at one thread it is on
        threads, got = at_blas_threads(
            "from test_solvers import planned_proposals\n"
            "from bregprox.functions import blas_threads\n"
            "print((blas_threads(), [planned_proposals(m, n) for m, n in "
            "((500, 1000), (1000, 500), (333, 777))]))")
        assert threads == 1
        assert [same for _, same in got] == [True] * 3
        assert min(blocks for blocks, _ in got) >= 2

    def test_two_blas_threads_keep_one_call_where_gemv_threads(self):
        # from GEMV_THREADED_ENTRIES on, OpenBLAS runs the one call on both
        # threads, faster than the blocks on one: 1000x500 and 1000x1000,
        # where the probe finds the blocks' bits, keep one call, and
        # 333x777, below the threshold, keeps its blocks
        threads, plans = at_blas_threads(
            "import numpy as np\n"
            "from bregprox.functions import blas_threads, pass_plan\n"
            "r = np.random.Generator(np.random.Philox(3))\n"
            "print((blas_threads(), [len(pass_plan(r.standard_normal(s)) "
            "or ()) for s in ((1000, 500), (1000, 1000), (333, 777))]))",
            threads=2)
        assert threads == 2
        assert plans == [0, 0, 2]

    def test_an_unknown_thread_count_keeps_one_call(self, monkeypatch):
        # with no count to read, a size that OpenBLAS may thread keeps one
        # call; below it the plan does not depend on the count
        monkeypatch.setattr(functions, "blas_threads", lambda: None)
        r = rng(5)
        assert pass_plan(r.standard_normal((1000, 500))) is None
        assert len(pass_plan(r.standard_normal((333, 777)))) == 2

    def test_no_bundled_library_gives_an_unknown_thread_count(
            self, tmp_path, monkeypatch):
        # numpy.libs missing, then holding a file of the library's name
        # that no loader can open: both read as no count
        package = tmp_path / "numpy"
        package.mkdir()
        monkeypatch.setattr(np, "__file__", str(package / "__init__.py"))
        assert functions.blas_threads.__wrapped__() is None
        (tmp_path / "numpy.libs").mkdir()
        (tmp_path / "numpy.libs" / "libscipy_openblas64_x.so").write_text(
            "not a shared library\n")
        assert functions.blas_threads.__wrapped__() is None

    def test_the_thread_count_is_read_from_the_library_once(self):
        # a later change of the environment variable changes nothing
        assert at_blas_threads(
            "import os\n"
            "from bregprox.functions import blas_threads\n"
            "first = blas_threads()\n"
            "os.environ['OPENBLAS_NUM_THREADS'] = '2'\n"
            "print((first, blas_threads(), "
            "blas_threads.cache_info().misses))") == (1, 1, 1)

    @pytest.mark.parametrize("shape, order", [
        ((50, 100), "C"),  # the desk problem: one block
        ((500, 1000), "F"),
        ((1000, 2000), "strided"),  # every other column: 1000x1000
        ((1, 400_000), "C"),
        ((400_000, 1), "C"),
        ((2000, 1000), "C"),  # past the sizes that gain
    ], ids=["desk", "F-order", "strided", "one-row", "one-column", "large"])
    def test_one_call_stays_and_nothing_is_probed(self, shape, order):
        A = np.zeros(shape, order="F" if order == "F" else "C")
        if order == "strided":
            A = A[:, ::2]
        probes = []

        class CountedMatrix(np.ndarray):
            def dot(self, other, out=None):
                probes.append(self.shape)
                return np.asarray(self).dot(other, out=out)

        assert pass_plan(A.view(CountedMatrix)) is None
        assert probes == []

    def test_a_block_off_by_one_ulp_keeps_one_call(self):
        # 333x777 is below the 460,800 entries from which OpenBLAS threads
        # a gemv, so its one call and its blocks share bits at any count
        A = rng(7).standard_normal((333, 777))
        assert len(pass_plan(A)) == 2

        class OffByOneUlp(np.ndarray):
            def dot(self, other, out=None):
                got = np.asarray(self).dot(other, out=out)
                if len(self) < len(A):
                    np.nextafter(got, np.inf, out=got)
                return got

        assert pass_plan(A.view(OffByOneUlp)) is None


class TestTheorem2Equivalence:
    def test_quadratic_generator_lasso(self):
        r = rng(16)
        A = r.standard_normal((10, 20))
        L = float(np.linalg.eigvalsh(A.T @ A)[-1])
        p = CompositeProblem(
            f=least_squares(A, r.standard_normal(10), lipschitz=L),
            g=l1_norm(),
        )
        pm = make_prox_map("l1", "quadratic")
        worst = verify_theorem2_equivalence(
            p, squared_euclidean(20), pm, r.standard_normal(20),
            eta=1.0 / L, iters=10)
        assert worst <= 1e-9

    def test_entropy_generator_simplex_ls(self):
        p = simplex_ls_problem(8, 10, seed=17)
        pm = make_prox_map("simplex", "entropy")
        worst = verify_theorem2_equivalence(
            p, negative_entropy(10), pm, np.full(10, 0.1),
            eta=1.0 / p.f.lipschitz_grad, iters=10)
        assert worst <= 1e-9

    def test_zero_smooth_term(self):
        p = CompositeProblem(zero_function(4), l1_norm())
        pm = make_prox_map("l1", "quadratic")
        worst = verify_theorem2_equivalence(
            p, squared_euclidean(4), pm, np.array([2.0, -1.0, 0.5, 0.0]),
            eta=1.0, iters=5)
        assert worst <= 1e-9

    def test_a_perturbed_step_fails(self):
        # the third mirror step 1% off, towards the center of the simplex
        p = simplex_ls_problem(8, 10, seed=17)
        pm = make_prox_map("simplex", "entropy")
        calls = [0]

        def off_once(v, y, eta, out=None):
            calls[0] += 1
            x = pm.solve(v, y, eta)
            return 0.99 * x + 1e-3 if calls[0] == 3 else x

        worst = verify_theorem2_equivalence(
            p, negative_entropy(10), dataclasses.replace(pm, solve=off_once),
            np.full(10, 0.1), eta=1.0 / p.f.lipschitz_grad, iters=5)
        assert calls[0] == 5 and worst > 1e-3

    def test_an_anchor_off_the_entropy_interior_raises(self):
        # a step that zeroes an entry leaves no entropy gradient there
        p = simplex_ls_problem(8, 10, seed=17)
        pm = make_prox_map("simplex", "entropy")

        def zeroed(v, y, eta, out=None):
            x = pm.solve(v, y, eta)
            x[0] = 0.0
            return x / np.sum(x)

        with pytest.raises(DomainError):
            verify_theorem2_equivalence(
                p, negative_entropy(10), dataclasses.replace(pm, solve=zeroed),
                np.full(10, 0.1), eta=1.0 / p.f.lipschitz_grad, iters=2)


class TestColumnarTrace:
    @pytest.fixture(scope="class")
    def small(self):
        spec = ExperimentSpec(name="small", m=15, n=30, seed=42,
                              max_iters=300)
        return run_experiment(spec)

    def test_perfbench_reads_rows_that_match_the_columns(self, small):
        # the trace surface perfbench/workloads.py and perfbench/tracer.py
        # read; a trace change that breaks it must fail here first.
        # run_experiment's traces (desk-compare) keep no iterates but give a
        # row per step; paper-solve's default configuration keeps them
        configs = variant_configs(small.spec,
                                  1 / small.problem.f.lipschitz_grad,
                                  small.tolerance)
        for variant, unkept in small.traces.items():
            H, cfg = configs[variant]
            kept = run_solver(small.problem, H,
                              make_prox_map("simplex", H.kind), unkept.x0,
                              dataclasses.replace(cfg, keep_iterates=True))
            assert unkept.xs is None
            assert [r.x for r in unkept.records] \
                == [None] * len(unkept.objective)
            xs = np.array([r.x for r in kept.records])
            np.testing.assert_array_equal(xs, kept.xs)
            np.testing.assert_array_equal(kept.x, kept.xs[-1])
            for trace in (kept, unkept):
                records = trace.records
                assert len(records) == len(trace.objective)
                assert [r.k for r in records] == list(range(len(records)))
                assert [r.backtracks for r in trace.records] \
                    == trace.backtracks.tolist()
                assert all(type(r.backtracks) is int for r in records)
                assert [r.eta_used for r in records] == trace.eta.tolist()
                assert [r.d_hk_value for r in records] == trace.d_hk.tolist()
                assert trace.objectives() is trace.objective
                np.testing.assert_array_equal(
                    trace.objectives(), [r.objective for r in records])
                final = trace.final()
                assert final.k == len(records) - 1
                assert final.x is trace.x
                assert type(final.objective) is float
                assert final.objective == trace.objective[-1]
                for column in (trace.x0, trace.x, trace.objective, trace.eta,
                               trace.backtracks, trace.d_hk,
                               trace.elapsed_ms):
                    assert not column.flags.writeable
            assert not kept.xs.flags.writeable
        assert sum(trace.backtracks.sum()
                   for trace in small.traces.values()) > 0

    def test_nonsmooth_values_are_nonnegative(self):
        # the steppers' may_stop filters the early stop on f alone, which
        # is sound only because no nonsmooth kind is negative
        r = rng(21)
        for n in (1, 3, 40):
            rows = np.concatenate([
                r.standard_normal((200, n)) * 10.0 ** r.uniform(-8, 8, (200, 1)),
                r.dirichlet(np.ones(n), size=200),
                np.zeros((1, n)),
            ])
            for kind, value in NONSMOOTH_VALUES.items():
                values = np.asarray(value(rows))
                assert values.shape == (401,)
                assert np.all(values >= 0.0), kind
                assert all(value(x) >= 0.0 for x in rows[::50])

    def test_off_simplex_step_that_meets_f_tolerance_does_not_stop(
            self, small):
        # at the step where pga-constant first meets the tolerance, the prox
        # map returns a point just off the simplex; f there still meets the
        # tolerance, but F = f + g is +inf, so the run must record inf and
        # go on
        p, tol = small.problem, small.tolerance
        f_star = p.optimum_oracle[1]
        k_tol = small.traces["pga-constant"].iters_to_tol
        calls = [0]

        def off_once(v, y, eta, out=None):
            x = project_simplex(v, y, eta, out)
            calls[0] += 1
            if calls[0] == k_tol:
                x[np.argmax(x)] += 1e-8
            return x

        pm = dataclasses.replace(make_prox_map("simplex", "quadratic"),
                                 solve=off_once)
        cfg = SolverConfig(eta0=1 / p.f.lipschitz_grad, max_iters=300,
                           tolerance=tol, keep_iterates=True)
        trace = run_solver(p, squared_euclidean(30), pm,
                           small.traces["pga-constant"].x0, cfg)
        assert p.f.value(trace.xs[k_tol]) - f_star <= tol
        assert trace.objective[k_tol] == np.inf
        assert len(trace.objective) - 1 > k_tol
        assert np.all(np.isfinite(np.delete(trace.objective, k_tol)))
        assert trace.objective[-1] - f_star <= tol

    @pytest.mark.parametrize("tolerance, steps", [(1e-12, 5000), (1.0, 1)])
    def test_g_is_evaluated_once_per_block(self, monkeypatch, tolerance,
                                           steps):
        # with F* = 0 under objectives of about 0.2, tolerance 1e-12 is never
        # met: the stepper rules out the stop at all 5,000 steps, and g is
        # evaluated at x0 and once per block alone; tolerance 1.0 is met by
        # f at the first step, so its block of one step completes there, F
        # meets the tolerance too, and the run stops
        base = build_simplex_ls(ExperimentSpec(name="desk", m=50, n=100,
                                               seed=42))
        calls = []
        simplex_value = NONSMOOTH_VALUES["simplex"]

        def counting(x):
            calls.append(np.shape(x))
            return simplex_value(x)

        monkeypatch.setitem(NONSMOOTH_VALUES, "simplex", counting)
        x0 = np.full(100, 0.01)
        p = CompositeProblem(base.f, base.g, optimum_oracle=(x0, 0.0))
        cfg = SolverConfig(eta0=1.0 / base.f.lipschitz_grad, max_iters=5000,
                           tolerance=tolerance)
        trace = run_solver(p, negative_entropy(100),
                           make_prox_map("simplex", "entropy"), x0, cfg)
        block_rows = FLUSH_ENTRIES // 100
        blocks = [(min(block_rows, steps - lo), 100)
                  for lo in range(0, steps, block_rows)]
        assert len(trace.objective) - 1 == steps
        assert calls == [(100,)] + blocks
        assert len(blocks) == -(-steps // block_rows)


class TestStopRecord:
    @pytest.mark.parametrize("H_kind", ["quadratic", "entropy"])
    def test_budget_and_a_last_step_that_meets_the_tolerance(self, H_kind):
        # F decreases at every one of the 100 constant steps, so a tolerance
        # that F(x_100) meets with no slack is met there first
        base = build_simplex_ls(ExperimentSpec(name="desk", m=50, n=100,
                                               seed=3))
        H = squared_euclidean(100) if H_kind == "quadratic" \
            else negative_entropy(100)
        pm, x0 = make_prox_map("simplex", H_kind), np.full(100, 0.01)
        cfg = SolverConfig(eta0=1.0 / base.f.lipschitz_grad, max_iters=100)
        full = run_solver(base, H, pm, x0, cfg)
        assert np.all(np.diff(full.objective) < 0)
        assert full.stop_reason == "max_iters"
        assert full.iters_to_tol is None
        f_star = float(full.objective[-1]) * (1.0 - 1e-9)
        p = dataclasses.replace(base, optimum_oracle=(None, f_star))
        tol = full.objective[-1] - f_star
        for tolerance, reason, k in [(tol, "tolerance", 100),
                                     (np.nextafter(tol, 0.0), "max_iters",
                                      None)]:
            trace = run_solver(p, H, pm, x0,
                               dataclasses.replace(cfg, tolerance=tolerance))
            assert trace.stop_reason == reason
            assert trace.iters_to_tol == k
            assert trace.objective.tobytes() == full.objective.tobytes()

    @pytest.mark.parametrize("alpha, message", [
        (0.99, "backtracking budget exhausted at iteration 1"),
        (1e-310, "line-search step 1e-308 fell below the smallest normal "
                 "float at iteration 1")])
    def test_partial_trace_records_its_failure(self, alpha, message):
        # eta0 = 100 fails the first candidate; alpha = 0.99 shrinks it only
        # to about 55 within the budget, alpha = 1e-310 to a subnormal step
        p = simplex_ls_problem(6, 10, seed=13)
        cfg = SolverConfig(eta0=100.0, alpha=alpha, max_iters=10,
                           line_search_enabled=True)
        with pytest.raises(SolverFailure, match=f"^{message}$") as exc_info:
            run_solver(p, negative_entropy(10),
                       make_prox_map("simplex", "entropy"),
                       np.full(10, 0.1), cfg)
        partial = exc_info.value.partial_trace
        assert partial.stop_reason == message
        assert partial.iters_to_tol is None

    def test_subnormal_eta0_is_refused_by_the_line_search(self):
        p = simplex_ls_problem(6, 10, seed=13)
        cfg = SolverConfig(eta0=1e-310, max_iters=10,
                           line_search_enabled=True)
        with pytest.raises(ContractViolation,
                           match="^eta0 = 1e-310 is below the smallest "
                                 "normal float"):
            run_solver(p, negative_entropy(10),
                       make_prox_map("simplex", "entropy"),
                       np.full(10, 0.1), cfg)

    @pytest.mark.parametrize("line_search", [False, True])
    @pytest.mark.parametrize("smooth", ["least_squares", "shifted_quadratic"])
    def test_a_stop_ruled_in_but_not_met_changes_no_row(
            self, monkeypatch, smooth, line_search):
        # the tolerance sits a few ulps below the gap of the best step, so
        # no step meets it.  Least squares: r . r cannot rule the stop out
        # at the steps within its slack of the best.  l1: f alone falls
        # below F*, so the stepper never rules it out.  Each such step
        # completes its block early, and the run goes on to the budget with
        # the rows of the run without an early stop
        n, steps = 100, 400
        x0 = np.full(n, 1.0 / n)
        if smooth == "least_squares":
            base = build_simplex_ls(ExperimentSpec(name="desk", m=50, n=n,
                                                   seed=42))
            H, kind = squared_euclidean(n), "simplex"
        else:
            f = shifted_quadratic(rng(34).standard_normal(n), 0.5)
            base = CompositeProblem(f, l1_norm())
            H, kind = squared_euclidean(n), "l1"
        completions = []
        value = NONSMOOTH_VALUES[kind]

        def counting(x):
            completions.append(np.ndim(x) == 2)
            return value(x)

        monkeypatch.setitem(NONSMOOTH_VALUES, kind, counting)
        pm = make_prox_map(kind, "quadratic")
        cfg = SolverConfig(
            eta0=100.0 if line_search else 1.0 / base.f.lipschitz_grad,
            max_iters=steps, line_search_enabled=line_search,
            keep_iterates=True)
        full = run_solver(base, H, pm, x0, cfg)
        blocks = sum(completions)
        f_star = float(np.min(full.objective)) * (1.0 - 1e-12)
        gap = float(np.min(full.objective)) - f_star
        p = dataclasses.replace(base, optimum_oracle=(None, f_star))
        completions.clear()
        trace = run_solver(p, H, pm, x0, dataclasses.replace(
            cfg, tolerance=gap - 3 * np.spacing(gap)))
        assert sum(completions) > blocks + 1
        assert trace.stop_reason == full.stop_reason == "max_iters"
        for name in ("objective", "eta", "backtracks", "d_hk", "x", "xs"):
            assert getattr(trace, name).tobytes() \
                == getattr(full, name).tobytes(), name
        assert trace.hypothesis_held is full.hypothesis_held


def kept_and_unkept(p, H, x0, cfg):
    """The traces of one run with and without its iterates."""
    return [run_solver(p, H, make_prox_map(p.g.kind, H.kind), x0,
                       dataclasses.replace(cfg, keep_iterates=keep))
            for keep in (True, False)]


def assert_same_run(kept, unkept):
    """Every column but the wall times, the verdict and both ends agree bit
    for bit; only the kept trace holds the iterates."""
    assert unkept.xs is None
    assert len(kept.xs) == len(kept.objective)
    for name in ("objective", "eta", "backtracks", "d_hk"):
        a, b = getattr(kept, name), getattr(unkept, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
    assert len(kept.elapsed_ms) == len(unkept.elapsed_ms)
    assert kept.hypothesis_held is unkept.hypothesis_held
    assert kept.x0.tobytes() == unkept.x0.tobytes() == kept.xs[0].tobytes()
    assert kept.x.tobytes() == unkept.x.tobytes() == kept.xs[-1].tobytes()


class TestIterateMemory:
    N = 100
    ROWS = FLUSH_ENTRIES // N  # 81, for both smooth terms below

    def problem(self, smooth, line_search, wide=False):
        """A simplex problem with its generator and a configuration of 1
        step; F* = 0 is a lower bound for the early stop.  A wide one has
        5,000 rows of A or entries of x, and blocks of one step."""
        if smooth == "least_squares":
            m, n = (5000, 10) if wide else (20, self.N)
            base = simplex_ls_problem(m, n, seed=31)
            f, H = base.f, squared_euclidean(n)
        else:
            # a euclidean step of 1/L would solve this f in one step
            n = 5000 if wide else self.N
            f = shifted_quadratic(rng(32).standard_normal(n), 0.01)
            H = negative_entropy(n)
        x0 = np.full(n, 1 / n)
        p = CompositeProblem(f, simplex_indicator(n),
                             optimum_oracle=(x0, 0.0))
        assert f.stepper(x0).rows == (1 if wide else self.ROWS)
        cfg = SolverConfig(eta0=100.0 if line_search else 1 / f.lipschitz_grad,
                           max_iters=1, line_search_enabled=line_search)
        return p, H, x0, cfg

    @pytest.mark.parametrize("steps", [50, ROWS, 3 * ROWS])
    @pytest.mark.parametrize("early_stop", [False, True])
    @pytest.mark.parametrize("line_search", [False, True])
    @pytest.mark.parametrize("smooth", ["least_squares", "shifted_quadratic"])
    def test_kept_and_unkept_runs_agree(self, smooth, line_search,
                                        early_stop, steps):
        p, H, x0, cfg = self.problem(smooth, line_search)
        cfg = dataclasses.replace(cfg, max_iters=steps)
        if early_stop:
            # stop about two thirds in, off a block boundary
            full = run_solver(p, H, make_prox_map("simplex", H.kind), x0,
                              cfg)
            cfg = dataclasses.replace(
                cfg, tolerance=full.objective[2 * steps // 3 + 1])
        kept, unkept = kept_and_unkept(p, H, x0, cfg)
        assert_same_run(kept, unkept)
        stopped = len(kept.objective) - 1
        assert stopped < steps if early_stop else stopped == steps

    @pytest.mark.parametrize("wide", [False, True])
    @pytest.mark.parametrize("line_search", [False, True])
    @pytest.mark.parametrize("smooth", ["least_squares", "shifted_quadratic"])
    def test_kept_rows_are_the_ends_of_shorter_runs(self, smooth,
                                                    line_search, wide):
        # row k of a kept run is, bit for bit, x of the same run cut at k
        # steps: at both edges of the first two blocks, and where each
        # block is one step
        p, H, x0, cfg = self.problem(smooth, line_search, wide)
        rows = p.f.stepper(x0).rows
        cuts = sorted({1, rows - 1, rows, rows + 1, 2 * rows + 1} - {0})
        pm = make_prox_map("simplex", H.kind)
        kept = run_solver(p, H, pm, x0, dataclasses.replace(
            cfg, max_iters=cuts[-1] + rows, keep_iterates=True))
        for k in cuts:
            cut = run_solver(p, H, pm, x0, dataclasses.replace(
                cfg, max_iters=k, keep_iterates=False))
            assert kept.xs[k].tobytes() == cut.x.tobytes(), k

    @pytest.mark.parametrize("smooth", ["least_squares", "shifted_quadratic"])
    def test_partial_traces_agree(self, smooth):
        p, H, x0, cfg = self.problem(smooth, line_search=True)
        if smooth == "least_squares":
            # eta0 = 1e6 shrinks only to about 5e5 at alpha = 0.99 within
            # the budget, so the first step fails
            cfg = dataclasses.replace(cfg, eta0=1e6, alpha=0.99,
                                      max_iters=10)
            accepted = 0
        else:
            # D_f is reported huge from the 101st candidate on: 100 steps,
            # more than a block, are accepted before the run fails
            cfg = dataclasses.replace(cfg, eta0=0.005, max_iters=200)
            accepted = 100

            def fail_from_the_101st(f):
                calls = []

                def distance(x, y):
                    calls.append(1)
                    d = f.distance(x, y)
                    return d if len(calls) <= 100 else np.full_like(d, 1e300)
                return dataclasses.replace(f, distance=distance)
        traces = []
        for keep in (True, False):
            q = p if smooth == "least_squares" else dataclasses.replace(
                p, f=fail_from_the_101st(p.f))
            with pytest.raises(SolverFailure) as exc_info:
                run_solver(q, H, make_prox_map("simplex", H.kind), x0,
                           dataclasses.replace(cfg, keep_iterates=keep))
            traces.append(exc_info.value.partial_trace)
        assert_same_run(*traces)
        assert len(traces[0].objective) == accepted + 1

    def test_unkept_run_holds_a_block_of_iterates(self):
        # 2,000 steps at n = 1,000 keep an iterate matrix of 16 MB; without
        # it the run allocates under a tenth of that at its peak.  With it
        # the run holds the matrix on top of that and at most three blocks
        # of 9 rows more: a store that held the iterates twice would not fit
        n, steps = 1000, 2000
        p = CompositeProblem(
            shifted_quadratic(rng(33).standard_normal(n), 0.01),
            simplex_indicator(n))
        H, x0 = squared_euclidean(n), np.full(n, 1 / n)
        peaks = {}
        tracemalloc.start()
        try:
            for keep in (True, False):
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
                trace = run_solver(p, H, make_prox_map("simplex", "quadratic"),
                                   x0, SolverConfig(eta0=0.01, max_iters=steps,
                                                    keep_iterates=keep))
                peaks[keep] = tracemalloc.get_traced_memory()[1] - base
                assert len(trace.objective) == steps + 1
                del trace
        finally:
            tracemalloc.stop()
        matrix, block = (steps + 1) * n * 8, (FLUSH_ENTRIES // n + 1) * n * 8
        assert matrix <= peaks[True] <= matrix + peaks[False] + 3 * block
        assert peaks[False] < matrix / 10


# each variant's generator and whether it searches its step
RING_VARIANTS = {"pga-constant": ("quadratic", False),
                 "pga-linesearch": ("quadratic", True),
                 "mirror-constant": ("entropy", False),
                 "mirror-linesearch": ("entropy", True)}


class TestRingWrites:
    """The prox map writes each candidate into the iterate ring's row for
    its step, and a completed block's last row moves to row 0 with the
    anchor: no block size, and no block completed early, changes a bit."""

    # blocks of 1, 2 and 81 steps at 50x100
    SIZES = (100, 200, FLUSH_ENTRIES)

    def runs(self, monkeypatch, variant, fail_at=None, **fields):
        """The desk run of ``variant`` (50x100, seed 42, F* taken as 0) at
        each block size: its trace, a failure's partial trace, and the
        steps its stepper flushed per block.  From step ``fail_at`` on,
        D_f reads 1e300, so that step exhausts the line search."""
        base = build_simplex_ls(ExperimentSpec(name="desk", m=50, n=100,
                                               seed=42))
        p = dataclasses.replace(base, optimum_oracle=(base.f.b, 0.0))
        H_kind, line_search = RING_VARIANTS[variant]
        H = squared_euclidean(100) if H_kind == "quadratic" \
            else negative_entropy(100)
        cfg = SolverConfig(
            eta0=100.0 if line_search else 1 / base.f.lipschitz_grad,
            line_search_enabled=line_search, keep_iterates=True, **fields)
        stepper = ResidualStepper
        accept, distance, flush = \
            stepper.accept, stepper.distance, stepper.flush
        accepted, flushed = [], []

        def counted_accept(self):
            accepted.append(1)
            accept(self)

        def failing_distance(self):
            late = fail_at is not None and len(accepted) + 1 >= fail_at
            return 1e300 if late else distance(self)

        def counted_flush(self, xs):
            flushed.append(self.j)
            return flush(self, xs)

        monkeypatch.setattr(stepper, "accept", counted_accept)
        monkeypatch.setattr(stepper, "distance", failing_distance)
        monkeypatch.setattr(stepper, "flush", counted_flush)
        runs = []
        for size in self.SIZES:
            monkeypatch.setattr(functions, "FLUSH_ENTRIES", size)
            accepted.clear()
            flushed.clear()
            try:
                trace = run_solver(p, H, make_prox_map("simplex", H_kind),
                                   np.full(100, 0.01), cfg)
            except SolverFailure as exc:
                trace = exc.partial_trace
            runs.append((trace, list(flushed)))
        assert [max(f) for _, f in runs][:2] == [1, 2]
        return runs

    @staticmethod
    def assert_same_bytes(traces):
        first = traces[0]
        for trace in traces[1:]:
            for name in ("objective", "eta", "backtracks", "d_hk", "x",
                         "xs"):
                a, b = getattr(first, name), getattr(trace, name)
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), \
                    name
            assert trace.stop_reason == first.stop_reason
            assert trace.hypothesis_held is first.hypothesis_held

    @pytest.mark.parametrize("variant", RING_VARIANTS)
    def test_block_size_changes_no_bit(self, monkeypatch, variant):
        runs = self.runs(monkeypatch, variant, max_iters=170)
        self.assert_same_bytes([trace for trace, _ in runs])
        assert [len(f) for _, f in runs] == [170, 85, 3]

    @pytest.mark.parametrize("variant", RING_VARIANTS)
    def test_a_block_completed_early_changes_no_bit(self, monkeypatch,
                                                   variant):
        # a tolerance one ulp below F(x_5) - F*: the stepper's slack cannot
        # rule a stop out at step 5, so its block completes there, the run
        # goes on, and it stops at step 6, whose F is lower
        full = self.runs(monkeypatch, variant, max_iters=10)[0][0]
        tol = np.nextafter(full.objective[5], -np.inf)
        runs = self.runs(monkeypatch, variant, max_iters=170, tolerance=tol)
        self.assert_same_bytes([trace for trace, _ in runs])
        assert runs[0][0].iters_to_tol == 6
        assert [f for _, f in runs] == [[1] * 6, [2, 2, 1, 1], [5, 1]]
        assert runs[0][0].xs.tobytes() == full.xs[:7].tobytes()

    @pytest.mark.parametrize("variant", ["pga-linesearch",
                                         "mirror-linesearch"])
    def test_a_failure_mid_block_keeps_only_accepted_iterates(
            self, monkeypatch, variant):
        # every candidate of step 6 is rejected: the partial trace ends at
        # step 5, and the rejected candidates written into the ring after
        # its iterates are not among them
        full = self.runs(monkeypatch, variant, max_iters=10)[0][0]
        runs = self.runs(monkeypatch, variant, fail_at=6, max_iters=170)
        traces = [trace for trace, _ in runs]
        self.assert_same_bytes(traces)
        partial = traces[0]
        assert partial.stop_reason == \
            "backtracking budget exhausted at iteration 6"
        assert len(partial.objective) == 6
        assert partial.xs.tobytes() == full.xs[:6].tobytes()
        assert partial.x.tobytes() == full.xs[5].tobytes()
        assert [f for _, f in runs] == [[1] * 5, [2, 2, 1], [5]]
