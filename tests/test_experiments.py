import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from bregprox import experiments
from bregprox.cli import _certified
from bregprox.experiments import VARIANTS, variant_configs
from bregprox import (
    BregProxError,
    CompositeProblem,
    ConfigurationError,
    ContractViolation,
    ExperimentSpec,
    SolverFailure,
    build_lasso_onestep,
    build_simplex_ls,
    certify_trace,
    estimate_spectral_norm,
    evaluate_composite,
    least_squares,
    make_prox_map,
    reference_simplex_ls,
    run_experiment,
    run_solver,
    simplex_projection,
)


def desk_spec(**overrides):
    base = dict(name="desk", m=20, n=40, seed=42, eta0=100.0, alpha=0.5,
                max_iters=2000)
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
        assert p.f.lipschitz_grad == pytest.approx(oracle, rel=1e-12)

    def test_lipschitz_exact_at_paper_scale(self):
        # a power iteration stopped on stagnating Rayleigh quotients read
        # 2.5e-7 low here, so eta = 1/L overshot 1/lambda_max
        p = build_simplex_ls(ExperimentSpec(name="paper", m=500, n=1000,
                                            seed=3))
        oracle = float(np.linalg.eigvalsh(p.f.A.T @ p.f.A)[-1])
        assert p.f.lipschitz_grad == pytest.approx(oracle, rel=1e-12)

    def test_zero_size_rejected(self):
        with pytest.raises(ContractViolation):
            ExperimentSpec(name="bad", m=0, n=5, seed=0)

    def test_no_variant_rejected(self):
        with pytest.raises(ContractViolation,
                           match="^at least one variant is required$"):
            desk_spec(variants=())

    def test_repeated_variant_rejected(self):
        # used to write two identical summary rows
        with pytest.raises(ContractViolation, match="repeated"):
            desk_spec(variants=("pga-constant", "mirror-constant",
                                "pga-constant"))


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


def data_scale(A, b):
    """max(|b|^2, max_i |a_i|^2) / 2, the scale of the reference's stopping
    gap."""
    return 0.5 * max(float(b @ b), float(np.max(np.sum(A * A, axis=0))))


class TestReferenceRun:
    @pytest.mark.parametrize("seed", [0, 3])
    def test_certified_reference_matches_long_run(self, seed):
        res = run_experiment(desk_spec(seed=seed, variants=("pga-constant",),
                                       max_iters=10))
        x_ref, f_ref = res.reference_optimum
        f = res.problem.f
        assert 0.0 <= res.reference_gap <= 1e-13 * data_scale(f.A, f.b)
        assert abs(np.sum(x_ref) - 1.0) <= 1e-9
        assert np.min(x_ref) >= 0.0
        _, f_long = blind_reference(f.A, f.b, 1 / f.lipschitz_grad)
        # both values bound F* from above, so the gap bounds how far the
        # certified one can lie above the long run's; either side allows
        # the rounding of evaluating F (seed 3 sits one ulp below)
        rounding = 1e-15 * (1.0 + abs(f_ref))
        assert -rounding <= f_ref - f_long <= res.reference_gap + rounding

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_b_near_a_column_is_certified(self, seed):
        # F at the start vertex, the column nearest b, is no scale for the
        # stopping gap: b within 1e-4 to 3e-3 of a column makes it tiny,
        # and a stop at 1e-13 F(x_start) stalled on half of these twelve
        # (gaps of 1e-20 to 7e-17 against bounds down to 1e-19)
        A = build_simplex_ls(desk_spec(seed=seed)).f.A
        r = np.random.Generator(np.random.Philox(seed))
        for noise in (1e-2, 3e-3, 1e-3, 1e-4):
            b = A[:, 3] + noise * r.standard_normal(A.shape[0])
            x, _ = reference_simplex_ls(A, b)
            assert fw_gap(A, b, x) <= 1e-13 * data_scale(A, b)

    def test_cap_reached_uncertified_is_an_error(self, monkeypatch):
        # the error names the gap of the one major cycle the cap allows: from
        # the column of P = A - b 1^T nearest 0 to the nearest point of its
        # segment to the Frank-Wolfe vertex
        p = build_simplex_ls(desk_spec())
        A, b = p.f.A, p.f.b
        monkeypatch.setattr(experiments, "REFERENCE_MAX_CYCLES", 1)
        with pytest.raises(ConfigurationError) as exc_info:
            reference_simplex_ls(A, b)
        P = A - b[:, None]
        start = np.argmin(np.sum(P * P, axis=0))
        x = np.zeros(A.shape[1])
        x[start] = 1.0
        vertex = np.argmin(p.f.grad(x))
        d = P[:, vertex] - P[:, start]
        t = np.clip(-(P[:, start] @ d) / (d @ d), 0.0, 1.0)
        x[start], x[vertex] = 1.0 - t, t
        gap = fw_gap(A, b, x)
        assert gap > 1e-13 * data_scale(A, b)
        message = str(exc_info.value)
        assert "uncertified after 1 major cycles" in message
        assert f"{gap:.3e}" in message

    def test_uncertified_reference_fails_before_any_solve(self, monkeypatch):
        # a cap of 0 cycles used to take the barycentre as x* (gap 0.33) and
        # report negative final gaps as reached
        def no_solve(*args):
            raise AssertionError("solved against an uncertified reference")

        monkeypatch.setattr(experiments, "run_solver", no_solve)
        monkeypatch.setattr(experiments, "REFERENCE_MAX_CYCLES", 0)
        with pytest.raises(ConfigurationError,
                           match="uncertified after 0 major cycles"):
            run_experiment(desk_spec())

    def test_optimal_start_returns_at_once(self, monkeypatch):
        # b equal to a column makes that column's vertex optimal (F = 0) and
        # the nearest start: it is certified with no major cycle at all
        p = build_simplex_ls(desk_spec())
        A = p.f.A

        def no_cycle(*args, **kwargs):
            raise AssertionError("ran a minor cycle from an optimal start")

        monkeypatch.setattr(np.linalg, "lstsq", no_cycle)
        x, f_x = reference_simplex_ls(A, A[:, 7].copy())
        np.testing.assert_array_equal(x, np.eye(A.shape[1])[7])
        assert f_x == 0.0

    def test_stalled_corral_is_an_error(self, monkeypatch):
        # a Frank-Wolfe vertex that enters the corral twice means rounding
        # stopped the method; it fails at once, not at the cycle cap.
        # Affine minimizers that weigh every entering vertex below 0 drop
        # it in its first minor cycle, so it enters again.
        p = build_simplex_ls(desk_spec())

        def first_point(D, rhs, rcond=None):
            return np.full(D.shape[1], -1.0), None, None, None

        monkeypatch.setattr(np.linalg, "lstsq", first_point)
        with pytest.raises(ConfigurationError) as exc_info:
            reference_simplex_ls(p.f.A, p.f.b)
        message = str(exc_info.value)
        assert message.startswith(
            "reference optimum uncertified after 1 major cycles: "
            "Frank-Wolfe gap ")
        assert message.endswith("has entered the corral before")

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(m=st.integers(1, 6), n=st.integers(1, 300),
           seed=st.integers(0, 2**31 - 1))
    @example(m=50, n=100, seed=42)
    @example(m=2, n=199, seed=754105628)
    def test_certified_on_the_simplex_with_small_support(self, m, n, seed):
        # m << n stalled projected gradient (2x50: uncertified after 100k
        # steps); 2x199 seed 754105628 has two columns 6.6e-7 apart, which
        # the corral's Gram block could not tell apart
        p = build_simplex_ls(ExperimentSpec(name="sweep", m=m, n=n,
                                            seed=seed))
        x, f_x = reference_simplex_ls(p.f.A, p.f.b)
        assert f_x == p.f.value(x)
        assert fw_gap(p.f.A, p.f.b, x) <= 1e-13 * data_scale(p.f.A, p.f.b)
        assert np.min(x) >= 0.0
        assert abs(np.sum(x) - 1.0) <= 1e-12
        assert np.count_nonzero(x) <= m + 1


def rescaled_runs(spec, k):
    """The reference, and each variant's trace or failure and certificate,
    of ``spec``'s problem with A and b scaled by 2^k, every step by 4^-k
    and the tolerance by 4^k, as ``run_experiment`` runs them."""
    base = build_simplex_ls(spec)
    A, b = base.f.A * 2.0 ** k, base.f.b * 2.0 ** k
    x_star, f_star = reference_simplex_ls(A, b)
    f = least_squares(A, b, lipschitz=estimate_spectral_norm(A))
    p = CompositeProblem(f=f, g=base.g, optimum_oracle=(x_star, f_star))
    # exactly 4^k times the unscaled run's tolerance 1e-6 (1 + |F*|)
    tol = 1e-6 * (4.0 ** k + abs(f_star))
    configs = variant_configs(
        dataclasses.replace(spec, eta0=spec.eta0 * 4.0 ** -k),
        1.0 / f.lipschitz_grad, tol)
    runs, x0 = {}, np.full(spec.n, 1.0 / spec.n)
    for variant, (H, cfg) in configs.items():
        pm = make_prox_map("simplex", H.kind)
        try:
            trace, failure = run_solver(p, H, pm, x0, cfg), None
        except SolverFailure as exc:
            trace, failure = exc.partial_trace, type(exc)
        except BregProxError as exc:
            runs[variant] = None, type(exc), None
            continue
        runs[variant] = trace, failure, certify_trace(p, H, trace)
    return (x_star, f_star), runs


class TestRescaling:
    # k runs over [-30, 30].  The SMALLEST_NORMAL floors that meet scaled
    # values allow far more: the line search's smallest step holds 4^-k
    # times accepted steps near 0.2, and the stop test's m SMALLEST_NORMAL
    # sits below 4^k F*, to |k| of about 500.  The first limit met is
    # LAPACK's: through its internal scaling the eigensolver gives L other
    # bits at k = -220 and k = 245, where -200 and 240 kept them (20x40
    # seed 0, 30x10 seed 3).
    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(k=st.integers(-30, 30), m=st.integers(1, 30),
           n=st.integers(1, 60), seed=st.integers(0, 2**31 - 1))
    @example(k=-20, m=50, n=100, seed=42)
    @example(k=30, m=50, n=100, seed=12)
    def test_power_of_two_rescaling_is_the_same_run(self, k, m, n, seed):
        # the reference's stop at 1e-13 (1 + |F(x)|) had an absolute floor,
        # which a small problem met at its start vertex (k <= -20)
        spec = ExperimentSpec(name="rescale", m=m, n=n, seed=seed,
                              max_iters=200)
        (x0_star, f0_star), runs0 = rescaled_runs(spec, 0)
        (x_star, f_star), runs = rescaled_runs(spec, k)
        q = 4.0 ** k
        assert x_star.tobytes() == x0_star.tobytes()
        assert f_star == f0_star * q
        for variant, (trace0, failure0, cert0) in runs0.items():
            trace, failure, cert = runs[variant]
            assert failure == failure0
            if trace0 is None:
                assert trace is None
                continue
            assert trace.x.tobytes() == trace0.x.tobytes()
            for got, want in ((trace.objective, trace0.objective * q),
                              (trace.eta, trace0.eta / q),
                              (trace.d_hk, trace0.d_hk * q),
                              (trace.backtracks, trace0.backtracks),
                              (cert.weight_sums, cert0.weight_sums)):
                assert got.tobytes() == want.tobytes()
            assert (trace.stop_reason, trace.hypothesis_held) == \
                (trace0.stop_reason, trace0.hypothesis_held)
            assert (cert.constant, cert.classical, cert.margin) == \
                (cert0.constant * q, cert0.classical * q, cert0.margin * q)
            assert _certified(cert, trace, f_star) \
                == _certified(cert0, trace0, f0_star)


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
            k = result.traces[v].iters_to_tol
            return np.inf if k is None else k
        assert key("pga-linesearch") <= key("pga-constant")
        assert key("mirror-linesearch") <= key("mirror-constant")

    def test_constant_step_certificates_hold(self, result):
        for v in ("pga-constant", "mirror-constant"):
            assert result.certificates[v].margin >= -1e-9

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4, 5, 6, 7, 42])
    def test_every_variant_certified_on_desk_seeds(self, seed):
        # the step-weighted certificate at the CLI's 50x100 defaults: each
        # variant's hypothesis holds and its bound is never crossed
        res = run_experiment(ExperimentSpec(name="desk", m=50, n=100,
                                            seed=seed))
        assert set(res.certificates) == set(VARIANTS)
        for variant, cert in res.certificates.items():
            assert res.traces[variant].hypothesis_held
            assert cert.margin >= 0.0

    @pytest.mark.parametrize("seed", [*range(24), 42])
    def test_stop_record_is_the_first_step_within_tolerance(self, seed):
        # each trace's stop record replaces a rescan of its objective
        # column: the first k >= 1 with F(x_k) - F* <= tol, or None
        res = run_experiment(ExperimentSpec(name="desk", m=50, n=100,
                                            seed=seed))
        f_star = res.reference_optimum[1]
        assert set(res.traces) == set(VARIANTS)
        for trace in res.traces.values():
            reached = np.flatnonzero(trace.objective[1:] - f_star
                                     <= res.tolerance)
            assert trace.iters_to_tol == (
                int(reached[0]) + 1 if reached.size else None)
            assert trace.stop_reason == (
                "tolerance" if reached.size else "max_iters")

    def test_mirror_iterates_stay_interior(self, result):
        # run_experiment keeps no iterates: each mirror variant runs again
        # on its configuration, keeping them
        configs = experiments.variant_configs(
            result.spec, 1 / result.problem.f.lipschitz_grad,
            result.tolerance)
        for v in ("mirror-constant", "mirror-linesearch"):
            H, cfg = configs[v]
            trace = run_solver(result.problem, H,
                               make_prox_map("simplex", H.kind),
                               result.traces[v].x0,
                               dataclasses.replace(cfg, keep_iterates=True))
            np.testing.assert_array_equal(trace.objective,
                                          result.traces[v].objective)
            for x in trace.xs:
                assert np.min(x) > 0.0
                assert abs(np.sum(x) - 1.0) <= 1e-9

    def test_single_variant_spec(self):
        res = run_experiment(desk_spec(variants=("pga-constant",),
                                       max_iters=50))
        assert list(res.traces) == ["pga-constant"]
        assert len(res.certificates) == 1

    def test_determinism(self):
        spec = desk_spec(max_iters=100)
        a = run_experiment(spec)
        b = run_experiment(spec)
        for v in spec.variants:
            np.testing.assert_array_equal(a.traces[v].objective,
                                          b.traces[v].objective)
            ra = a.traces[v].eta
            rb = b.traces[v].eta
            np.testing.assert_array_equal(ra, rb)
        assert a.reference_optimum[1] == b.reference_optimum[1]

    def test_one_step_lasso_from_random_starts(self):
        rng = np.random.Generator(np.random.Philox(6))
        from bregprox import (SolverConfig, certify_trace, make_prox_map,
                              run_solver, squared_euclidean)
        gamma = 0.8
        p = build_lasso_onestep(gamma, rng.standard_normal(10))
        pm = make_prox_map("l1", "quadratic")
        H = squared_euclidean(10)
        f_star = p.optimum_oracle[1]
        for _ in range(10):
            x0 = rng.standard_normal(10) * 3
            trace = run_solver(p, H, pm, x0,
                               SolverConfig(eta0=gamma, max_iters=1))
            assert trace.objective[1] - f_star <= 1e-10
            assert abs(certify_trace(p, H, trace).bound_at(1)) <= 1e-12
