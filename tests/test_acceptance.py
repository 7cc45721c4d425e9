"""Acceptance suite: one test per exit criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.
"""

import hashlib
import itertools
import time

import numpy as np
import pytest

from bregprox import (
    CompositeProblem,
    ExperimentSpec,
    SolverConfig,
    bregman_distance,
    build_lasso_onestep,
    build_simplex_ls,
    composite_generator,
    certify_trace,
    gppa_objective,
    l1_norm,
    least_squares,
    make_prox_map,
    negative_entropy,
    reference_simplex_ls,
    run_experiment,
    run_solver,
    simplex_projection,
    squared_euclidean,
    verify_prox_optimality,
    verify_theorem2_equivalence,
    zero_term,
)
from bregprox.cli import main as cli_main
from bregprox.identities import run_identity_suites
from bregprox.prox import prox_objective


def rng(seed):
    return np.random.Generator(np.random.Philox(seed))


class Stopwatch:
    def __init__(self, limit):
        self.limit = limit
        self.start = time.perf_counter()

    def check(self):
        elapsed = time.perf_counter() - self.start
        assert elapsed < self.limit, f"runtime {elapsed:.1f}s over budget"
        return elapsed


def report(name, elapsed):
    print(f"ACCEPTANCE {name}: PASS ({elapsed:.2f}s)")


@pytest.fixture(scope="module")
def desk_experiment():
    """Shared 50x100 instance at the published line-search parameters."""
    spec = ExperimentSpec(name="desk", m=50, n=100, seed=42, eta0=100.0,
                          alpha=0.5, max_iters=20_000)
    return run_experiment(spec)


def test_criterion_1_one_step_lasso():
    watch = Stopwatch(1.0)
    r = rng(101)
    pm = make_prox_map("l1", "quadratic")
    H = squared_euclidean(50)
    for _ in range(10):
        gamma = r.uniform(0.1, 2.0)
        b = r.standard_normal(50)
        p = build_lasso_onestep(gamma, b)
        f_star = p.optimum_oracle[1]
        x0 = r.standard_normal(50) * r.uniform(0.5, 3.0)
        trace = run_solver(p, H, pm, x0,
                           SolverConfig(eta0=gamma, max_iters=1))
        assert trace.objective[1] - f_star <= 1e-10
        assert certify_trace(p, H, trace).bound_at(1) <= 1e-12
    report("1 one-step LASSO", watch.check())


def test_criterion_2_tightness_ordering():
    watch = Stopwatch(5.0)
    r = rng(102)
    n = 8
    H = squared_euclidean(n)
    pm = make_prox_map("zero", "quadratic")
    for _ in range(100):
        A = r.standard_normal((10, n))
        L = float(np.linalg.eigvalsh(A.T @ A)[-1])
        f = least_squares(A, r.standard_normal(10), lipschitz=L)
        eta = r.uniform(0.05, 1.0) / L  # eta <= gamma
        x_star, x0 = r.standard_normal((2, n))
        d_f = f.value(x_star) - f.value(x0) - float(
            np.dot(x_star - x0, f.grad(x0)))
        # the certificate of a 50-step constant-step run measured against
        # x_star; its bound does not depend on the iterates
        p = CompositeProblem(f, zero_term(),
                             optimum_oracle=(x_star, f.value(x_star)))
        cert = certify_trace(p, H, run_solver(
            p, H, pm, x0, SolverConfig(eta0=eta, max_iters=50)))
        for k in range(1, 51):
            tight = cert.bound_at(k)
            loose = cert.classical / cert.weight_sums[k - 1]
            assert tight <= loose + 1e-12
            if d_f > 1e-8:
                assert tight < loose
    report("2 tightness ordering", watch.check())


def test_criterion_3_certificate_validity():
    # the certified reference needs a few major cycles per instance; ten
    # blind 100k-step runs would take well over this budget
    watch = Stopwatch(10.0)
    H = squared_euclidean(40)
    pm = make_prox_map("simplex", "quadratic")
    x0 = np.full(40, 1 / 40)
    for seed in range(10):
        spec = ExperimentSpec(name="cert", m=20, n=40, seed=seed)
        p = build_simplex_ls(spec)
        gamma = 1.0 / p.f.lipschitz_grad
        x_star, f_star = reference_simplex_ls(p.f.A, p.f.b)
        p = CompositeProblem(p.f, p.g, optimum_oracle=(x_star, f_star))
        trace = run_solver(p, H, pm, x0,
                           SolverConfig(eta0=gamma, max_iters=500))
        assert certify_trace(p, H, trace).margin >= -1e-9
    report("3 certificate validity", watch.check())


def _offset_spread(p, H, pm, x0, eta, sampler, steps=10, points=100, seed=0):
    """Worst spread, over the anchors of a constant-step run, of the
    proximal-point objective minus the prox objective at a stack of
    ``points`` sampled points."""
    r = rng(seed)
    h = composite_generator(H, p.f, eta)
    trace = run_solver(p, H, pm, x0, SolverConfig(eta0=eta, max_iters=steps,
                                                  keep_iterates=True))
    worst = 0.0
    for x in trace.xs[:-1]:
        z = sampler(r, points)
        offsets = (gppa_objective(p, h, z, x)
                   - prox_objective(p.g, H, z, p.f.grad(x), x, eta))
        worst = max(worst, float(np.std(offsets)))
    return worst


def test_criterion_4_equivalence():
    watch = Stopwatch(5.0)
    # quadratic generator on a 20-D LASSO
    r = rng(104)
    A = r.standard_normal((10, 20))
    L = float(np.linalg.eigvalsh(A.T @ A)[-1])
    p_q = CompositeProblem(
        f=least_squares(A, r.standard_normal(10), lipschitz=L),
        g=l1_norm())
    pm_q = make_prox_map("l1", "quadratic")
    H_q = squared_euclidean(20)
    x0_q = r.standard_normal(20)
    worst = verify_theorem2_equivalence(p_q, H_q, pm_q, x0_q, eta=1.0 / L,
                                        iters=10)
    assert worst <= 1e-9
    spread = _offset_spread(p_q, H_q, pm_q, x0_q, 1.0 / L,
                            lambda rr, k: rr.standard_normal((k, 20)))
    assert spread <= 1e-10

    # entropy generator on a 10-D simplex least squares
    spec = ExperimentSpec(name="equiv", m=8, n=10, seed=104)
    p_e = build_simplex_ls(spec)
    pm_e = make_prox_map("simplex", "entropy")
    H_e = negative_entropy(10)
    x0_e = np.full(10, 0.1)
    eta_e = 1.0 / p_e.f.lipschitz_grad
    worst = verify_theorem2_equivalence(p_e, H_e, pm_e, x0_e, eta=eta_e,
                                        iters=10)
    assert worst <= 1e-9
    spread = _offset_spread(p_e, H_e, pm_e, x0_e, eta_e,
                            lambda rr, k: rr.dirichlet(np.ones(10), size=k))
    assert spread <= 1e-10
    report("4 proximal-point equivalence", watch.check())


def test_criterion_5_line_search(desk_experiment):
    watch = Stopwatch(60.0)
    res = desk_experiment
    p = res.problem
    f_star = res.reference_optimum[1]
    gamma = 1 / p.f.lipschitz_grad
    x0 = res.traces["pga-constant"].x0
    alpha, eta0 = 0.5, 100.0
    for H_kind in ("quadratic", "entropy"):
        H = squared_euclidean(100) if H_kind == "quadratic" \
            else negative_entropy(100)
        pm = make_prox_map("simplex", H_kind)
        cfg = SolverConfig(eta0=eta0, alpha=alpha, max_iters=201,
                           line_search_enabled=True)
        trace = run_solver(p, H, pm, x0, cfg)
        cert = certify_trace(p, H, trace)
        objs = trace.objective
        for k in range(1, len(objs)):
            assert trace.d_hk[k] >= -1e-12
            assert trace.eta[k] >= alpha * gamma - 1e-12
            # F(x_k) - F* <= (D_H(x*, x0) / eta_1 - D_f(x*, x0)) / S_k,
            # S_k = sum_{i <= k} eta_i / eta_1
            assert objs[k] - f_star <= cert.bound_at(k) + 1e-9
        at_optimum = objs[:-1] - f_star <= 1e-12 * (1 + abs(f_star))
        strict = np.diff(objs) < 0
        assert np.all(strict | at_optimum)
    report("5 line-search behavior", watch.check())


def test_criterion_6_faster_with_line_search(desk_experiment):
    watch = Stopwatch(120.0)
    res = desk_experiment

    def key(v):
        k = res.traces[v].iters_to_tol
        return np.inf if k is None else k

    assert key("pga-linesearch") <= key("pga-constant")
    assert key("mirror-linesearch") <= key("mirror-constant")
    report("6 line-search ordering", watch.check())


def _kkt_simplex_projection(z):
    n = z.size
    best, best_val = None, np.inf
    for size in range(1, n + 1):
        for support in itertools.combinations(range(n), size):
            s = list(support)
            x = np.zeros(n)
            x[s] = z[s] - (np.sum(z[s]) - 1.0) / len(s)
            if np.min(x[s]) < -1e-12:
                continue
            val = np.sum((x - z) ** 2)
            if val < best_val:
                best, best_val = x, val
    return best


def test_criterion_7_identity_suites():
    watch = Stopwatch(5.0)
    results = run_identity_suites(samples=10_000, seed=0)
    for r_ in results:
        assert r_.passed, f"{r_.name}: worst={r_.worst}"

    # prox global-optimality checks at the stated tolerance
    r = rng(107)
    for g_kind, H_kind, n in (("l1", "quadratic", 5),
                              ("simplex", "quadratic", 10),
                              ("simplex", "entropy", 5)):
        pm = make_prox_map(g_kind, H_kind)
        v = r.standard_normal(n)
        y = r.dirichlet(np.ones(n)) if g_kind == "simplex" \
            else r.standard_normal(n)
        assert verify_prox_optimality(pm, v, y, 0.5) <= 1e-9

    # exact agreement with brute-force KKT enumeration at n <= 8
    for n in (2, 4, 6, 8):
        for _ in range(20):
            z = r.standard_normal(n) * r.uniform(0.1, 5.0)
            np.testing.assert_allclose(simplex_projection(z),
                                       _kkt_simplex_projection(z), atol=1e-10)
    report("7 identity suites", watch.check())


def test_criterion_8_determinism(tmp_path):
    watch = Stopwatch(120.0)
    args = ["run-simplex", "--rows", "30", "--cols", "60", "--seed", "42",
            "--max-iters", "500"]
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert cli_main(args + ["--out", str(out1)]) == 0
    assert cli_main(args + ["--out", str(out2)]) == 0
    for path in sorted(out1.iterdir()):
        h1 = hashlib.sha256(path.read_bytes()).hexdigest()
        h2 = hashlib.sha256((out2 / path.name).read_bytes()).hexdigest()
        assert h1 == h2, f"{path.name} differs between reruns"
    report("8 determinism", watch.check())
