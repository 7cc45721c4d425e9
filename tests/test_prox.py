import dataclasses
import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from bregprox import (
    CompositeProblem,
    ContractViolation,
    DomainError,
    ExperimentSpec,
    NumericalFailure,
    composite_generator,
    entropic_update,
    evaluate_composite,
    gppa_objective,
    l1_norm,
    make_prox_map,
    negative_entropy,
    project_simplex,
    run_experiment,
    shifted_quadratic,
    simplex_indicator,
    simplex_projection,
    soft_threshold,
    squared_euclidean,
    verify_prox_optimality,
    zero_term,
)
from bregprox import experiments
from bregprox.functions import SIMPLEX_SUM_TOL, first_order_gap, on_simplex
from bregprox.identities import sample_feasible
from bregprox.prox import (_REGISTRY, SMALLEST_NORMAL, SUM_DRIFT_MAX, ProxMap,
                           _simplex_threshold, prox_objective)


def rng(seed=0):
    return np.random.Generator(np.random.Philox(seed))


def kkt_simplex_projection(z):
    """Brute-force oracle: exact KKT solution per support set, n <= 8."""
    n = z.size
    best, best_val = None, np.inf
    for r in range(1, n + 1):
        for support in itertools.combinations(range(n), r):
            s = list(support)
            x = np.zeros(n)
            x[s] = z[s] - (np.sum(z[s]) - 1.0) / len(s)
            if np.min(x[s]) < -1e-12:
                continue
            val = np.sum((x - z) ** 2)
            if val < best_val:
                best, best_val = x, val
    return best


def grid_scalar_shrink(t, eta):
    """Dense grid oracle for min_x |x| + (x - t)^2 / (2 eta)."""
    grid = np.arange(-10.0, 10.0, 1e-4)
    return grid[np.argmin(np.abs(grid) + (grid - t) ** 2 / (2 * eta))]


class TestSoftThreshold:
    def test_origin_fixed(self):
        np.testing.assert_array_equal(
            soft_threshold(np.zeros(3), np.zeros(3), 2.0), np.zeros(3))

    def test_shrink_example(self):
        got = soft_threshold(np.zeros(2), np.array([3.0, -0.5]), 1.0)
        np.testing.assert_allclose(got, [2.0, 0.0])

    def test_shift_then_shrink(self):
        got = soft_threshold(np.array([1.0, 0.0]), np.array([3.0, 0.0]), 1.0)
        np.testing.assert_allclose(got, [1.0, 0.0])

    def test_agrees_with_grid_search(self):
        r = rng(1)
        for _ in range(20):
            v, y = r.uniform(-3, 3, size=(2, 4))
            eta = r.uniform(0.2, 2.0)
            got = soft_threshold(v, y, eta)
            for i in range(4):
                oracle = grid_scalar_shrink(y[i] - eta * v[i], eta)
                assert abs(got[i] - oracle) <= 1e-4

    def test_rejects_nonpositive_eta(self):
        with pytest.raises(ContractViolation):
            soft_threshold(np.zeros(2), np.zeros(2), 0.0)


class TestProjectSimplex:
    def test_already_on_simplex(self):
        np.testing.assert_allclose(
            project_simplex(np.zeros(3), np.array([1.0, 0.0, 0.0]), 1.0),
            [1.0, 0.0, 0.0])

    def test_two_dim_kkt(self):
        np.testing.assert_allclose(
            project_simplex(np.zeros(2), np.array([2.0, 0.0]), 1.0),
            [1.0, 0.0])

    def test_symmetric_point(self):
        np.testing.assert_allclose(
            project_simplex(np.zeros(3), np.full(3, 0.4), 1.0),
            np.full(3, 1 / 3))

    @pytest.mark.parametrize("n", [2, 3, 5, 8])
    def test_matches_kkt_enumeration(self, n):
        r = rng(n)
        for _ in range(50):
            z = r.standard_normal(n) * r.uniform(0.1, 5)
            got = simplex_projection(z)
            np.testing.assert_allclose(got, kkt_simplex_projection(z),
                                       atol=1e-10)

    def test_output_feasible(self):
        r = rng(9)
        for _ in range(100):
            x = simplex_projection(r.standard_normal(20) * 10)
            assert abs(np.sum(x) - 1.0) <= 1e-12
            assert np.min(x) >= 0.0


class TestSimplexProjectionRange:
    def test_entries_that_dwarf_one(self):
        np.testing.assert_array_equal(
            simplex_projection(np.array([1e17, 0.0, -3.0])), [1.0, 0.0, 0.0])

    def test_every_finite_magnitude_lands_on_simplex(self):
        r = rng(8)
        for exponent in range(0, 300, 7):
            z = r.standard_normal(10) * 10.0 ** exponent
            x = simplex_projection(z)
            assert abs(np.sum(x) - 1.0) <= 1e-12
            assert np.min(x) >= 0.0
            assert x[np.argmax(z)] == np.max(x)

    def test_non_finite_input_raises(self):
        with pytest.raises(NumericalFailure):
            simplex_projection(np.array([np.nan, 0.0, 1.0]))

    @pytest.mark.parametrize("n", [3, 100])
    @pytest.mark.parametrize("value", [1e307, 1e300, 1e20, 1e13, 1e6,
                                       -1e13])
    def test_large_ties_project_to_the_center(self, value, n):
        # np.full(100, 1e20) used to project to a point summing to 4.9e6,
        # np.full(100, 1e13) to one summing to 0.977, and np.full(100,
        # 1e307) to entries of 2.5e291.  A first pass on the simplex is
        # kept (1e6 at n = 3 sums to 1 within 1.2e-10); the shifted pass
        # gives exactly 1/n
        x = simplex_projection(np.full(n, value))
        assert on_simplex(x)
        np.testing.assert_allclose(x, 1 / n, rtol=0.0,
                                   atol=SIMPLEX_SUM_TOL / n)
        if abs(value) >= 1e13:
            assert x.tobytes() == np.full(n, 1 / n).tobytes()

    @pytest.mark.parametrize("seed", range(3))
    def test_large_near_ties_stay_on_the_simplex(self, seed):
        # 1e6 + 0.01 U(0, 1) used to sum to 1 only within 1.2e-8.  The
        # Frank-Wolfe gap of 1/2 ||x - z||^2 reads +inf off the simplex; z
        # is shifted by its maximum, which leaves the projection unchanged
        # and keeps the gradient x - z of the order of 1
        z = 1e6 + 0.01 * rng(seed).uniform(size=100)
        x = simplex_projection(z)
        assert on_simplex(x)
        assert first_order_gap("simplex", x - (z - np.max(z)), x) <= 1e-15


class TestEntropicUpdate:
    def test_zero_gradient_is_identity(self):
        y = np.array([0.25, 0.75])
        np.testing.assert_allclose(entropic_update(np.zeros(2), y, 1.0), y)

    def test_hand_computed_weights(self):
        got = entropic_update(np.array([np.log(2.0), 0.0]),
                              np.array([0.5, 0.5]), 1.0)
        np.testing.assert_allclose(got, [1 / 3, 2 / 3])

    def test_output_on_simplex_and_positive(self):
        r = rng(2)
        for _ in range(100):
            x = entropic_update(r.standard_normal(6), r.dirichlet(np.ones(6)),
                                r.uniform(0.1, 100))
            assert abs(np.sum(x) - 1.0) <= 1e-12
            assert np.min(x) > 0.0

    def test_scale_invariance_in_y(self):
        r = rng(3)
        v = r.standard_normal(5)
        y = r.dirichlet(np.ones(5))
        a = entropic_update(v, y, 0.7)
        b = entropic_update(v, 17.0 * y, 0.7)
        np.testing.assert_allclose(a, b, atol=1e-14)

    def test_no_overflow_at_large_eta(self):
        x = entropic_update(np.array([500.0, -500.0]), np.array([0.5, 0.5]),
                            100.0)
        assert np.all(np.isfinite(x))

    def test_zero_components_stay_zero(self):
        r = rng(7)
        y = np.array([0.5, 0.0, 0.5, 0.0])
        for _ in range(20):
            x = entropic_update(r.standard_normal(4) * 100, y,
                                r.uniform(0.1, 100))
            assert x[1] == 0.0 and x[3] == 0.0
            assert abs(np.sum(x) - 1.0) <= 1e-12

    def test_negative_y_rejected(self):
        with pytest.raises(DomainError):
            entropic_update(np.zeros(2), np.array([1.1, -0.1]), 1.0)


def reference_simplex_projection(z):
    """simplex_projection as it was before its fast paths: the bits it
    must keep.  The shifted pass also runs where the first pass's sum of x
    may drift past half of SIMPLEX_SUM_TOL (prox.SUM_DRIFT_MAX) and x is
    off the simplex."""
    z = np.asarray(z, dtype=float)
    ks = np.arange(1, z.size + 1)
    for retry, shift in enumerate((0.0, np.max(z))):
        u = np.sort(z - shift)[::-1]
        css = np.cumsum(u) - 1.0
        above = u - css / ks > 0
        if above.any():
            rho = ks[above][-1]
            x = np.maximum(z - shift - css[rho - 1] / rho, 0.0)
            if not retry and (rho + 3) ** 2 * (abs(u[0]) + 1.0) \
                    > SUM_DRIFT_MAX \
                    and abs(np.sum(x) - 1.0) > SIMPLEX_SUM_TOL:
                continue
            return x
    raise NumericalFailure("cannot project a non-finite point onto the simplex")


def reference_entropic_update(v, y, eta):
    """entropic_update as it was before its fast paths: the bits it must
    keep."""
    y = np.asarray(y, dtype=float)
    y_min = y.min()
    if y_min < 0.0:
        raise DomainError("mirror step undefined for negative components")
    x = -eta * np.asarray(v, dtype=float)
    if not y_min > 0.0:
        x = np.where(y > 0.0, x, -np.inf)
    x -= x.max()
    np.multiply(np.exp(x, out=x), y, out=x)
    x /= x.sum()
    x[x < SMALLEST_NORMAL] = 0.0
    return x


def nudged(r, z, ulps):
    """z with each entry moved by up to ``ulps`` units in the last place."""
    return z + r.integers(-ulps, ulps + 1, size=z.shape) * np.spacing(z)


PROJECTION_KINDS = ["normal", "some_ties", "all_ties", "on_simplex",
                    "huge"]


def projection_input(r, n, kind):
    z = r.standard_normal(n) * 10.0 ** r.integers(-6, 7)
    if kind == "some_ties":
        # entries equal to, or a few ulps from, other entries
        tied = r.random(n) < 0.5
        z[tied] = nudged(r, z[r.integers(n, size=np.count_nonzero(tied))],
                         3)
    elif kind == "all_ties":
        z = nudged(r, np.full(n, r.standard_normal()), 2)
    elif kind == "on_simplex":
        # a point of the simplex with exact zeros, shifted: the threshold
        # ties with the zero entries up to the rounding of the cumsum
        x = r.dirichlet(np.ones(n))
        x[r.random(n) < 0.3] = 0.0
        if x.sum() == 0.0:
            x[0] = 1.0
        z = x / x.sum() + r.choice([0.0, 1.0, -3.5, 1e3])
    elif kind == "huge":
        z *= 1e17
    return z


class TestKernelBits:
    """The kernels' fast paths change no output bit."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 1000),
           kind=st.sampled_from(PROJECTION_KINDS))
    @example(seed=0, n=1000, kind="normal")
    @example(seed=1, n=1000, kind="on_simplex")
    def test_simplex_projection_keeps_its_bits(self, seed, n, kind):
        z = projection_input(rng(seed), n, kind)
        got = simplex_projection(z)
        assert got.tobytes() == reference_simplex_projection(z).tobytes()
        assert on_simplex(got)

    @pytest.mark.parametrize("n", [1000, 4000])
    @pytest.mark.parametrize("offset", [0.0, 10.0, 1e4])
    def test_long_supports_retry_only_off_the_simplex(self, n, offset):
        # past rho of about 3000 / sqrt(|u_0| + 1) the drift bound exceeds
        # half of SIMPLEX_SUM_TOL; a first pass on the simplex keeps its
        # bits instead of paying a second sort, and one off it (offset 1e4,
        # off by 1.2e-8 and 1.4e-7) retries
        z = offset + 1e-4 * rng(n).standard_normal(n)
        first = _simplex_threshold(z, np.inf)
        assert np.count_nonzero(first) > 0.99 * n
        got = simplex_projection(z)
        kept = bool(on_simplex(first))
        assert kept == (offset < 1e4)
        assert (got.tobytes() == first.tobytes()) == kept
        assert on_simplex(got)
        assert got.tobytes() == reference_simplex_projection(z).tobytes()

    @pytest.mark.parametrize("z", [[1e17, 0.0, -3.0], [1e300, -1e300, 0.0],
                                   [0.5, 0.5], [2.0], [-0.0, 0.0, 1.0]])
    def test_simplex_projection_keeps_its_bits_at_edges(self, z):
        z = np.array(z)
        got = simplex_projection(z)
        assert got.tobytes() == reference_simplex_projection(z).tobytes()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("z", [[np.nan, 0.0, 1.0], [np.inf, 0.0],
                                   [-np.inf, 1.0, np.inf]])
    def test_non_finite_projection_still_raises(self, z):
        with pytest.raises(NumericalFailure):
            reference_simplex_projection(np.array(z))
        with pytest.raises(NumericalFailure):
            simplex_projection(np.array(z))

    @pytest.mark.parametrize("spec", [
        ExperimentSpec("desk", 50, 100, seed=42,
                       variants=("pga-constant", "pga-linesearch")),
        ExperimentSpec("wide", 20, 1000, seed=5,
                       variants=("pga-constant", "pga-linesearch"))])
    def test_pga_runs_keep_their_bits(self, monkeypatch, spec):
        # both PGA variants as run-simplex runs them, against the same runs
        # with each candidate projected by the reference body
        def reference_solve(v, y, eta, out=None):
            return reference_simplex_projection(
                np.asarray(y, dtype=float) - eta * np.asarray(v, dtype=float))

        def reference_prox_map(g_kind, H_kind):
            return dataclasses.replace(make_prox_map(g_kind, H_kind),
                                       solve=reference_solve)

        got = run_experiment(spec)
        monkeypatch.setattr(experiments, "make_prox_map", reference_prox_map)
        want = run_experiment(spec)
        assert not got.failures and not want.failures
        for variant in spec.variants:
            for name in ("objective", "eta", "backtracks", "d_hk"):
                a = getattr(got.traces[variant], name)
                b = getattr(want.traces[variant], name)
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), \
                    (variant, name)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 150),
           zeros=st.booleans(), log_eta=st.floats(-3.0, 4.0),
           tiny=st.booleans())
    @example(seed=0, n=100, zeros=False, log_eta=0.0, tiny=True)
    def test_entropic_update_keeps_its_bits(self, seed, n, zeros, log_eta,
                                            tiny):
        r = rng(seed)
        y = r.dirichlet(np.ones(n))
        if zeros:
            y[r.random(n) < 0.3] = 0.0
            if y.max() == 0.0:
                y[0] = 1.0
        if tiny:
            # entries that come out subnormal and must become zeros
            y[r.random(n) < 0.3] = 1e-310
        v = r.standard_normal(n) * 10.0 ** r.integers(-2, 3)
        got = entropic_update(v, y, 10.0 ** log_eta)
        want = reference_entropic_update(v, y, 10.0 ** log_eta)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("v, y", [
        # -eta v ties 0.0 and -0.0 at its maximum, in either order
        ([0.0, -0.0, 1.0, 3.0], [0.25, 0.25, 0.25, 0.25]),
        ([-0.0, 0.0, 2.0], [0.5, 0.25, 0.25]),
        # zeros of y, of both signs, tie at its minimum
        ([0.3, -1.2, 0.7, 2.0], [0.5, 0.0, 0.5, -0.0]),
        ([1.0, 2.0], [-0.0, 1.0]),
        # a tail of subnormal and underflowed entries, all flushed
        ([0.0, 1.0, 720.0, 740.0, 760.0, 1e4], [1 / 6] * 6),
        # an inf in y: inf / inf is NaN, and the -0.0 beside it is flushed
        ([0.0, 1.0, 2.0], [np.inf, 0.5, 0.5]),
        ([0.0, 1.0, 2.0], [np.inf, -0.0, 0.5]),
    ], ids=["shift-tie", "shift-tie-reversed", "zeros", "signed-zero",
            "flushed-tail", "inf", "inf-beside-minus-zero"])
    @pytest.mark.parametrize("eta", [1.0, 0.5])
    def test_extrema_by_argmax_keep_their_bits(self, v, y, eta):
        # entropic_update reads min y, max(-eta v) and, for its flush, the
        # minimum of its output by argmin/argmax; the reference reduces
        v, y = np.array(v), np.array(y)
        with np.errstate(invalid="ignore"):
            got = entropic_update(v, y, eta)
            want = reference_entropic_update(v, y, eta)
        assert got.tobytes() == want.tobytes()


class TestProjectionOverflow:
    """Finite input whose prefix sums overflow projects to a finite point:
    an overflowed prefix sum used to pass every later test, and theta came
    out -inf."""

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("scale", [1e306, 1e307])
    def test_huge_input_projects_to_the_vertex_of_its_largest_entry(
            self, seed, scale):
        z = scale * rng(seed).standard_normal(100)
        vertex = np.zeros(100)
        vertex[np.argmax(z)] = 1.0
        assert simplex_projection(z).tobytes() == vertex.tobytes()

    @pytest.mark.parametrize("z, want", [
        # the first pass's prefix sums overflow
        ([1.0, -1e308, -1e308], [1.0, 0.0, 0.0]),
        # the retry's shift overflows
        ([1e308, -1e308], [1.0, 0.0]),
        ([-1e308, -1e308, -np.inf], [0.5, 0.5, 0.0])])
    def test_overflow_at_the_edges(self, z, want):
        assert simplex_projection(np.array(z)).tolist() == want

    def test_huge_tie_projects_to_the_center(self):
        # every rho that passes the first pass's test has an overflowed sum;
        # with them dropped, no rho is left and the retry projects
        np.testing.assert_allclose(simplex_projection(np.full(100, -1e307)),
                                   np.full(100, 0.01), rtol=1e-15)


class TestProxMapRegistry:
    def test_unsupported_pair_fails_fast(self):
        with pytest.raises(ContractViolation):
            make_prox_map("l1", "entropy")

    @pytest.mark.parametrize("pair", sorted(_REGISTRY))
    @pytest.mark.parametrize("eta", [0.0, -1.0, np.nan, np.inf])
    def test_every_map_rejects_nonpositive_eta(self, pair, eta):
        # a NaN step used to pass: three maps returned NaN with a numpy
        # warning, and the projection raised NumericalFailure
        y = np.full(3, 1 / 3)
        with pytest.raises(ContractViolation,
                           match="^eta must be positive and finite$"):
            make_prox_map(*pair).solve(np.zeros(3), y, eta)

    @pytest.mark.parametrize("g_kind,H_kind,n", [
        ("l1", "quadratic", 5),
        ("simplex", "quadratic", 10),
        ("simplex", "entropy", 5),
    ])
    def test_randomized_global_optimality(self, g_kind, H_kind, n):
        pm = make_prox_map(g_kind, H_kind)
        r = rng(4)
        for _ in range(5):
            v = r.standard_normal(n)
            y = r.dirichlet(np.ones(n)) if g_kind == "simplex" \
                else r.standard_normal(n)
            worst = verify_prox_optimality(pm, v, y, r.uniform(0.1, 2.0))
            assert worst <= 1e-9

    @staticmethod
    def _moved(x):
        # 1e-8 of mass from the largest entry to the smallest positive one
        x, on = x.copy(), np.flatnonzero(x > 0.0)
        x[np.argmax(x)] -= 1e-8
        x[on[np.argmin(x[on])]] += 1e-8
        return x

    @pytest.mark.parametrize("pair,off,n", [
        # a zero entry moved to 1e-8, about 5e-9 above the minimum: a
        # search of sampled points, none nearer than 1e-6, finds no better
        (("l1", "quadratic"), lambda x: np.where(x == 0.0, 1e-8, x), 5),
        # sampled points of the simplex lie far from its minimizer
        (("simplex", "quadratic"), lambda x: 0.99 * x + 0.01 / x.size, 10),
        (("simplex", "entropy"), lambda x: 0.99 * x + 0.01 / x.size, 5),
        # 1e-4 off along a ray, 5e-9 / eta above the minimum: in 200
        # dimensions a sampled direction is nearly orthogonal to it
        (("zero", "quadratic"), lambda x: x + 1e-4 / np.sqrt(x.size), 200),
    ])
    def test_a_perturbed_output_fails(self, pair, off, n):
        pm = make_prox_map(*pair)
        wrong = ProxMap(*pair, lambda v, y, eta: off(pm.solve(v, y, eta)))
        r = rng(11)
        for _ in range(5):
            v = r.standard_normal(n)
            # a small y leaves soft-threshold zeros at these steps
            y = r.dirichlet(np.ones(n)) if pair[0] == "simplex" \
                else 0.1 * r.standard_normal(n)
            eta = r.uniform(0.5, 2.0)
            x = pm.solve(v, y, eta)
            assert not np.array_equal(off(x), x)
            assert verify_prox_optimality(pm, v, y, eta) <= 1e-9
            assert verify_prox_optimality(wrong, v, y, eta) > 1e-9

    def test_a_perturbed_output_with_a_flushed_entry_fails(self):
        # entry 0 of the mirror step underflows and is flushed to 0, which
        # leaves the gap unmoved; it reads the output 1e-8 off on the rest
        pm = make_prox_map("simplex", "entropy")
        v, y = np.array([800.0, 0.0, 0.3, -0.2]), np.full(4, 0.25)
        x = pm.solve(v, y, 1.0)
        assert x[0] == 0.0
        assert verify_prox_optimality(pm, v, y, 1.0) <= 1e-15
        wrong = ProxMap("simplex", "entropy",
                        lambda v, y, eta: self._moved(pm.solve(v, y, eta)))
        assert wrong.solve(v, y, 1.0)[0] == 0.0
        assert verify_prox_optimality(wrong, v, y, 1.0) > 1e-9

    @pytest.mark.parametrize("seed", range(3))
    def test_a_wrongly_zeroed_entry_fails(self, seed):
        # entry 0 zeroed and the rest rescaled: s_j is the same on every
        # other entry, so a gap over supp(x) alone would read 0; the true
        # excess is -ln(1 - x*_0) / eta
        pm = make_prox_map("simplex", "entropy")

        def zeroed(v, y, eta):
            x = pm.solve(v, y, eta)
            x[0] = 0.0
            return x / np.sum(x)

        wrong = ProxMap("simplex", "entropy", zeroed)
        r = rng(seed)
        v, y = r.standard_normal(5), r.dirichlet(np.ones(5))
        eta = r.uniform(0.5, 2.0)
        assert verify_prox_optimality(pm, v, y, eta) <= 1e-9
        with np.errstate(all="raise"):
            assert verify_prox_optimality(wrong, v, y, eta) > 1e-9

    def test_mass_where_y_is_zero_reads_inf(self):
        pm = make_prox_map("simplex", "entropy")
        wrong = ProxMap("simplex", "entropy",
                        lambda v, y, eta: np.full(3, 1 / 3))
        y = np.array([0.5, 0.5, 0.0])
        assert verify_prox_optimality(pm, np.zeros(3), y, 1.0) <= 1e-15
        assert verify_prox_optimality(wrong, np.zeros(3), y, 1.0) == np.inf

    @pytest.mark.parametrize("g_kind,H_kind,n", [
        ("l1", "quadratic", 5),
        ("simplex", "quadratic", 10),
        ("simplex", "entropy", 5),
    ])
    def test_prox_never_increases_objective(self, g_kind, H_kind, n):
        pm = make_prox_map(g_kind, H_kind)
        r = rng(5)
        for _ in range(50):
            v = r.standard_normal(n)
            y = r.dirichlet(np.ones(n)) if g_kind == "simplex" \
                else r.standard_normal(n)
            eta = r.uniform(0.1, 2.0)
            x_plus = pm.solve(v, y, eta)
            assert (prox_objective(pm, x_plus, v, y, eta)
                    <= prox_objective(pm, y, v, y, eta) + 1e-12)

    def test_first_order_optimality_soft_threshold(self):
        # residual of s + v + (x+ - y)/eta = 0 with s in the l1 subdifferential
        pm = make_prox_map("l1", "quadratic")
        r = rng(6)
        for _ in range(50):
            v, y = r.standard_normal((2, 6))
            eta = r.uniform(0.1, 2.0)
            x_plus = pm.solve(v, y, eta)
            s = -(v + (x_plus - y) / eta)
            on = np.abs(x_plus) > 0
            assert np.all(np.abs(s[on] - np.sign(x_plus[on])) <= 1e-8)
            assert np.all(np.abs(s[~on]) <= 1.0 + 1e-8)


class TestStacks:
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), rows=st.integers(1, 30),
           n=st.integers(1, 40))
    def test_stacked_objective_equals_rows(self, seed, rows, n):
        r = rng(seed)
        for g_kind, H_kind in _REGISTRY:
            pm = make_prox_map(g_kind, H_kind)
            v = r.standard_normal(n)
            y = r.dirichlet(np.ones(n)) if g_kind == "simplex" \
                else r.standard_normal(n)
            z = sample_feasible(g_kind, n, r, (rows,))
            if g_kind != "simplex":
                # around y, at scales from 1e-6 to 1 times 1 + ||y||
                z = y + (1.0 + np.linalg.norm(y)) \
                    * 10.0 ** r.uniform(-6, 0, size=(rows, 1)) * z
            assert z.shape == (rows, n)
            if g_kind == "simplex":
                # exact zeros, and one row off the simplex (g = +inf)
                z = np.where(r.random((rows, n)) < 0.3, 0.0, z)
                z[:, 0] += 1e-3
                z /= np.sum(z, axis=-1, keepdims=True)
                z[r.integers(rows)] *= 1.5
            eta = r.uniform(0.1, 2.0)
            whole = prox_objective(pm, z, v, y, eta)
            each = [prox_objective(pm, row, v, y, eta) for row in z]
            assert all(type(e) is float for e in each)
            assert whole.tobytes() == np.array(each).tobytes()

            # F and the proximal-point objective on the same stack
            g = {"l1": l1_norm(), "simplex": simplex_indicator(n),
                 "zero": zero_term()}[g_kind]
            # gamma >= eta keeps h = (1/eta) H - f convex
            p = CompositeProblem(
                shifted_quadratic(r.standard_normal(n),
                                  eta * r.uniform(1.0, 2.0)), g)
            H = squared_euclidean(n) if H_kind == "quadratic" \
                else negative_entropy(n)
            h = composite_generator(H, p.f, eta)
            if g_kind == "simplex":
                # D_h of an entropy H needs every row on the simplex
                z /= np.sum(z, axis=-1, keepdims=True)
            for fn in (lambda x: evaluate_composite(p, x),
                       lambda x: gppa_objective(p, h, x, y)):
                each = [fn(row) for row in z]
                assert all(type(e) is float for e in each)
                assert fn(z).tobytes() == np.array(each).tobytes()
