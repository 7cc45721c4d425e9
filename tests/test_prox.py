import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bregprox import (
    ContractViolation,
    DomainError,
    NumericalFailure,
    entropic_update,
    make_prox_map,
    project_simplex,
    simplex_projection,
    soft_threshold,
    verify_prox_optimality,
)
from bregprox.prox import _REGISTRY, prox_objective, sample_feasible


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


class TestProxMapRegistry:
    def test_unsupported_pair_fails_fast(self):
        with pytest.raises(ContractViolation):
            make_prox_map("l1", "entropy")

    @pytest.mark.parametrize("g_kind,H_kind,n", [
        ("l1", "quadratic", 5),
        ("simplex", "quadratic", 10),
        ("simplex", "entropy", 5),
    ])
    def test_randomized_global_optimality(self, g_kind, H_kind, n):
        pm = make_prox_map(g_kind, H_kind)
        r = rng(4)
        for trial in range(5):
            v = r.standard_normal(n)
            y = r.dirichlet(np.ones(n)) if g_kind == "simplex" \
                else r.standard_normal(n)
            worst = verify_prox_optimality(pm, v, y, r.uniform(0.1, 2.0),
                                           trials=200, seed=trial)
            assert worst <= 1e-9

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
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), rows=st.integers(1, 30),
           n=st.integers(1, 40))
    def test_stacked_objective_equals_rows(self, seed, rows, n):
        r = rng(seed)
        for g_kind, H_kind in _REGISTRY:
            pm = make_prox_map(g_kind, H_kind)
            v = r.standard_normal(n)
            y = r.dirichlet(np.ones(n)) if g_kind == "simplex" \
                else r.standard_normal(n)
            z = sample_feasible(g_kind, y, r, size=rows)
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
