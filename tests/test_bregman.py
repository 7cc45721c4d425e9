import dataclasses
import logging

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bregprox import bregman
from bregprox import (
    DomainError,
    HypothesisViolation,
    bregman_distance,
    check_linearity,
    check_three_point,
    composite_generator,
    l1_norm,
    least_squares,
    negative_entropy,
    shifted_quadratic,
    simplex_indicator,
    squared_euclidean,
    verify_proximal_distance_axioms,
    zero_function,
    zero_term,
)
from bregprox.bregman import half_squared_distance, kl_divergence, \
    reference_distance
from bregprox.functions import check_gradient, SmoothFunction


def rng(seed=0):
    return np.random.Generator(np.random.Philox(seed))


def assert_rows_match(fn, *stacks):
    """fn on (rows, n) stacks equals fn row by row, bit for bit; a scalar
    result comes back as a Python float for a single row."""
    whole = np.asarray(fn(*stacks))
    rows = [fn(*(s[i] for s in stacks)) for i in range(len(stacks[0]))]
    if whole.ndim == 1:
        assert all(type(r) is float for r in rows)
    assert whole.tobytes() == np.array(rows).tobytes()


def assert_rows_close(fn, scale, *stacks):
    """As assert_rows_match, but within 1e-14 of ``scale``, the size the
    result would have if no terms cancelled: A applied to a stack (a matrix
    product) rounds unlike A applied to each row (matrix-vector)."""
    whole = np.asarray(fn(*stacks))
    rows = [fn(*(s[i] for s in stacks)) for i in range(len(stacks[0]))]
    assert all(type(r) is float for r in rows)
    assert np.all(np.abs(whole - rows) <= 1e-14 * scale)


def simplex_rows(r, rows, n, zeros=False):
    """Rows on the simplex; with ``zeros``, about a third of the entries
    of each row (never its first) set exactly to zero."""
    x = r.dirichlet(np.ones(n), size=rows)
    if zeros:
        mask = r.random((rows, n)) < 0.3
        mask[:, 0] = False
        x = np.where(mask, 0.0, x)
        x /= np.sum(x, axis=-1, keepdims=True)
    return x


class TestStacks:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), rows=st.integers(1, 30),
           n=st.integers(1, 40))
    def test_stacked_call_equals_rows(self, seed, rows, n):
        r = rng(seed)
        x, y = r.standard_normal((2, rows, n))
        p = simplex_rows(r, rows, n, zeros=True)
        q = simplex_rows(r, rows, n)
        hq, he = squared_euclidean(n), negative_entropy(n)
        assert_rows_match(half_squared_distance, x, y)
        assert_rows_match(kl_divergence, p, q)
        assert_rows_match(hq.value, x)
        assert_rows_match(hq.grad, x)
        assert_rows_match(he.value, p)
        assert_rows_match(he.grad, q)
        for h, a, b in ((hq, x, y), (he, p, q)):
            assert_rows_match(lambda a, b: bregman_distance(h, a, b), a, b)
            assert_rows_match(lambda a, b: reference_distance(h, a, b), a, b)
        for f in (shifted_quadratic(r.standard_normal(n), r.uniform(0.1, 2)),
                  zero_function(n)):
            assert_rows_match(f.value, x)
            assert_rows_match(f.distance, x, y)
        m = int(r.integers(1, 2 * n + 1))
        A, b = r.standard_normal((m, n)), r.standard_normal(m)
        ls, size = least_squares(A, b), least_squares(abs(A), -abs(b))
        assert_rows_close(ls.value, size.value(abs(x)), x)
        assert_rows_close(ls.distance, size.distance(abs(x - y), 0 * y), x, y)
        # rows on the simplex (g = 0) mixed with rows off it (g = +inf)
        mixed = np.where(r.random((rows, 1)) < 0.5, p, x)
        for g in (l1_norm(), simplex_indicator(n), zero_term()):
            assert_rows_match(g.value, mixed)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), rows=st.integers(1, 30),
           n=st.integers(2, 12))
    def test_one_row_off_the_simplex_rejects_the_stack(self, seed, rows, n):
        r = rng(seed)
        he = negative_entropy(n)
        p, q = simplex_rows(r, rows, n, zeros=True), simplex_rows(r, rows, n)
        bregman_distance(he, p, q)
        k = r.integers(rows)
        off = p.copy()
        off[k] *= 1.01
        with pytest.raises(DomainError):
            bregman_distance(he, off, q)
        boundary = q.copy()
        boundary[k] = p[k] if np.min(p[k]) == 0.0 else np.eye(n)[0]
        with pytest.raises(DomainError):
            bregman_distance(he, p, boundary)


class TestBregmanDistance:
    def test_quadratic_reduces_to_half_sq_dist(self):
        h = squared_euclidean(2)
        d = bregman_distance(h, np.array([1.0, 2.0]), np.zeros(2))
        assert d == pytest.approx(2.5)

    def test_zero_at_equal_points(self):
        for h, x in [(squared_euclidean(3), np.ones(3)),
                     (negative_entropy(3), np.full(3, 1 / 3))]:
            assert abs(bregman_distance(h, x, x)) <= 1e-12

    def test_entropy_is_kl_divergence(self):
        h = negative_entropy(2)
        x = np.array([0.5, 0.5])
        y = np.array([0.25, 0.75])
        kl = float(np.sum(x * np.log(x / y)))  # independent KL formula
        assert bregman_distance(h, x, y) == pytest.approx(kl, abs=1e-14)
        assert kl == pytest.approx(0.5 * np.log(2) + 0.5 * np.log(2 / 3))

    @pytest.mark.parametrize("scale", [9e-4, 1e-4, 1e-6, 1e-8, 1e-10])
    def test_kl_is_exact_at_near_ties(self, scale):
        # x = y (1 + t) with |t| near ``scale``: x ln(x/y) - (x - y) cancels
        # to y t^2 / 2, so a value exact only to eps |x - y| per term would
        # be off by about eps / |t| relative
        mpmath = pytest.importorskip("mpmath")
        r = rng(21)
        for _ in range(20):
            y = r.dirichlet(np.ones(50))
            x = y * (1.0 + scale * r.uniform(-1.0, 1.0, size=50))
            with mpmath.workdps(60):
                want = sum(mpmath.mpf(a) * mpmath.log(mpmath.mpf(a)
                                                      / mpmath.mpf(c))
                           - mpmath.mpf(a) + mpmath.mpf(c)
                           for a, c in zip(x, y))
                err = abs((kl_divergence(x, y) - want) / want)
            assert err <= 1e-14

    def test_quadratic_exact_half_sq_everywhere(self):
        h = squared_euclidean(6)
        r = rng(4)
        for _ in range(100):
            x, y = r.standard_normal((2, 6))
            want = 0.5 * float(np.sum((x - y) ** 2))
            assert bregman_distance(h, x, y) == pytest.approx(want, rel=1e-14)

    def test_nonnegativity_sampled(self):
        r = rng(5)
        hq = squared_euclidean(4)
        he = negative_entropy(4)
        for _ in range(500):
            assert bregman_distance(hq, r.standard_normal(4),
                                    r.standard_normal(4)) >= -1e-12
            assert bregman_distance(he, r.dirichlet(np.ones(4)),
                                    r.dirichlet(np.ones(4))) >= -1e-12

    def test_boundary_gradient_point_rejected(self):
        h = negative_entropy(3)
        with pytest.raises(DomainError):
            bregman_distance(h, np.full(3, 1 / 3), np.array([1.0, 0.0, 0.0]))

    def test_point_outside_closure_rejected(self):
        h = negative_entropy(3)
        with pytest.raises(DomainError):
            bregman_distance(h, np.array([1.0, 1.0, -1.0]), np.full(3, 1 / 3))

    def test_generator_gradients_match_finite_differences(self):
        r = rng(6)
        hq = squared_euclidean(5)
        fq = SmoothFunction(hq.value, hq.grad, 5)
        for _ in range(10):
            assert check_gradient(fq, r.standard_normal(5)) <= 1e-5
        he = negative_entropy(5)
        for _ in range(10):
            # the entropy value oracle lives on the simplex, so differentiate
            # along simplex-tangent directions (sum-zero perturbations)
            x = r.dirichlet(np.ones(5)) * 0.9 + 0.02
            g = he.grad(x)
            for _ in range(5):
                d = r.standard_normal(5)
                d -= np.mean(d)
                eps = 1e-6
                fd = (he.value(x + eps * d) - he.value(x - eps * d)) / (2 * eps)
                want = float(np.dot(g, d))
                assert abs(fd - want) / (1 + abs(want)) <= 1e-5


class TestStrongConvexity:
    def test_quadratic_modulus_one(self):
        h = squared_euclidean(4)
        r = rng(9)
        for _ in range(200):
            x, y = r.standard_normal((2, 4))
            inner = np.dot(h.grad(x) - h.grad(y), x - y)
            assert inner >= np.sum((x - y) ** 2) - 1e-10

    def test_entropy_modulus_one_on_simplex(self):
        # Hessian diag(1/x_i) dominates the identity on the simplex
        h = negative_entropy(5)
        r = rng(10)
        for _ in range(200):
            x, y = r.dirichlet(np.ones(5)), r.dirichlet(np.ones(5))
            inner = np.dot(h.grad(x) - h.grad(y), x - y)
            assert inner >= np.sum((x - y) ** 2) - 1e-10

    def test_strict_convexity_sampled(self):
        r = rng(11)
        for h, sample in [
            (squared_euclidean(3), lambda: r.standard_normal(3)),
            (negative_entropy(3), lambda: r.dirichlet(np.ones(3))),
        ]:
            for _ in range(100):
                x, y = sample(), sample()
                if np.linalg.norm(x - y) < 1e-3:
                    continue
                lam = r.uniform(0.1, 0.9)
                mid = lam * x + (1 - lam) * y
                gap = lam * h.value(x) + (1 - lam) * h.value(y) - h.value(mid)
                assert gap >= 1e-12


class TestCompositeGenerator:
    def test_zero_smooth_term_reduces_to_scaled_h(self):
        H = squared_euclidean(3)
        h = composite_generator(H, zero_function(3), 1.0)
        r = rng(12)
        for _ in range(20):
            x = r.standard_normal(3)
            assert h.value(x) == pytest.approx(H.value(x))
            np.testing.assert_allclose(h.grad(x), H.grad(x))

    def test_degenerate_flat_composite(self):
        # H = 1/2||.||^2, f = 1/(2 gamma)||x-b||^2, eta = gamma: the induced
        # distance collapses to zero identically (the one-step regime)
        gamma = 0.8
        b = np.array([1.0, -2.0, 0.5])
        f = shifted_quadratic(b, gamma)
        h = composite_generator(squared_euclidean(3), f, gamma)
        r = rng(13)
        for _ in range(50):
            x, y = r.standard_normal((2, 3))
            assert abs(bregman_distance(h, x, y)) <= 1e-12

    def test_entropy_composite_monotone_gradient(self):
        r = rng(14)
        A = r.standard_normal((6, 5))
        L = float(np.linalg.eigvalsh(A.T @ A)[-1])
        f = least_squares(A, r.standard_normal(6), lipschitz=L)
        eta = 1.0 / L  # eta = gamma, recorded sigma = 1 covers it
        h = composite_generator(negative_entropy(5), f, eta)
        for _ in range(1000):
            x, y = r.dirichlet(np.ones(5)), r.dirichlet(np.ones(5))
            assert np.dot(np.asarray(h.grad(x)) - np.asarray(h.grad(y)),
                          x - y) >= -1e-10

    def test_hypothesis_violation_raises(self):
        f = shifted_quadratic(np.zeros(2), 1.0)  # L = 1
        with pytest.raises(HypothesisViolation):
            composite_generator(squared_euclidean(2), f, eta=2.0)
        # unchecked construction is allowed for negative testing
        composite_generator(squared_euclidean(2), f, eta=2.0, unchecked=True)

    def test_norm_caveat_logged_once_per_kind(self, caplog, monkeypatch):
        monkeypatch.setattr(bregman, "_NORM_CAVEAT_LOGGED", set())
        f = shifted_quadratic(np.zeros(3), 1.0)  # L = 1, eta = 1 is allowed
        with caplog.at_level(logging.WARNING, logger="bregprox.bregman"):
            for _ in range(3):
                composite_generator(negative_entropy(3), f, 1.0)
                composite_generator(squared_euclidean(3), f, 1.0)
        caveats = [m for m in caplog.messages if "norm" in m]
        assert len(caveats) == 1
        assert "entropy generator" in caveats[0]


class TestThreePoint:
    def test_coincident_points(self):
        h = squared_euclidean(3)
        a = np.ones(3)
        assert check_three_point(h, a, a, a) <= 1e-14

    def test_quadratic_random_triples(self):
        h = squared_euclidean(3)
        r = rng(15)
        for _ in range(200):
            a, b, c = r.standard_normal((3, 3))
            assert check_three_point(h, a, b, c) <= 1e-12

    def test_entropy_random_triples(self):
        h = negative_entropy(5)
        r = rng(16)
        for _ in range(200):
            a, b, c = (r.dirichlet(np.ones(5)) for _ in range(3))
            assert check_three_point(h, a, b, c) <= 1e-10


class TestLinearity:
    def test_doubled_quadratic(self):
        h = squared_euclidean(2)
        a, b = np.array([1.0, 2.0]), np.array([0.0, -1.0])
        assert check_linearity(h, h, a, b) <= 1e-14

    def test_quadratic_plus_entropy(self):
        r = rng(17)
        hq = squared_euclidean(4)
        he = negative_entropy(4)
        for _ in range(100):
            a, b = r.dirichlet(np.ones(4)), r.dirichlet(np.ones(4))
            assert check_linearity(hq, he, a, b) <= 1e-12

    def test_subtraction_matches_composite(self):
        # D_{(1/eta)H} - D_f = D_{(1/eta)H - f}
        r = rng(18)
        A = r.standard_normal((5, 4))
        L = float(np.linalg.eigvalsh(A.T @ A)[-1])
        f = least_squares(A, r.standard_normal(5), lipschitz=L)
        eta = 0.5 / L
        H = squared_euclidean(4)
        h = composite_generator(H, f, eta)
        for _ in range(100):
            x, y = r.standard_normal((2, 4))
            lhs = (bregman_distance(H, x, y) / eta
                   - (f.value(x) - f.value(y) - np.dot(x - y, f.grad(y))))
            assert abs(lhs - bregman_distance(h, x, y)) <= 1e-10


class TestProximalDistanceAxioms:
    def test_quadratic_passes_all(self):
        res = verify_proximal_distance_axioms(squared_euclidean(3),
                                              samples=300, seed=0)
        assert res.all_hold()

    def test_entropy_passes_all(self):
        res = verify_proximal_distance_axioms(negative_entropy(4),
                                              samples=300, seed=1)
        assert res.all_hold()

    def test_degenerate_composite_fails_identity(self):
        gamma = 1.0
        f = shifted_quadratic(np.array([2.0, -1.0]), gamma)
        h = composite_generator(squared_euclidean(2), f, gamma)
        res = verify_proximal_distance_axioms(h, samples=300, seed=2)
        assert res.nonnegativity_holds
        assert not res.identity_of_indiscernibles_holds
        assert not res.bounded_level_set_holds

    @pytest.mark.parametrize("planted,axiom", [
        (-1e-9, "nonnegativity_holds"),
        (0.0, "identity_of_indiscernibles_holds"),
    ])
    def test_one_faulty_row_fails_its_axiom(self, planted, axiom):
        """Each axiom holds only if it holds on every row of its stack."""
        def distance(x, y):
            d = np.array(half_squared_distance(x, y), ndmin=1)
            if d.size > 137:
                d[137] = planted
            return d if d.size > 1 else float(d[0])

        h = dataclasses.replace(squared_euclidean(3), distance=distance)
        res = verify_proximal_distance_axioms(h, samples=300, seed=0)
        assert not getattr(res, axiom)
        assert res.convex_in_first_arg_holds and res.bounded_level_set_holds

    def test_healthy_composite_passes(self):
        gamma = 1.0
        f = shifted_quadratic(np.array([2.0, -1.0]), gamma)
        h = composite_generator(squared_euclidean(2), f, gamma / 2)
        res = verify_proximal_distance_axioms(h, samples=300, seed=3)
        assert res.all_hold()
