import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from bregprox import (
    ContractViolation,
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
    zero_function,
    zero_term,
)
from bregprox.bregman import accepts, half_squared_distance, \
    kl_divergence, reference_distance


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


def reference_kl_divergence(x, y):
    """kl_divergence as it was before its fast paths: the bits it must
    keep."""
    s = x > 0.0
    xs, ys = np.where(s, x, 1.0), np.where(s, y, 1.0)
    d = xs - ys
    t = d / ys
    log_ratio = np.where(t > -0.5, np.log1p(np.maximum(t, -0.5)),
                         np.log(xs / ys))
    term = xs * log_ratio - d
    near = np.abs(t) < 1e-3
    tn = t[near]
    term[near] = ys[near] * tn * tn * (0.5 + tn * (-1 / 6 + tn * (
        1 / 12 + tn * (-1 / 20 + tn / 30))))
    r = np.where(s, term, y).sum(axis=-1)
    return r if r.ndim else float(r)


KL_KINDS = ["random", "some_near", "all_near", "far_below", "zeros"]


def kl_input(r, shape, kind):
    """(x, y) with y > 0 and x >= 0 of ``shape``: random simplex points, ties
    |t| < 1e-3 (t = x / y - 1) in part or everywhere, t <= -0.5 in part,
    or exact zeros in x."""
    y = r.dirichlet(np.ones(shape[-1]), size=shape[:-1])
    t = r.uniform(-0.9, 2.0, size=shape)
    if kind == "random":
        x = r.dirichlet(np.ones(shape[-1]), size=shape[:-1])
        return x, y
    if kind in ("some_near", "all_near"):
        near = r.random(shape) < (0.5 if kind == "some_near" else 2.0)
        t = np.where(near, r.uniform(-1e-3, 1e-3, size=shape)
                     * 10.0 ** r.integers(-12, 1, size=shape), t)
    elif kind == "far_below":
        t = np.where(r.random(shape) < 0.3, -1.0 + 10.0 ** r.uniform(
            -12, np.log10(0.5), size=shape), t)
    x = y * (1.0 + t)
    if kind == "zeros":
        x[r.random(shape) < 0.3] = 0.0
    return x, y


class TestKlBits:
    """kl_divergence's fast paths change no output bit."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 150),
           rows=st.integers(0, 6), kind=st.sampled_from(KL_KINDS),
           layout=st.sampled_from(["same", "stack_vector", "vector_stack"]))
    @example(seed=0, n=100, rows=0, kind="all_near", layout="same")
    @example(seed=1, n=6, rows=6, kind="far_below", layout="stack_vector")
    def test_kl_divergence_keeps_its_bits(self, seed, n, rows, kind, layout):
        # rows 0 is a vector; a stack is (rows, n), compared with a vector y
        # (as prox_objective calls it) or a vector x with a stack y
        r = rng(seed)
        x, y = kl_input(r, (rows, n) if rows else (n,), kind)
        if rows and layout == "stack_vector":
            y = y[0]
        elif rows and layout == "vector_stack":
            x = x[0]
        got = np.asarray(kl_divergence(x, y))
        want = np.asarray(reference_kl_divergence(x, y))
        assert type(kl_divergence(x, y)) is type(reference_kl_divergence(x, y))
        assert got.tobytes() == want.tobytes()

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 120),
           rows=st.integers(2, 12))
    @example(seed=3, n=100, rows=10)
    def test_mixed_rows_of_a_stack_keep_their_bits(self, seed, n, rows):
        # a stack is worked on as one flat vector: zeros of x, near ties
        # and t <= -0.5 sit in different rows, and each row's series terms
        # must go back to that row, as the reference and the row calls give
        r = rng(seed)
        kinds = [KL_KINDS[i % len(KL_KINDS)] for i in range(rows)]
        r.shuffle(kinds)
        x, y = np.empty((2, rows, n))
        for i, kind in enumerate(kinds):
            x[i], y[i] = kl_input(r, (n,), kind)
        got = kl_divergence(x, y)
        assert got.tobytes() == reference_kl_divergence(x, y).tobytes()
        assert got.tobytes() == np.array(
            [kl_divergence(a, b) for a, b in zip(x, y)]).tobytes()

    @pytest.mark.parametrize("x, y", [
        # min t exactly -0.5, and just above it
        ([0.5, 1.0, 2.0], [1.0, 1.0, 1.0]),
        ([0.5000000000000001, 1.0, 2.0], [1.0, 1.0, 1.0]),
        # a NaN in t, through y and through x; x's signed zeros
        ([0.5, 0.25, 0.25], [np.nan, 0.5, 0.5]),
        ([np.nan, 0.5, 0.5], [0.5, 0.25, 0.25]),
        ([-0.0, 0.0, 1.0], [0.25, 0.25, 0.5]),
        # empty: a vector and a stack of no rows
        (np.empty(0), np.empty(0)),
        (np.empty((0, 3)), np.empty((0, 3))),
    ], ids=["t-at-half", "t-above-half", "nan-in-y", "nan-in-x",
            "signed-zeros", "empty", "empty-stack"])
    def test_argmin_tests_keep_their_bits(self, x, y):
        # the minima of x and of t decide the fast paths by argmin, where
        # the reference takes none of them
        x, y = np.array(x), np.array(y)
        got, want = kl_divergence(x, y), reference_kl_divergence(x, y)
        assert type(got) is type(want)
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()

    def test_zeros_of_y_under_zeros_of_x_keep_their_bits(self):
        # mirror iterates hold exact zeros that stay zero, so a distance
        # between two of them meets x = y = 0 entries
        x = np.array([0.5, 0.0, 0.5, 0.0])
        y = np.array([0.25, 0.0, 0.75, 0.0])
        assert kl_divergence(x, y) == reference_kl_divergence(x, y)
        assert kl_divergence(y, y) == reference_kl_divergence(y, y) == 0.0


class TestStacks:
    @settings(max_examples=60, deadline=None, derandomize=True)
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

    @settings(max_examples=30, deadline=None, derandomize=True)
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

    @pytest.mark.parametrize("H", [squared_euclidean(3),
                                   negative_entropy(3)])
    def test_point_of_another_length_rejected(self, H):
        x = np.full(3, 1 / 3)
        with pytest.raises(DomainError, match="^first argument"):
            bregman_distance(H, np.full(2, 0.5), x)
        with pytest.raises(DomainError, match="^second argument"):
            bregman_distance(H, x, np.full((4, 2), 0.5))

    def test_entropy_value_is_infinite_off_its_dimension(self):
        he = negative_entropy(3)
        assert he.value(np.full(2, 0.5)) == np.inf
        assert he.value(np.full((4, 2), 0.5)) == np.inf

    def test_entropy_gradient_matches_finite_differences(self):
        r = rng(6)
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
        eta = 1.0 / L  # eta = gamma; sigma = 1 in l2 covers it
        h = composite_generator(negative_entropy(5), f, eta)
        for _ in range(1000):
            x, y = r.dirichlet(np.ones(5)), r.dirichlet(np.ones(5))
            assert np.dot(np.asarray(h.grad(x)) - np.asarray(h.grad(y)),
                          x - y) >= -1e-10

    def test_hypothesis_violation_raises(self):
        f = shifted_quadratic(np.zeros(2), 1.0)  # L = 1
        with pytest.raises(HypothesisViolation):
            composite_generator(squared_euclidean(2), f, eta=2.0)

    @pytest.mark.parametrize("H", [squared_euclidean(3),
                                   negative_entropy(3)])
    def test_sigma_is_one_by_the_per_step_test(self, H):
        # both kinds have sigma = 1 in l2, so the a-priori test is the
        # per-step one at 1 / eta against L: it admits eta L up to
        # (1 + ACCEPT_TOL) / (1 - ACCEPT_TOL), about 1 + 2e-12
        f = shifted_quadratic(np.array([0.2, 0.3, 0.5]), 0.25)  # L = 4
        L, verdicts = f.lipschitz_grad, {}
        for j in range(-30, 31):
            eta = (1.0 + j * 1e-13) / L
            try:
                composite_generator(H, f, eta)
                verdicts[j] = True
            except HypothesisViolation:
                verdicts[j] = False
            assert verdicts[j] == accepts(1.0 / eta, L)
        assert verdicts[1] and verdicts[15] and not verdicts[25]
        with pytest.raises(HypothesisViolation,
                           match=r"^sigma = 1\.0 < eta \* L = 1\.0000000000"
                                 r"\d*; composite generator not convex$"):
            composite_generator(H, f, (1.0 + 1e-11) / L)

    @pytest.mark.parametrize("eta", [0.0, -1.0, np.nan, np.inf])
    def test_nonpositive_eta_rejected(self, eta):
        # a NaN step used to raise HypothesisViolation on eta * L = nan
        f = shifted_quadratic(np.zeros(2), 1.0)
        with pytest.raises(ContractViolation,
                           match="^eta must be positive and finite$"):
            composite_generator(squared_euclidean(2), f, eta)

    def test_smooth_term_needs_distance_and_lipschitz_constant(self):
        f = shifted_quadratic(np.zeros(2), 1.0)
        with pytest.raises(ContractViolation, match="no closed-form distance"):
            composite_generator(squared_euclidean(2),
                                dataclasses.replace(f, distance=None), 0.5)
        with pytest.raises(HypothesisViolation,
                           match="Lipschitz constant of f is required"):
            composite_generator(squared_euclidean(2),
                                dataclasses.replace(f, lipschitz_grad=None),
                                0.5)

    def test_composite_H_is_not_strongly_convex(self):
        f = shifted_quadratic(np.zeros(2), 1.0)
        h = composite_generator(squared_euclidean(2), f, 0.5)
        with pytest.raises(HypothesisViolation,
                           match="^H must be strongly convex$"):
            composite_generator(h, f, 0.5)


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

    @pytest.mark.parametrize("rows", [None, 1, 4])
    @pytest.mark.parametrize("faults", [
        {"c"}, {"a"}, {"b"}, {"c", "a"}, {"c", "b"}, {"a", "b"},
        {"c", "a", "b"}])
    def test_domain_errors_are_the_distances(self, rows, faults):
        # c off the simplex, a or b on its boundary: the error is the one
        # the three bregman_distance calls of the identity raise, in their
        # order, for a vector (rows None) and for one bad row of a stack
        h = negative_entropy(3)
        r = rng(19)
        shape = (3,) if rows is None else (rows, 3)
        a, b, c = (r.dirichlet(np.ones(3), size=shape[:-1]) for _ in range(3))
        at = () if rows is None else (rows - 1,)
        if "c" in faults:
            c[at + (0,)] += 0.1
        for name, p in (("a", a), ("b", b)):
            if name in faults:
                p[at] = [0.0, 0.5, 0.5]
        with pytest.raises(DomainError) as want:
            (bregman_distance(h, c, a), bregman_distance(h, a, b),
             bregman_distance(h, c, b))
        first = "first argument" if "c" in faults else "second argument"
        with pytest.raises(DomainError, match=f"^{first}") as got:
            check_three_point(h, a, b, c)
        assert str(got.value) == str(want.value)


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
