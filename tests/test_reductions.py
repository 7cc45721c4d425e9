"""The one row-reduction kernel, ``functions.row_sum``.

Every value, distance and domain check sums the last axis through the
kernel, which must give the bits of numpy's ufunc reduction on every shape
and layout; the one other reduction of the last axis is the per-row
minimum of ``functions.on_simplex``.  The rerouted oracles are compared
with their bodies as they were before the kernel (kept below as
``reference_*``), and each stacked call with its row-by-row calls.  A parse of the sources guards that no
other reduction of the last axis appears, that the code run per candidate
or per block calls no numpy function whose Python wrapper costs more than
its C entry point, that six more rules and values keep one coding each
(among them the forward step and the positivity floor), that
optimality is checked by one exact gap, not by a search of sampled points,
that random draws are made only by the identity suites and the problem
builders, that every definition nothing calls is named public API, and
that no module but the command line's prints, warns or logs.
"""

import ast
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from bregprox import (NonsmoothTerm, check_three_point, least_squares,
                      negative_entropy, probability_simplex,
                      shifted_quadratic, squared_euclidean)
from bregprox import functions
from bregprox.bregman import (half_squared_distance, kl_divergence,
                              reference_distance)
from bregprox.functions import (FLUSH_ENTRIES, NONSMOOTH_VALUES,
                                SIMPLEX_MEMBER_MIN, SIMPLEX_SUM_TOL,
                                SMALLEST_NORMAL, on_simplex, per_row,
                                row_sum)
from bregprox.prox import _REGISTRY, prox_objective

SRC = Path(__file__).resolve().parent.parent / "src" / "bregprox"

SPECIALS = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 5e-324,
                     -5e-324, 2.2e-308, 1e308, -1e308])


def rng(seed=0):
    return np.random.Generator(np.random.Philox(seed))


def mixed_values(r, shape, share):
    """Normal draws at scales from 1e-300 to 1e300, about ``share`` of them
    replaced by +-0, NaN, +-inf, subnormals or +-1e308."""
    x = r.standard_normal(shape) * 10.0 ** r.integers(-300, 301, size=shape)
    hit = r.random(shape) < share
    x[hit] = r.choice(SPECIALS, size=np.count_nonzero(hit))
    return x


def laid_out(x, layout):
    """x with the same values in C order, F order, as a strided view, or
    as (A y^T)^T: a transposed matrix product, as least squares forms it."""
    if layout == "F":
        return np.asfortranarray(x)
    if layout == "strided":
        wide = np.empty((2 * x.shape[0], 3 * x.shape[1]))
        wide[::2, ::3] = x
        return wide[::2, ::3]
    if layout == "matmul":
        # A = I keeps the values; numpy still returns the product's layout
        return (np.eye(x.shape[-1]) @ x.T).T
    return x


def same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


class TestKernelBits:
    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 12),
           rows=st.one_of(st.sampled_from([None, 0, 1]),
                          st.integers(2, 3000)),
           share=st.sampled_from([0.0, 0.05, 0.3, 1.0]),
           layout=st.sampled_from(["C", "F", "strided", "matmul"]))
    @example(seed=0, n=1, rows=5, share=1.0, layout="C")
    @example(seed=1, n=7, rows=3000, share=0.3, layout="strided")
    @example(seed=2, n=8, rows=100, share=0.3, layout="C")
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_gives_the_ufunc_bits(self, seed, n, rows, share, layout):
        # rows None is a 1-D vector; n crosses numpy's 8-wide pairwise block
        r = rng(seed)
        x = mixed_values(r, (n,) if rows is None else (rows, n), share)
        if rows is not None:
            x = laid_out(x, layout)
        same_bits(row_sum(x), np.add.reduce(x, axis=-1))

    @pytest.mark.parametrize("n", range(1, 8))
    def test_a_lone_negative_zero_sums_to_zero(self, n):
        x = np.full((3, n), -0.0)
        same_bits(row_sum(x), np.add.reduce(x, axis=-1))
        assert not np.signbit(row_sum(x)).any()

    @pytest.mark.parametrize("rows", [1, 2, 5])
    @pytest.mark.parametrize("row", [[np.nan, -np.nan], [-np.nan, np.nan],
                                     [-np.nan, 1.0], [1.0, -np.nan, np.nan],
                                     [np.inf, -np.inf, np.nan]])
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_which_nan_comes_out(self, rows, row):
        # numpy's loops differ in which NaN of two they pass on, and the NaN
        # of a row holds its sign bit
        for x in (np.array([row] * rows), np.asfortranarray([row] * rows)):
            same_bits(row_sum(x), np.add.reduce(x, axis=-1))

    def test_results_are_new_arrays(self):
        x = np.ones((4, 1))
        out = row_sum(x)
        out[:] = 7.0
        assert (x == 1.0).all()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_other_shapes_and_types_go_to_the_ufunc(self):
        for x in ([[1.0, -0.0], [np.nan, 2.0]], np.arange(12).reshape(3, 4),
                  np.ones((2, 3, 4)), np.ones((5, 0)),
                  np.ones((3, 5), dtype=np.float32)):
            same_bits(row_sum(x), np.add.reduce(x, axis=-1))


# The rerouted oracles as they were before the kernel: the bits they keep.

def reference_on_simplex(x, floor=SIMPLEX_MEMBER_MIN):
    return (np.minimum.reduce(x, axis=-1) >= floor) & \
        (abs(np.add.reduce(x, axis=-1) - 1.0) <= SIMPLEX_SUM_TOL)


def reference_contains(x, floor):
    return bool(np.minimum.reduce(x, axis=None, initial=np.inf) >= floor
                and (abs(np.add.reduce(x, axis=-1) - 1.0)
                     <= SIMPLEX_SUM_TOL).all())


def reference_l1(x):
    return per_row(np.sum(np.abs(x), axis=-1))


def reference_least_squares(A, b):
    return (lambda x: per_row(0.5 * np.sum(((A @ x.T).T - b) ** 2, axis=-1)),
            lambda x, y: per_row(
                0.5 * np.sum((A @ (x - y).T).T ** 2, axis=-1)))


def reference_shifted_quadratic(b, gamma):
    return (lambda x: per_row(0.5 / gamma * np.sum((x - b) ** 2, axis=-1)),
            lambda x, y: per_row(
                0.5 / gamma * np.sum((x - y) ** 2, axis=-1)))


def reference_half_squared_distance(x, y):
    return per_row(0.5 * np.sum((x - y) ** 2, axis=-1))


def reference_squared_euclidean_value(x):
    return per_row(0.5 * np.sum(np.square(x), axis=-1))


def reference_negative_entropy_value(x):
    x = np.asarray(x, dtype=float)
    s = x > 0.0
    xlogx = np.where(s, x * np.log(np.where(s, x, 1.0)), 0.0)
    return per_row(np.where(reference_on_simplex(x), np.sum(xlogx, axis=-1),
                            np.inf))


def reference_reference_distance(h, x, y):
    return per_row(h.value(x) - h.value(y)
                   - np.sum((x - y) * h.grad(y), axis=-1))


def reference_three_point_rhs(h, a, b, c):
    return np.sum((np.asarray(h.grad(b)) - np.asarray(h.grad(a))) * (c - a),
                  axis=-1)


def reference_prox_objective(g_kind, H_kind, x, v, y, eta):
    g = {"l1": reference_l1, "zero": lambda x: per_row(
        np.zeros(np.shape(x)[:-1])), "simplex": lambda x: per_row(
        np.where(reference_on_simplex(x), 0.0, np.inf))}[g_kind]
    distance = {"quadratic": half_squared_distance,
                "entropy": kl_divergence}[H_kind]
    return per_row(g(x) + np.sum(x * v, axis=-1) + distance(x, y) / eta)


def rows_match(fn, *stacks):
    """fn on C-ordered stacks, as the package forms them, equals fn row by
    row, bit for bit.  (numpy reduces an F-ordered stack of rows of 8 or
    more entries column by column but each row pairwise, kernel or not.)"""
    stacks = [np.ascontiguousarray(s) for s in stacks]
    whole = np.asarray(fn(*stacks))
    rows = [fn(*(s[i] for s in stacks)) for i in range(len(stacks[0]))]
    assert whole.tobytes() == np.array(rows, dtype=whole.dtype).tobytes()


def simplex_points(r, rows, n):
    """Rows on the simplex, some with exact zeros, some just off it."""
    x = r.dirichlet(np.ones(n), size=rows)
    x[r.random((rows, n)) < 0.2] = 0.0
    x /= np.where(x.sum(axis=-1, keepdims=True) > 0.0,
                  x.sum(axis=-1, keepdims=True), 1.0)
    off = r.random(rows) < 0.2
    x[off, 0] += 10.0 ** r.uniform(-12, -6, size=np.count_nonzero(off))
    return x


ORACLE_SETTINGS = dict(max_examples=60, deadline=None, derandomize=True)
ORACLE_ARGS = dict(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 12),
                   rows=st.integers(0, 40))


class TestReroutedOracles:
    @settings(**ORACLE_SETTINGS)
    @given(**ORACLE_ARGS, layout=st.sampled_from(["C", "F", "strided"]))
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_domain_checks(self, seed, n, rows, layout):
        r = rng(seed)
        x = laid_out(simplex_points(r, rows, n), layout)
        if rows:
            x[r.integers(rows), r.integers(n)] = r.choice(SPECIALS)
        # a copy with every entry at or above both floors, its off-sum rows
        # kept, takes on_simplex's whole-stack path
        lifted = laid_out(np.fmax(x, SMALLEST_NORMAL), layout)
        domain = probability_simplex(n)
        for s in (x, lifted):
            for floor in (SIMPLEX_MEMBER_MIN, SMALLEST_NORMAL):
                same_bits(on_simplex(s, floor),
                          reference_on_simplex(s, floor))
            assert domain.member(s) == \
                reference_contains(s, SIMPLEX_MEMBER_MIN)
            assert domain.interior(s) == \
                reference_contains(s, SMALLEST_NORMAL)
            rows_match(on_simplex, s)
            rows_match(NONSMOOTH_VALUES["simplex"], s)

    @settings(**ORACLE_SETTINGS)
    @given(**ORACLE_ARGS, share=st.sampled_from([0.0, 0.1]),
           layout=st.sampled_from(["C", "F", "strided"]))
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_values_and_distances(self, seed, n, rows, share, layout):
        r = rng(seed)
        x, y = (laid_out(mixed_values(r, (rows, n), share) * 1e-150, layout)
                for _ in range(2))
        b, gamma = r.standard_normal(n), 10.0 ** r.uniform(-6, 6)
        pairs = [
            (NONSMOOTH_VALUES["l1"], reference_l1, (x,)),
            (squared_euclidean(n).value, reference_squared_euclidean_value,
             (x,)),
            (half_squared_distance, reference_half_squared_distance, (x, y)),
        ]
        q = shifted_quadratic(b, gamma)
        ref_value, ref_distance = reference_shifted_quadratic(b, gamma)
        pairs += [(q.value, ref_value, (x,)),
                  (q.distance, ref_distance, (x, y))]
        for fn, ref, args in pairs:
            same_bits(fn(*args), ref(*args))
            rows_match(fn, *args)

    @settings(**ORACLE_SETTINGS)
    @given(**ORACLE_ARGS, m=st.integers(1, 12))
    def test_least_squares(self, seed, n, rows, m):
        # a stack goes through a matrix product, which rounds unlike the
        # matrix-vector product of one row: compared with the old body only
        r = rng(seed)
        A, b = r.standard_normal((m, n)), r.standard_normal(m)
        x, y = r.standard_normal((2, rows, n))
        f = least_squares(A, b)
        ref_value, ref_distance = reference_least_squares(A, b)
        same_bits(f.value(x), ref_value(x))
        same_bits(f.distance(x, y), ref_distance(x, y))
        if rows:
            same_bits(f.value(x[0]), ref_value(x[0]))

    @settings(**ORACLE_SETTINGS)
    @given(**ORACLE_ARGS)
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_generators_and_identity_checks(self, seed, n, rows):
        r = rng(seed)
        a, b, c = (r.dirichlet(np.ones(n), size=rows) for _ in range(3))
        he = negative_entropy(n)
        off = simplex_points(r, rows, n)
        for x in (off, a):  # a holds no zero: the value masks nothing
            same_bits(he.value(x), reference_negative_entropy_value(x))
            rows_match(he.value, x)
        for h, p, q in ((squared_euclidean(n), r.standard_normal((rows, n)),
                         r.standard_normal((rows, n))), (he, a, b)):
            same_bits(reference_distance(h, p, q),
                      reference_reference_distance(h, p, q))
            rows_match(lambda p, q: reference_distance(h, p, q), p, q)
        if rows:
            rhs = reference_three_point_rhs(he, a, b, c)
            lhs = he.distance(c, a) + he.distance(a, b) - he.distance(c, b)
            assert check_three_point(he, a, b, c) == \
                float(np.max(np.abs(lhs - rhs)))

    @settings(**ORACLE_SETTINGS)
    @given(**ORACLE_ARGS, pair=st.sampled_from(
        [("l1", "quadratic"), ("simplex", "quadratic"),
         ("simplex", "entropy"), ("zero", "quadratic")]))
    def test_prox_objective(self, seed, n, rows, pair):
        r = rng(seed)
        g = NonsmoothTerm(pair[0])
        H = squared_euclidean(n) if pair[1] == "quadratic" \
            else negative_entropy(n)
        if pair[0] == "simplex":
            y = r.dirichlet(np.ones(n))
            x = simplex_points(r, rows, n)
            if pair[1] == "entropy":
                x = r.dirichlet(np.ones(n), size=rows)
        else:
            y = r.standard_normal(n)
            x = r.standard_normal((rows, n))
        v, eta = r.standard_normal(n), r.uniform(0.1, 2.0)
        same_bits(prox_objective(g, H, x, v, y, eta),
                  reference_prox_objective(*pair, x, v, y, eta))
        rows_match(lambda x: prox_objective(g, H, x, v, y, eta), x)

    @pytest.mark.parametrize("m", [1, 2, 5, 7, 8, 12, 50])
    def test_residual_stepper_blocks(self, m):
        # f and D_f of a block of steps, one row_sum each, against the old
        # per-row reductions of the carried residual; the stepper is
        # flushed after each block of its rows, as run_solver does, its
        # D_f read before the flush starts the next block (xs unread)
        def flush(stepper):
            d_f = stepper.distances(None)
            return stepper.flush(None), d_f

        r = rng(m)
        A, b = r.standard_normal((m, 6)), r.standard_normal(m)
        x = r.standard_normal(6)
        stepper = least_squares(A, b).stepper(x)
        assert stepper.rows == FLUSH_ENTRIES // max(m, 6)
        res, values, distances, blocks = A @ x - b, [], [], []
        for k in range(1, 3 * stepper.rows // 2 + 4):
            cand = x + 1e-3 * r.standard_normal(6)
            stepper.propose(cand)
            stepper.accept()
            ad = A @ (cand - x)
            res, x = res + ad, cand
            values.append(0.5 * np.add.reduce(np.square(res)))
            distances.append(0.5 * np.add.reduce(np.square(ad)))
            if k % stepper.rows == 0:
                blocks.append(flush(stepper))
        blocks.append(flush(stepper))
        got_values, got_distances = map(np.concatenate, zip(*blocks))
        same_bits(got_values, np.array(values))
        same_bits(got_distances, np.array(distances))

    @pytest.mark.parametrize("layout", ["C", "F", "strided"])
    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 60),
           n=st.integers(1, 60))
    @example(seed=0, m=1, n=1)
    @example(seed=1, m=1, n=40)
    @example(seed=2, m=40, n=1)
    @example(seed=3, m=60, n=7)
    @example(seed=4, m=500, n=1000)
    def test_residual_stepper_passes_give_the_matmul_bits(self, layout, seed,
                                                          m, n):
        # the starting residual, grad(), each candidate's A d and
        # may_stop's r . r go through ndarray.dot; on a C or F matrix they
        # must give the bits of A @ x0 - b, A.T @ r, np.matmul(A, d) and
        # np.dot(r, r).  numpy's own matmul loop for a strided matrix need
        # not round as BLAS does, so there ndarray.dot's bits stand
        r = rng(seed)
        A = laid_out(r.standard_normal((m, n)), layout)
        b, x = r.standard_normal(m), r.standard_normal(n)
        matvec = np.dot if layout == "strided" else np.matmul
        stepper = least_squares(A, b).stepper(x)
        assert stepper.A is A
        same_bits(stepper.rs[0], matvec(A, x) - b)
        # with no slack (eps and tiny taken as 0), may_stop() for f* = 0 and
        # tol is r . r / 2 <= tol: true at np.dot's value and false just
        # below it only where they are equal
        def may_stop(tol):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(functions, "EPS", 0.0)
                patch.setattr(functions, "SMALLEST_NORMAL", 0.0)
                return stepper.stop_test(0.0, tol)()

        for _ in range(3):
            res = stepper.rs[stepper.j]
            same_bits(stepper.grad(), matvec(A.T, res))
            half = 0.5 * np.dot(res, res)
            assert may_stop(half)
            assert not may_stop(np.nextafter(half, -np.inf))
            cand = x + r.standard_normal(n)
            stepper.propose(cand)
            same_bits(stepper.ads[stepper.j], matvec(A, cand - x))
            stepper.accept()
            x = cand


# the sum kernel, and the simplex test's per-row minimum
KERNEL = {("functions.py", "row_sum", "np.add.reduce"),
          ("functions.py", "on_simplex", "np.minimum.reduce")}


REDUCTIONS = {"reduce", "sum", "min", "max", "prod", "mean", "all", "any"}


def is_minus_one(node):
    try:
        return ast.literal_eval(node) == -1
    except ValueError:
        return False


def owned_nodes(src=SRC):
    """(file, enclosing function or "<module>", node) of every node of the
    modules in ``src``."""
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text())
        owner = {}
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for node in ast.walk(fn):
                    # ast.walk goes outside in, so the innermost def wins
                    owner[node] = fn.name
        for node in ast.walk(tree):
            yield path.name, owner.get(node, "<module>"), node


def last_axis_calls(src=SRC):
    """(file, enclosing function or "<module>", callee) of every call in
    ``src`` that takes axis=-1, or that reduces with a positional -1 axis."""
    found = set()
    for name, owner, call in owned_nodes(src):
        if not isinstance(call, ast.Call):
            continue
        callee = ast.unparse(call.func)
        if any(kw.arg == "axis" and is_minus_one(kw.value)
               for kw in call.keywords) or (
                callee.rsplit(".", 1)[-1] in REDUCTIONS
                and any(map(is_minus_one, call.args[1:]))):
            found.add((name, owner, callee))
    return found


def test_last_axis_reductions_go_through_the_kernel():
    calls = last_axis_calls()
    assert calls >= KERNEL
    stray = calls - KERNEL
    assert not stray, f"sum the last axis with row_sum: {stray}"


def test_the_guard_sees_a_stray_reduction(tmp_path):
    (tmp_path / "stray.py").write_text(
        "import numpy as np\n\n"
        "VALUES = {'l1': lambda x: np.abs(x).sum(axis=-1)}\n\n"
        "def f(x):\n"
        "    def g(y):\n"
        "        return np.add.reduce(y, -1)\n"
        "    return np.sum(x,\n"
        "                  axis=-1) + g(x) + np.sum(x, axis=0)\n")
    assert last_axis_calls(tmp_path) == {
        ("stray.py", "<module>", "np.abs(x).sum"),
        ("stray.py", "g", "np.add.reduce"),
        ("stray.py", "f", "np.sum")}


# The code run per line-search candidate or per block of steps calls
# numpy's C entry points: np.add.accumulate, ndarray.sort,
# np.logical_and.reduce, ndarray.nonzero, ndarray.dot, and for a whole
# vector's maximum or minimum ndarray.argmax or argmin with ndarray.item.
# The Python wrappers below cost 1-2 us a call at n = 100, as much as the
# work; np.matmul and the @ operator (flagged as "@") cost 0.7-1.3 us more
# than ndarray.dot per pass over A at 50x100, for the same BLAS call.
# x.item(x.argmax()) takes 0.3 us at n = 100 and 0.4 us at n = 1,000,
# against 0.9 and 1.0 us for np.maximum.reduce(x) or np.minimum.reduce(x),
# so those two are flagged where they reduce a whole vector (no axis, or
# axis None); along an axis they are on_simplex's per-row minimum (x86_64,
# numpy 2.4).
# README "The extrema rule" says why the bits stay the same.
WRAPPED = {"np.sort", "np.cumsum", "np.argmax", "np.argmin", "np.max",
           "np.min", "np.all", "np.any", "np.flatnonzero", "np.dot",
           "np.matmul"}
EXTREMA = {"np.maximum.reduce", "np.minimum.reduce"}
# the module-level definitions (functions, classes with their methods,
# assigned names) that hold that code, closures included: the steppers'
# may_stop predicates are closures of their stop_test methods
PER_STEP = {
    "prox.py": {"soft_threshold", "simplex_projection", "_simplex_threshold",
                "_threshold_sorted", "project_simplex", "entropic_update",
                "gradient_step"},
    "bregman.py": {"half_squared_distance", "kl_divergence", "_kl_series",
                   "accepts"},
    "functions.py": {"row_sum", "on_simplex", "NONSMOOTH_VALUES",
                     "OracleStepper", "ResidualStepper"},
    "solvers.py": {"run_solver"},
}


def defined_name(node):
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return node.name
    if isinstance(node, ast.Assign) and len(node.targets) == 1 \
            and isinstance(node.targets[0], ast.Name):
        return node.targets[0].id
    return None


def whole_vector_extremum(call):
    """An EXTREMA call whose axis, by keyword or as its second argument, is
    missing or the literal None."""
    if ast.unparse(call.func) not in EXTREMA:
        return False
    axis = [kw.value for kw in call.keywords if kw.arg == "axis"] \
        + call.args[1:2]
    return not axis or isinstance(axis[0], ast.Constant) \
        and axis[0].value is None


def wrapper_calls(src=SRC, scope=PER_STEP):
    """(file, definition, callee) of every WRAPPED call, every EXTREMA call
    without an axis and every @ or @= (callee "@") inside the definitions
    that ``scope`` names, and the names it finds defined."""
    found, defined = set(), set()
    for name, owners in scope.items():
        for node in ast.parse((src / name).read_text()).body:
            owner = defined_name(node)
            if owner not in owners:
                continue
            defined.add((name, owner))
            for call in ast.walk(node):
                if isinstance(call, ast.Call) \
                        and (ast.unparse(call.func) in WRAPPED
                             or whole_vector_extremum(call)):
                    found.add((name, owner, ast.unparse(call.func)))
                elif isinstance(call, (ast.BinOp, ast.AugAssign)) \
                        and isinstance(call.op, ast.MatMult):
                    found.add((name, owner, "@"))
    return found, defined


def test_per_step_code_calls_no_numpy_wrapper():
    found, defined = wrapper_calls()
    assert defined == {(name, owner) for name, owners in PER_STEP.items()
                       for owner in owners}
    assert {fn.__name__ for fn in _REGISTRY.values()} <= PER_STEP["prox.py"]
    assert {"OracleStepper", "ResidualStepper"} <= PER_STEP["functions.py"]
    assert all(callable(getattr(functions, name).stop_test)
               for name in ("OracleStepper", "ResidualStepper"))
    assert not found, f"call numpy's C entry points: {sorted(found)}"


def test_the_guard_sees_a_numpy_wrapper(tmp_path):
    (tmp_path / "step.py").write_text(
        "import numpy as np\n\n"
        "VALUES = {'l1': lambda x: np.max(np.abs(x))}\n"
        "OTHER = np.min([1.0])\n\n"
        "def run(x):\n"
        "    def complete():\n"
        "        return bool(np.all(x > 0))\n"
        "    return np.sort(x)[::-1], complete()\n\n"
        "class Stepper:\n"
        "    def grad(self, x):\n"
        "        return np.argmax(x), np.maximum.reduce(x), x.argmax()\n\n"
        "    def propose(self, A, d, out):\n"
        "        np.matmul(A, d, out=out)\n"
        "        return np.dot(d, d), A.dot(d), A.T.dot(out)\n\n"
        "def passes(A, r):\n"
        "    g = A.T @ r\n"
        "    g @= A\n"
        "    return g\n\n"
        "def setup(A):\n"
        "    return A @ A.T\n")
    found, defined = wrapper_calls(tmp_path, {
        "step.py": {"VALUES", "run", "Stepper", "passes", "missing"}})
    assert found == {("step.py", "VALUES", "np.max"),
                     ("step.py", "run", "np.all"),
                     ("step.py", "run", "np.sort"),
                     ("step.py", "Stepper", "np.argmax"),
                     ("step.py", "Stepper", "np.maximum.reduce"),
                     ("step.py", "Stepper", "np.matmul"),
                     ("step.py", "Stepper", "np.dot"),
                     ("step.py", "passes", "@")}
    assert defined == {("step.py", "VALUES"), ("step.py", "run"),
                       ("step.py", "Stepper"), ("step.py", "passes")}


def test_the_guard_sees_a_whole_vector_extremum(tmp_path):
    # a reduction over no axis, over axis None (by keyword or position) or
    # with an initial value is flagged; one along an axis, argmax with item
    # and a call outside the scope are not
    (tmp_path / "step.py").write_text(
        "import numpy as np\n\n"
        "def shift(x):\n"
        "    return x - np.maximum.reduce(x)\n\n"
        "def probe(m):\n"
        "    return np.isnan(np.minimum.reduce(m, initial=0.0))\n\n"
        "def top(x):\n"
        "    return np.maximum.reduce(x, axis=None)\n\n"
        "def bottom(x):\n"
        "    return np.minimum.reduce(x, None)\n\n"
        "def rows(x):\n"
        "    return np.minimum.reduce(x, axis=-1), np.maximum.reduce(x, 0)\n\n"
        "def fast(x):\n"
        "    return x.item(x.argmax()), x.item(x.argmin())\n\n"
        "def setup(x):\n"
        "    return np.maximum.reduce(x)\n")
    found, _ = wrapper_calls(tmp_path, {
        "step.py": {"shift", "probe", "top", "bottom", "rows", "fast"}})
    assert found == {("step.py", "shift", "np.maximum.reduce"),
                     ("step.py", "probe", "np.minimum.reduce"),
                     ("step.py", "top", "np.maximum.reduce"),
                     ("step.py", "bottom", "np.minimum.reduce")}


# More rules and values with one coding each: the acceptance test
# D_h >= 0 of the line search, the certificates and the composite
# generator (bregman.accepts),
# the feasible points of the identity suites (identities.sample_feasible),
# the test of a step size (functions.check_step), the simplex's sum test
# (functions.on_simplex), the forward step y - eta v (prox.gradient_step,
# which the other quadratic prox maps call) and the positivity floor
# (functions.SMALLEST_NORMAL, the one read of the smallest normal float:
# no float literal below 1e-100 stands in for it).  The projection's retry
# bound reads SIMPLEX_SUM_TOL too, as the sum its output must keep, and
# past that bound it tests its output by on_simplex.
def is_zero_or_inf(node):
    try:
        return ast.literal_eval(node) == 0
    except ValueError:
        return ast.unparse(node) in ("np.inf", "math.inf")


def names_a_step(node):
    name = node.id if isinstance(node, ast.Name) else \
        node.attr if isinstance(node, ast.Attribute) else ""
    return name.startswith("eta")


def is_step_check(node):
    """A comparison of a step (a name starting with "eta") with 0 or inf,
    or a chain 0 < x < inf of any x: the positive-and-finite test."""
    if not isinstance(node, ast.Compare):
        return False
    operands = [node.left, *node.comparators]
    bounds = [o for o in operands if is_zero_or_inf(o)]
    return bool(bounds) and (any(map(names_a_step, operands))
                             or len(bounds) == 2)


def is_forward_step(node):
    """A subtraction whose right operand multiplies a step (a name starting
    with "eta"): y - eta * v, or np.subtract(y, eta * v, ...)."""
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Sub):
        right = node.right
    elif isinstance(node, ast.Call) and len(node.args) >= 2 \
            and ast.unparse(node.func) == "np.subtract":
        right = node.args[1]
    else:
        return False
    return isinstance(right, ast.BinOp) and isinstance(right.op, ast.Mult) \
        and (names_a_step(right.left) or names_a_step(right.right))


def is_tiny_literal(node):
    return isinstance(node, ast.Constant) and type(node.value) is float \
        and 0.0 < node.value < 1e-100


def single_coding_sites(src=SRC):
    """(file, enclosing function or "<module>", what) of every read of
    ACCEPT_TOL, SIMPLEX_SUM_TOL or a ``tiny`` attribute, every call of a
    ``dirichlet`` method, every step check, every forward step and every
    float literal below 1e-100 in ``src``."""
    found = set()
    for name, owner, node in owned_nodes(src):
        ident = getattr(node, NAMING.get(type(node), ""), None)
        if ident in ("ACCEPT_TOL", "SIMPLEX_SUM_TOL", "tiny") \
                and isinstance(getattr(node, "ctx", None), ast.Load):
            found.add((name, owner, ident))
        elif isinstance(node, ast.Call) \
                and isinstance(node.func, ast.Attribute) \
                and node.func.attr == "dirichlet":
            found.add((name, owner, "dirichlet"))
        elif is_step_check(node):
            found.add((name, owner, "step check"))
        elif is_forward_step(node):
            found.add((name, owner, "forward step"))
        elif is_tiny_literal(node):
            found.add((name, owner, "tiny literal"))
    return found


def test_each_rule_has_one_coding():
    assert single_coding_sites() == {
        ("bregman.py", "accepts", "ACCEPT_TOL"),
        ("functions.py", "on_simplex", "SIMPLEX_SUM_TOL"),
        ("prox.py", "<module>", "SIMPLEX_SUM_TOL"),
        ("identities.py", "sample_feasible", "dirichlet"),
        ("functions.py", "check_step", "step check"),
        ("prox.py", "gradient_step", "forward step"),
        ("functions.py", "<module>", "tiny")}


def test_the_guard_sees_a_second_coding(tmp_path):
    (tmp_path / "second.py").write_text(
        "import numpy as np\n"
        "from .bregman import ACCEPT_TOL\n\n"
        "SLACK = -ACCEPT_TOL\n\n"
        "def draw(rng, n):\n"
        "    ACCEPT_TOL = 0.0\n"
        "    return rng.dirichlet([1.0] * n, size=2), ACCEPT_TOL\n\n"
        "def step(v, y, eta):\n"
        "    if eta <= 0:\n"
        "        raise ValueError\n"
        "    return y - eta * v\n\n"
        "def check(cfg):\n"
        "    return cfg.eta0 < np.inf\n\n"
        "def scale(gamma, eta_ratio, y):\n"
        "    # a chain with 0 and inf is the same test; other bounds are not\n"
        "    if not 0.0 < gamma < np.inf or y.min() < 0.0:\n"
        "        raise ValueError\n"
        "    return eta_ratio >= 1.0 and gamma * eta_ratio <= 1.0\n\n"
        "def contains(x):\n"
        "    return abs(x.sum() - 1.0) <= functions.SIMPLEX_SUM_TOL or \\\n"
        "        abs(x.sum() - 1.0) <= SIMPLEX_SUM_TOL\n\n"
        "def shrink(v, y, eta_k):\n"
        "    return y - v * eta_k\n\n"
        "def into(v, y, eta, out):\n"
        "    return np.subtract(y, eta * v, out=out), np.subtract(y, v)\n\n"
        "def mirror(v, y, eta):\n"
        "    # an exponent, a scaled distance and an unscaled step are not it\n"
        "    return y * np.exp(-eta * v), 0.5 * eta * (y - v) @ (y - v), \\\n"
        "        y - 2.0 * v\n\n"
        "def interior(x):\n"
        "    return x.min() >= 1e-300\n\n"
        "def normal(x):\n"
        "    return x.min() >= np.finfo(float).tiny\n\n"
        "def finite(x):\n"
        "    # 1e-100 itself and the top of a float's range are no floor\n"
        "    return x.min() >= -1e-100 and x.max() < 1e308\n")
    assert single_coding_sites(tmp_path) == {
        ("second.py", "<module>", "ACCEPT_TOL"),
        ("second.py", "contains", "SIMPLEX_SUM_TOL"),
        ("second.py", "draw", "dirichlet"),
        ("second.py", "draw", "ACCEPT_TOL"),
        ("second.py", "step", "step check"),
        ("second.py", "step", "forward step"),
        ("second.py", "check", "step check"),
        ("second.py", "scale", "step check"),
        ("second.py", "shrink", "forward step"),
        ("second.py", "into", "forward step"),
        ("second.py", "interior", "tiny literal"),
        ("second.py", "normal", "tiny")}


# Optimality is checked by one exact gap, functions.first_order_gap, the
# one place that subtracts a minimum (the Frank-Wolfe gap <s, x> - min s).
# No check searches sampled points for a better one: the sampler takes no
# point to draw around, and it is called by the identity suites alone: the
# three sampled suites through their one block loop, the offset suite and
# the prox-optimality suite drawing with it only their own inputs.
MINIMA = {"min", "np.min", "np.amin", "np.minimum.reduce"}
SAMPLER_CALLS = {
    ("identities.py", "_worst_residuals", "stack"),
    ("identities.py", "offset_identity_suite", "point"),
    ("identities.py", "offset_identity_suite", "stack"),
    ("identities.py", "prox_optimality_suite", "point")}


def gap_and_sampler_sites(src=SRC):
    """(file, enclosing function or "<module>", what) of every subtraction
    of a minimum, every sampler call (a "point" without a shape, else a
    "stack") and the sampler's parameters in ``src``."""
    found = set()
    for name, owner, node in owned_nodes(src):
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Sub) \
                and isinstance(node.right, ast.Call):
            callee = ast.unparse(node.right.func)
            if callee in MINIMA or callee.endswith(".min"):
                found.add((name, owner, "minimum subtracted"))
        elif isinstance(node, ast.Call) \
                and ast.unparse(node.func).endswith("sample_feasible"):
            shaped = len(node.args) > 3 or any(
                kw.arg == "shape" for kw in node.keywords)
            found.add((name, owner, "stack" if shaped else "point"))
        elif isinstance(node, ast.FunctionDef) \
                and node.name == "sample_feasible":
            found.add((name, node.name, ", ".join(
                a.arg for a in node.args.args + node.args.kwonlyargs)))
    return found


def test_one_gap_and_no_sampled_search():
    assert gap_and_sampler_sites() == SAMPLER_CALLS | {
        ("functions.py", "first_order_gap", "minimum subtracted"),
        ("identities.py", "sample_feasible", "kind, n, rng, shape")}


def test_the_guard_sees_a_sampled_search(tmp_path):
    (tmp_path / "search.py").write_text(
        "import numpy as np\n"
        "from .functions import sample_feasible\n\n"
        "def sample_feasible(kind, n, rng, shape=(), around=None):\n"
        "    return rng.standard_normal(shape + (n,))\n\n"
        "def fw(s, x):\n"
        "    return s @ x - np.min(s), s @ x - s.min()\n\n"
        "def worst(objective, x, rng):\n"
        "    z = sample_feasible('rn', x.size, rng, shape=(100,))\n"
        "    return objective(x) - min(objective(z))\n")
    assert gap_and_sampler_sites(tmp_path) == {
        ("search.py", "sample_feasible", "kind, n, rng, shape, around"),
        ("search.py", "fw", "minimum subtracted"),
        ("search.py", "worst", "minimum subtracted"),
        ("search.py", "worst", "stack")}


# The trace's row view and the two rates aliases stay only while perfbench
# reads them: past their definitions, one adapter test pins what perfbench
# reads, and every other reader reads the trace as columns.
PERFBENCH_ONLY = {"records", "final", "objectives", "IterationRecord",
                  "constant_step_certificate", "line_search_certificate"}
TESTS = Path(__file__).resolve().parent
# the field of each kind of node that names something
NAMING = {ast.Name: "id", ast.Attribute: "attr", ast.FunctionDef: "name",
          ast.alias: "name"}


def perfbench_only_sites(src):
    """(file, enclosing function or "<module>", name) of every name,
    attribute, def or import of a PERFBENCH_ONLY name in ``src``, outside
    test_perfbench_contract.py."""
    found = set()
    for name, owner, node in owned_nodes(src):
        ident = getattr(node, NAMING.get(type(node), ""), None)
        if ident in PERFBENCH_ONLY and name != "test_perfbench_contract.py":
            found.add((name, owner, ident))
    return found


def test_only_perfbench_reads_the_row_view():
    assert perfbench_only_sites(SRC) == {
        ("solvers.py", "<module>", "IterationRecord"),
        ("solvers.py", "objectives", "objectives"),
        ("solvers.py", "final", "final"),
        ("solvers.py", "final", "IterationRecord"),
        ("solvers.py", "records", "records"),
        ("solvers.py", "records", "IterationRecord"),
        ("rates.py", "constant_step_certificate",
         "constant_step_certificate"),
        ("rates.py", "line_search_certificate", "line_search_certificate")}
    adapter = "test_perfbench_reads_rows_that_match_the_columns"
    assert perfbench_only_sites(TESTS) == {
        ("test_solvers.py", adapter, name)
        for name in ("records", "final", "objectives")}


def test_the_guard_sees_a_row_view_reader(tmp_path):
    (tmp_path / "reader.py").write_text(
        "from bregprox import IterationRecord\n"
        "from bregprox.rates import line_search_certificate as cert\n\n"
        "def last(trace):\n"
        "    return trace.final().x, trace.records[-1]\n\n"
        "def objs(trace, rates):\n"
        "    final = trace.objective[-1]\n"
        "    return rates.constant_step_certificate, trace.objectives()\n")
    (tmp_path / "test_perfbench_contract.py").write_text(
        "def test_it(trace):\n"
        "    return trace.records\n")
    assert perfbench_only_sites(tmp_path) == {
        ("reader.py", "<module>", "IterationRecord"),
        ("reader.py", "<module>", "line_search_certificate"),
        ("reader.py", "last", "final"),
        ("reader.py", "last", "records"),
        ("reader.py", "objs", "final"),
        ("reader.py", "objs", "constant_step_certificate"),
        ("reader.py", "objs", "objectives")}


# Random draws are made in three places: the identity suites, which own the
# one sampler, and the two problem builders, build_simplex_ls and run-lasso's
# command.  No certificate, verifier or oracle rests on samples.
DRAWS_OUTSIDE_IDENTITIES = {("experiments.py", "build_simplex_ls"),
                            ("cli.py", "cmd_run_lasso")}


def random_draw_sites(src=SRC):
    """(file, enclosing function or "<module>", callee) of every call in
    ``src`` of a ``random`` module's function (np.random.Philox) or of a
    method of a generator named ``rng`` (rng.standard_normal,
    self.rng.uniform)."""
    found = set()
    for name, owner, node in owned_nodes(src):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        callee = ast.unparse(func)
        holder = getattr(func, "value", None)
        if "random" in callee.split(".")[:-1] or getattr(
                holder, NAMING.get(type(holder), ""), None) == "rng":
            found.add((name, owner, callee))
    return found


def test_random_draws_live_in_one_place():
    sites = random_draw_sites()
    assert {s[:2] for s in sites if s[0] != "identities.py"} \
        == DRAWS_OUTSIDE_IDENTITIES
    assert ("identities.py", "sample_feasible", "rng.dirichlet") in sites


def test_the_guard_sees_a_random_draw(tmp_path):
    (tmp_path / "draws.py").write_text(
        "import random\n"
        "import numpy as np\n\n"
        "def fd(f, x, rng):\n"
        "    return f(x + 1e-6 * rng.standard_normal(x.size))\n\n"
        "def seeded(seed):\n"
        "    return np.random.Generator(np.random.Philox(seed))\n\n"
        "class Checker:\n"
        "    def sample(self, n):\n"
        "        return self.rng.uniform(size=n), random.random()\n\n"
        "def exact(x, rngs, random_x):\n"
        "    # a norm, a count of generators and a random-named array are not\n"
        "    return np.linalg.norm(x), len(rngs), random_x.sum()\n")
    assert random_draw_sites(tmp_path) == {
        ("draws.py", "fd", "rng.standard_normal"),
        ("draws.py", "seeded", "np.random.Generator"),
        ("draws.py", "seeded", "np.random.Philox"),
        ("draws.py", "sample", "self.rng.uniform"),
        ("draws.py", "sample", "random.random")}


# One seeded least-squares builder, and prox maps named by the kinds they
# serve: experiments.build_simplex_ls is the one caller of least_squares,
# the offset suite included, and every make_prox_map call passes the kinds
# of its problem's g and generator H (p.g.kind, H.kind), the pair that
# run_solver checks the map against.  The prox-optimality suite alone
# names its pairs, since it draws inputs for each registered one.
def builder_and_prox_map_sites(src=SRC):
    """(file, enclosing function or "<module>", what) of every call in
    ``src`` of least_squares, and of every make_prox_map call whose two
    arguments are not both attributes named ``kind``."""
    found = set()
    for name, owner, node in owned_nodes(src):
        if not isinstance(node, ast.Call):
            continue
        callee = ast.unparse(node.func).rsplit(".", 1)[-1]
        if callee == "least_squares":
            found.add((name, owner, "least_squares"))
        elif callee == "make_prox_map":
            kinds = [*node.args, *(kw.value for kw in node.keywords)]
            if len(kinds) != 2 or not all(
                    isinstance(k, ast.Attribute) and k.attr == "kind"
                    for k in kinds):
                found.add((name, owner, "prox map not by kinds"))
    return found


def test_one_builder_and_prox_maps_by_kind():
    assert builder_and_prox_map_sites() == {
        ("experiments.py", "build_simplex_ls", "least_squares"),
        ("identities.py", "prox_optimality_suite", "prox map not by kinds")}


def test_the_guard_sees_a_second_builder_and_a_named_pair(tmp_path):
    (tmp_path / "second.py").write_text(
        "import numpy as np\n"
        "from . import functions\n"
        "from .functions import least_squares\n"
        "from .prox import make_prox_map\n\n"
        "def offset_problem(rng):\n"
        "    A = rng.standard_normal((8, 6))\n"
        "    return functions.least_squares(A, np.ones(8))\n\n"
        "def solve(p, H, g_kind):\n"
        "    by_kind = make_prox_map(p.g.kind, H.kind)\n"
        "    by_keyword = make_prox_map(g_kind=p.g.kind, H_kind=H.kind)\n"
        "    return by_kind, by_keyword, make_prox_map('simplex', H.kind)\n\n"
        "def lasso(b):\n"
        "    return make_prox_map(g_kind='l1', H_kind='quadratic'), \\\n"
        "        make_prox_map(kind_of(b), H.kind), least_squares(b, b)\n")
    assert builder_and_prox_map_sites(tmp_path) == {
        ("second.py", "offset_problem", "least_squares"),
        ("second.py", "solve", "prox map not by kinds"),
        ("second.py", "lasso", "prox map not by kinds"),
        ("second.py", "lasso", "least_squares")}


# Code that nothing calls is deleted.  A module-level def or class that no
# module of the package (past its own definition and __init__'s export)
# and no perfbench file names is public library API, kept for users:
# - verify_theorem2_equivalence: the paper's theorem 2, that each BPGA
#   iterate solves its generalized proximal point subproblem, as a check a
#   user runs on a problem of their own;
# - zero_function and zero_term: f = 0 and g = 0, which build the pure
#   proximal point and the pure gradient problems from the other terms.
UNCALLED_API = {"verify_theorem2_equivalence", "zero_function", "zero_term"}
PERFBENCH = TESTS.parent / "perfbench"


def names_in(tree):
    """Every name, attribute and import of ``tree``; not its defs' names."""
    return {getattr(node, NAMING.get(type(node), ""), None)
            for node in ast.walk(tree)
            if not isinstance(node, ast.FunctionDef)}


def uncalled_definitions(src=SRC, bench=PERFBENCH):
    """The module-level defs and classes of ``src`` whose names appear
    nowhere in ``src`` outside their definitions and __init__.py, nor in a
    name or a string of ``bench``'s files (the tracer looks functions up
    by "module.name" strings)."""
    defined, named = set(), set()
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text())
        defined |= {node.name for node in tree.body if isinstance(
            node, (ast.FunctionDef, ast.ClassDef))}
        if path.name != "__init__.py":
            named |= names_in(tree)
    for path in sorted(bench.glob("*.py")):
        tree = ast.parse(path.read_text())
        named |= names_in(tree)
        named.update(*(re.findall(r"\w+", node.value)
                       for node in ast.walk(tree)
                       if isinstance(node, ast.Constant)
                       and isinstance(node.value, str)))
    return defined - named


def test_nothing_defined_goes_uncalled():
    assert uncalled_definitions() == UNCALLED_API


def test_the_guard_sees_an_uncalled_definition(tmp_path):
    src, bench = tmp_path / "src", tmp_path / "bench"
    src.mkdir()
    bench.mkdir()
    (src / "__init__.py").write_text("from .mod import exported, used\n")
    (src / "mod.py").write_text(
        "def used(x):\n"
        "    return _helper(x)\n\n"
        "def _helper(x):\n"
        "    return x\n\n"
        "def unused():\n"
        "    return None\n\n"
        "def exported():\n"
        "    return None\n\n"
        "class Traced:\n"
        "    pass\n")
    (src / "cli.py").write_text(
        "from . import mod\n\n"
        "def main():\n"
        "    return mod.used(1)\n")
    # a def of the same name in a bench file does not call the package's
    (bench / "run.py").write_text(
        "import cli\n\n"
        "SPANS = ('mod.Traced',)\n\n"
        "def exported():\n"
        "    return cli.main()\n")
    assert uncalled_definitions(src, bench) == {"unused", "exported"}


# The library layers print nothing: a run reports through what it returns
# (the trace's hypothesis_held, a certificate, an exception), and the
# command line alone writes to the terminal.  No module but cli.py and
# __main__.py imports logging, calls print or warnings.warn (or a bare
# warn), or names sys.stdout or sys.stderr.
TERMINAL = {"cli.py", "__main__.py"}
OUTPUT_CALLS = {"print", "warn", "warnings.warn"}
STREAMS = {"sys.stdout", "sys.stderr"}


def output_sites(src=SRC):
    """(file, enclosing function or "<module>", what) of every import of
    logging, call of OUTPUT_CALLS and mention of STREAMS in the modules of
    ``src`` outside TERMINAL."""
    found = set()
    for name, owner, node in owned_nodes(src):
        if name in TERMINAL:
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            modules = [node.module or ""] if isinstance(
                node, ast.ImportFrom) else [a.name for a in node.names]
            found.update((name, owner, "import " + m) for m in modules
                         if m.partition(".")[0] == "logging")
        elif isinstance(node, ast.Call) and \
                ast.unparse(node.func) in OUTPUT_CALLS:
            found.add((name, owner, ast.unparse(node.func)))
        elif isinstance(node, ast.Attribute) and ast.unparse(node) in STREAMS:
            found.add((name, owner, ast.unparse(node)))
    return found


def test_the_library_layers_print_nothing():
    assert output_sites() == set()


def test_the_guard_sees_a_library_print(tmp_path):
    (tmp_path / "loud.py").write_text(
        "import logging.handlers\n"
        "import sys, warnings\n"
        "from logging import getLogger\n"
        "from warnings import warn\n\n"
        "def step(x, log):\n"
        "    print(x)\n"
        "    warnings.warn('slow')\n"
        "    warn('slow')\n"
        "    # a method named warn, argv and a string are not output\n"
        "    log.warn('fine'), sys.argv, 'print(x)'\n"
        "    return sys.stderr\n\n"
        "def flush():\n"
        "    sys.stdout.flush()\n")
    (tmp_path / "cli.py").write_text(
        "import logging\n"
        "import sys\n\n"
        "def main():\n"
        "    print('ok', file=sys.stderr)\n")
    (tmp_path / "__main__.py").write_text(
        "import sys\n\n"
        "sys.stdout.write('ok')\n")
    assert output_sites(tmp_path) == {
        ("loud.py", "<module>", "import logging.handlers"),
        ("loud.py", "<module>", "import logging"),
        ("loud.py", "step", "print"),
        ("loud.py", "step", "warnings.warn"),
        ("loud.py", "step", "warn"),
        ("loud.py", "step", "sys.stderr"),
        ("loud.py", "flush", "sys.stdout")}
