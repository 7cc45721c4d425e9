"""The identity suites check every row of every block: a fault confined to
one row of one block must still fail its suite."""

import numpy as np
import pytest

from bregprox import bregman, functions, identities, prox

FAULT = 1e-9  # above the three suites' thresholds (1e-10, 1e-12)


def one_row_fault(fn, row):
    """fn with FAULT added to its value at one row only: the ``row``-th row
    it is given, counted over all its calls."""
    seen = [0]

    def faulty(x, y):
        d = np.array(fn(x, y), dtype=float, ndmin=1)
        if 0 <= row - seen[0] < d.size:
            d[row - seen[0]] += FAULT
        seen[0] += d.size
        return d if np.ndim(x) > 1 else float(d[0])

    faulty.seen = seen
    return faulty


@pytest.mark.parametrize("suite,name", [
    (identities.three_point_suite, "three_point_entropy"),
    (identities.linearity_suite, "linearity_quadratic_entropy"),
    (identities.nonnegativity_suite, "bregman_nonnegativity"),
])
def test_one_faulty_row_fails_its_suite(monkeypatch, suite, name):
    # row 1500 lies inside a block, away from its edges
    faulty = one_row_fault(bregman.kl_divergence, 1500)
    monkeypatch.setattr(bregman, "kl_divergence", faulty)
    results = {r.name: r for r in suite(3000, 0)}
    assert faulty.seen[0] > 1500
    assert not results[name].passed
    assert results[name].worst >= FAULT / 2
    others = [r for n, r in results.items() if n != name]
    assert all(r.passed for r in others)


def test_one_wrong_prox_output_fails_its_suite(monkeypatch):
    """The simplex-entropy map is off on one of its five calls, and only
    one sampled row, the true minimizer, shows it."""
    minimizer = {}
    calls = [0]

    def off_once(v, y, eta):
        x = prox.entropic_update(v, y, eta)
        calls[0] += 1
        if calls[0] != 3:
            return x
        minimizer["x"] = x
        return 0.99 * x + 0.01 / x.size

    def plant(kind, n, rng, shape=(), around=None):
        z = sample_feasible(kind, n, rng, shape, around=around)
        if "x" in minimizer:
            z[shape[0] // 2] = minimizer.pop("x")
        return z

    sample_feasible = functions.sample_feasible
    monkeypatch.setitem(prox._REGISTRY, ("simplex", "entropy"), off_once)
    monkeypatch.setattr(functions, "sample_feasible", plant)
    results = {r.name: r for r in identities.prox_optimality_suite(10_000, 0)}
    assert calls[0] == 5 and not minimizer
    assert not results["prox_optimality_simplex_entropy"].passed
    assert results["prox_optimality_l1_quadratic"].passed
    assert results["prox_optimality_simplex_quadratic"].passed


def test_prox_optimality_evaluates_bounded_stacks(monkeypatch):
    """At 100k samples each check draws 20k points; no call may see more
    than a block of them."""
    seen = []

    def recorded(pm, x, v, y, eta):
        seen.append(len(np.atleast_2d(x)))
        return prox_objective(pm, x, v, y, eta)

    prox_objective = prox.prox_objective
    monkeypatch.setattr(prox, "prox_objective", recorded)
    results = identities.prox_optimality_suite(100_000, 0)
    assert all(r.passed for r in results)
    assert max(seen) <= 1_000
    assert sum(seen) == 3 * 5 * (20_000 + 1)
